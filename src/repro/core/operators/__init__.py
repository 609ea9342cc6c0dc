"""Order-preserving operators that consume AND produce offset-value codes.

One module per subsection of paper Section 4. All operators take and
return streams of ``(key, code, payload)`` where ``code`` is the row's
ascending OVC relative to its predecessor in the *same* stream, and
derive output codes with integer arithmetic only — no column value
comparisons beyond those the operator itself needs (Section 4.11).

They are built from two primitives in ``repro.core.ovc`` and one rule:
``coded_groups`` cuts a stream into groups of a key prefix (a row
starts one iff its offset is below the prefix), ``OvcSpec.recode``
re-packs a code for a narrower or wider key, and the Section 4.1 filter
rule (``filter_stream``) folds the code of every row or group without
output into the next output row by max.
"""
