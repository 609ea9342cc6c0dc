"""Literal reproduction of the paper's Tables 1 and 2.

Table 1: descending and ascending OVCs of a 7-row sorted stream with
arity 4 and column domain 1..99, each key coded relative to its
predecessor. Table 2: ascending OVCs after a filter keeping rows 1 and
7. The expected numbers are transcribed from the paper.
"""
import pytest

from repro.core.operators.filterop import filter_stream
from repro.core.ovc import OvcSpec

ROWS = [
    (5, 7, 3, 9),
    (5, 7, 3, 12),
    (5, 8, 4, 6),
    (5, 9, 2, 7),
    (5, 9, 2, 7),
    (5, 9, 3, 4),
    (5, 9, 3, 7),
]

# Table 1 columns: offset, domain-value, OVC (descending);
#                  arity-offset, value, OVC (ascending).
TABLE1_DESC = [(0, 95, 95), (3, 88, 388), (1, 92, 192), (1, 91, 191),
               (4, None, 400), (2, 97, 297), (3, 93, 393)]
TABLE1_ASC = [(4, 5, 405), (1, 12, 112), (3, 8, 308), (3, 9, 309),
              (0, None, 0), (2, 3, 203), (1, 7, 107)]

TABLE2_ROWS = [((5, 7, 3, 9), 4, 5, 405), ((5, 9, 3, 7), 3, 9, 309)]


def codes(spec):
    return [
        spec.encode_rel(None if i == 0 else ROWS[i - 1], ROWS[i])
        for i in range(len(ROWS))
    ]


class TestTable1:
    def test_ascending_block(self):
        spec = OvcSpec(arity=4, base=100)
        got = codes(spec)
        for c, (am_off, value, ovc) in zip(got, TABLE1_ASC):
            assert c == ovc
            assert spec.arity - spec.offset_of(c) == am_off
            if value is not None:
                assert spec.value_of(c) == value

    def test_descending_block(self):
        # The paper's descending code, offset * domain + (domain - value)
        # and arity * domain for a duplicate, from the ascending code.
        spec = OvcSpec(arity=4, base=100)
        got = codes(spec)
        for c, (off, dom_minus_val, ovc) in zip(got, TABLE1_DESC):
            assert spec.offset_of(c) == off
            if dom_minus_val is None:
                assert spec.is_duplicate(c)
                assert spec.arity * spec.base == ovc
            else:
                assert spec.base - spec.value_of(c) == dom_minus_val
                assert off * spec.base + dom_minus_val == ovc

    @pytest.mark.parametrize("remove_idx,cases", [(1, "i"), (4, "ii"), (2, "iii")])
    def test_theorem_proof_examples(self, remove_idx, cases):
        # The three worked examples after the Section 4 proof: removing
        # row 2 / second-to-last / row 3 changes the successor's codes
        # exactly as the theorem predicts.
        spec = OvcSpec(arity=4, base=100)
        kept = [r for i, r in enumerate(ROWS) if i != remove_idx]
        expect = [
            spec.encode_rel(None if i == 0 else kept[i - 1], kept[i])
            for i in range(len(kept))
        ]
        full = codes(spec)
        combined = max(full[remove_idx], full[remove_idx + 1]) \
            if remove_idx + 1 < len(ROWS) else None
        # successor of the removed row gets the max-combined code
        assert expect[remove_idx] == combined


class TestTable2:
    def test_filter_output(self):
        spec = OvcSpec(arity=4, base=100)
        stream = [(ROWS[i], c, i) for i, c in enumerate(codes(spec))]
        out = list(filter_stream(stream, lambda k, p: p in (0, 6), spec))
        assert len(out) == len(TABLE2_ROWS)
        for (k, c, _), (ek, am_off, value, ovc) in zip(out, TABLE2_ROWS):
            assert k == ek and c == ovc
            assert spec.arity - spec.offset_of(c) == am_off
            assert spec.value_of(c) == value
