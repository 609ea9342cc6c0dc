"""Section 4.3: segmented sorting.

A stream sorted on (A, B) with OVCs must be produced sorted on (A, C):
instead of re-sorting everything, segment on distinct values of A —
a segment boundary is simply an offset smaller than |A| (one integer
test per row, no comparisons: ``coded_groups``) — and sort each segment
only on C.
Within a segment all offsets are cut to |A| and then refined by the
per-segment sort, whose codes (arity |C|) numerically *are* the tail of
the output codes under arity |A|+|C| — so output codes cost nothing
extra.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.external_sort import sort_in_memory
from repro.core.ovc import OvcSpec, coded_groups
from repro.core.stats import CompareStats


def segmented_sort(
    stream: Iterable,
    spec_in: OvcSpec,
    seg_cols: int,
    resort_key: Callable,
    resort_arity: int,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Re-sort a stream sorted on (A, B) into order (A, C).

    ``seg_cols`` = |A|; ``resort_key(key, payload)`` extracts the C key
    (tuple of length ``resort_arity``) from a row. Yields
    ``((A ++ C), code, payload)`` with arity ``seg_cols + resort_arity``
    codes, in (A, C) order.
    """
    width = seg_cols + resort_arity
    spec_c = OvcSpec(resort_arity, spec_in.base)
    for seg in coded_groups(stream, spec_in, seg_cols):
        if stats is not None:
            stats.rows_in += len(seg)
            stats.rows_out += len(seg)
        # Sort the segment on C. Its first output row carries the
        # segment's boundary code (offset < |A|) re-packed for the output
        # arity; later rows carry the C-sort code, whose value under base
        # b equals the output code with the offset shifted by |A|.
        prefix = tuple(seg[0][0][:seg_cols])
        head = spec_in.recode(seg[0][1], width)
        c_keys = [resort_key(k, p) for k, _, p in seg]
        for i, (c_key, c_code, idx) in enumerate(sort_in_memory(
                c_keys, spec_c, stats, payloads=range(len(seg)))):
            yield prefix + tuple(c_key), c_code if i else head, seg[idx][2]
