"""Section 4.3: segmented sorting.

A stream sorted on (A, B) with OVCs must be produced sorted on (A, C):
instead of re-sorting everything, segment on distinct values of A —
a segment boundary is simply an offset smaller than |A| (one integer
test per row, no comparisons) — and sort each segment only on C.
Within a segment all offsets are cut to |A| and then refined by the
per-segment sort, whose codes (arity |C|) numerically *are* the tail of
the output codes under arity |A|+|C| — so output codes cost nothing
extra.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.external_sort import sort_in_memory
from repro.core.ovc import OvcSpec
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
    if spec_in.descending:
        raise NotImplementedError("segmented sort implements ascending codes")
    thresh = spec_in.boundary_code(seg_cols)
    spec_out = OvcSpec(seg_cols + resort_arity, spec_in.base)
    spec_c = OvcSpec(resort_arity, spec_in.base)

    seg: list[tuple] = []
    seg_code: int | None = None
    seg_prefix: tuple | None = None

    def flush() -> Iterator[tuple]:
        # Sort the buffered segment on C; first output row carries the
        # segment's boundary code (offset < |A|) re-based to the output
        # arity, later rows carry the C-sort code whose numeric value
        # under base b equals the output code with offset shifted by |A|.
        c_keys = [resort_key(k, p) for k, _c, p in seg]
        first = True
        for c_key, c_code, idx in sort_in_memory(
            c_keys, spec_c, stats, payloads=list(range(len(seg)))
        ):
            key, _in_code, payload = seg[idx]
            if first:
                off = spec_in.offset_of(seg_code)
                out_code = spec_out.code(off, spec_in.value_of(seg_code))
                first = False
            else:
                out_code = c_code
            yield seg_prefix + tuple(c_key), out_code, payload

    for key, code, payload in stream:
        if stats is not None:
            stats.rows_in += 1
        if seg and code < thresh:
            seg.append((key, code, payload))
            continue
        if seg:
            yield from flush()
        seg = [(key, code, payload)]
        seg_code = code
        seg_prefix = tuple(key[:seg_cols])
    if seg:
        yield from flush()


def segment_boundaries(
    stream: Iterable, spec: OvcSpec, seg_cols: int
) -> Iterator[tuple]:
    """Yield ``(is_boundary, key, code, payload)`` — the bare
    segmentation primitive (one integer test per row)."""
    thresh = spec.boundary_code(seg_cols)
    first = True
    for key, code, payload in stream:
        yield (first or code >= thresh), key, code, payload
        first = False
