"""Section 4.1: filter over a sorted, OVC-coded stream.

An output row's ascending code is the fold (max) of its own input code
and the codes of every row dropped since the previous output row — a
direct application of the Section 4 lemma, with no column comparisons.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.stats import CompareStats


def filter_stream(
    stream: Iterable,
    predicate: Callable,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Yield rows for which ``predicate(key, payload)`` holds, with
    output OVCs derived by folding dropped rows' codes with max."""
    pending: int | None = None
    for key, code, payload in stream:
        if stats is not None:
            stats.rows_in += 1
        if pending is not None:
            code = max(code, pending)
        if predicate(key, payload):
            if stats is not None:
                stats.rows_out += 1
            yield key, code, payload
            pending = None
        else:
            pending = code


def filter_codes_vectorized(codes: np.ndarray, keep: np.ndarray
                            ) -> np.ndarray:
    """Vectorized variant for columnar batches: given all input codes
    and a boolean keep-mask, return the codes of the kept rows.

    Uses a running maximum over the maximal dropped gap before each kept
    row (``np.maximum.accumulate`` segmented by the kept positions).
    """
    codes = np.asarray(codes, dtype=np.int64)
    keep = np.asarray(keep, dtype=bool)
    if codes.shape != keep.shape:
        raise ValueError("codes and keep must have the same shape")
    if codes.size == 0 or not keep.any():
        return np.zeros(0, dtype=np.int64)
    # Kept row i's output code is max(codes[prev_kept+1 .. i]) — the
    # dropped gap before it plus itself. With kept positions kp, segment
    # i spans [kp[i-1]+1, kp[i]], which is exactly reduceat over starts
    # [0, kp[0]+1, kp[1]+1, ...] on the array truncated after kp[-1]
    # (trailing dropped rows belong to no output row).
    kp = np.flatnonzero(keep)
    starts = np.concatenate(([0], kp[:-1] + 1))
    return np.maximum.reduceat(codes[: kp[-1] + 1], starts).astype(np.int64)
