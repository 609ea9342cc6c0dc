"""Key tuples, counted lexicographic comparison, normalized-key sort.

Keys are tuples of signed ints, one per sort column; only code-forming
paths need every value in ``[0, base)`` of an :class:`~repro.core.ovc.OvcSpec`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.stats import CompareStats

Key = tuple


def compare_keys(a: Sequence, b: Sequence, stats: CompareStats | None = None,
                 start: int = 0) -> int:
    """Lexicographic compare from column ``start`` on, counting column
    comparisons into ``stats``. Returns <0, 0, >0 like a C comparator."""
    n = len(a)
    for j in range(start, n):
        if stats is not None:
            stats.col_cmps += 1
        if a[j] != b[j]:
            return -1 if a[j] < b[j] else 1
    return 0


def shared_prefix(a: Sequence, b: Sequence) -> int:
    """pre(A, B): length of the maximal shared prefix of two keys."""
    p = 0
    for x, y in zip(a, b):
        if x != y:
            break
        p += 1
    return p


def sort_order(keys: np.ndarray) -> np.ndarray:
    """Stable permutation sorting the rows of an (n, K) int64 array
    lexicographically, equal to ``np.lexsort(keys.T[::-1])``, on
    normalized keys (Section 3): columns biased by their minimum, packed
    into the fewest and narrowest unsigned words, one lexsort pass each."""
    keys = np.asarray(keys, dtype=np.int64)
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    words = [[]]  # per word: the (column, min, bits) it holds
    for col in keys.T:
        lo = int(col.min())
        bits = (int(col.max()) - lo).bit_length()
        if sum(b for *_, b in words[-1]) + bits > 64:
            words.append([])
        words[-1].append((col, lo, bits))
    packed = []
    for word in reversed(words):
        dtype = np.min_scalar_type((1 << sum(b for *_, b in word)) - 1).type
        packed.append(np.zeros(len(keys), dtype))
        for col, lo, bits in word:  # wrapping is exact: col - lo < 2**bits
            packed[-1] <<= dtype(bits)
            packed[-1] |= (col - lo).astype(dtype)
    return np.lexsort(packed)
