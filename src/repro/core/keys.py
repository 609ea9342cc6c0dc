"""Key tuples, counted lexicographic comparison, brute-force OVC.

A *key* is a tuple of non-negative ints, one per sort column, all
strictly below the domain ``base`` of the active :class:`~repro.core.ovc.OvcSpec`.
The brute-force encoders here are the ground truth that property tests
check every operator's derived codes against.
"""
from __future__ import annotations

from typing import Sequence

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
