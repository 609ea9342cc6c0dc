"""Section 4.4: in-stream duplicate removal.

In a sorted OVC-coded stream a duplicate is exactly a row whose offset
equals the arity (duplicate code), so the groups ``coded_groups`` cuts
on the full key are the duplicate groups; emitting each group's first
row with its code unchanged is the whole operator. Since a dropped
duplicate's code 0 is neutral under max, the filter rule of
Section 4.1 degenerates to "keep the code as is". In-sort duplicate
removal (``external_sort(dedup=True)``) runs the same loop.
"""
from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.core.ovc import OvcSpec, coded_groups
from repro.core.stats import CompareStats


def dedup_stream(
    stream: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
    payload: Callable[[list], Any] | None = None,
) -> Iterator[tuple]:
    """Drop rows with the duplicate code. The surviving row keeps its
    payload, or gets ``payload(group)`` over the ``(key, code,
    payload)`` rows of its duplicate group: ``len`` counts them."""
    for group in coded_groups(stream, spec, spec.arity):
        key, code, first = group[0]
        if stats is not None:
            stats.rows_in += len(group)
            stats.rows_out += 1
        yield key, code, first if payload is None else payload(group)
