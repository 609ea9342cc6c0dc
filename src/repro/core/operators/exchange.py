"""Section 4.9: order-preserving exchange (shuffle) over sorted streams.

A one-to-many ("splitting") exchange is a filter with respect to each
output partition: every partition's stream folds the codes of rows
routed elsewhere into its next row's code with max (Section 4.1).

A many-to-one ("merging") exchange is the standard merge logic: a
tree-of-losers priority queue maps the input streams' codes to output
codes, exactly like a merge step of an external sort.

Composing ``split`` then ``merge`` per partition re-partitions a sorted
stream while preserving order and codes end to end — this is the
simulation substrate for Spark's order-preserving shuffle (DESIGN.md
Section 2 explains why it lives here and not in a JVM exchange).
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from repro.core.operators.filterop import filter_stream
from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree


def split_stream(
    stream: Iterable,
    part_fn: Callable,
    n_parts: int,
    stats: CompareStats | None = None,
) -> list[list[tuple]]:
    """Route each row to partition ``part_fn(key, payload)``; every
    output partition is the input filtered to its rows (Section 4.1), so
    a sorted coded stream. Materializes the partitions (they would be
    network buffers in a real exchange)."""
    tagged = []
    for key, code, payload in stream:
        if stats is not None:
            stats.rows_in += 1
        p = part_fn(key, payload)
        if not 0 <= p < n_parts:
            raise ValueError(f"partition {p} out of range")
        tagged.append((key, code, (p, payload)))
    return [[(key, code, payload) for key, code, (_, payload) in
             filter_stream(tagged, lambda k, t, q=q: t[0] == q)]
            for q in range(n_parts)]


def merge_streams(
    streams: Sequence[Iterable],
    spec: OvcSpec,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Many-to-one merging exchange: tree-of-losers merge of sorted
    coded streams, producing output codes for free."""
    return iter(OvcLoserTree(list(streams), spec, stats))


def repartition(
    streams: Sequence[Iterable],
    part_fn: Callable,
    n_out: int,
    spec: OvcSpec,
    stats: CompareStats | None = None,
) -> list[Iterator[tuple]]:
    """Full order-preserving shuffle: split each of the sorted input
    streams by ``part_fn``, then merge, per output partition, the
    pieces received from every input — each output partition is again a
    sorted coded stream."""
    pieces: list[list[list[tuple]]] = [
        split_stream(s, part_fn, n_out, stats) for s in streams
    ]
    return [
        merge_streams([pieces[i][q] for i in range(len(streams))], spec, stats)
        for q in range(n_out)
    ]
