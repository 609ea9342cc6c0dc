"""External hash aggregation (duplicate removal / grouping baseline).

Grace-style: when the input overflows one memory load (``memory_loads``),
ALL input rows are hash-partitioned to disk (one spill per row — this is
how the hash plan in Figure 3 pays its first spill pass), then each
partition is aggregated in memory. When the input fits, a single
in-memory hash table is used and nothing spills.

Memory is measured in rows, like the paper ("the memory for each
blocking operator is 10,000,000 rows").
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from repro.core.runs import memory_loads
from repro.core.stats import CompareStats
from repro.hashexec.spill import (consume_partition, grace_fanout,
                                  partition_to_disk)


def _agg_in_memory(rows: Iterable[tuple], agg: Callable, init: Callable,
                   arity: int, stats: CompareStats | None) -> dict:
    table: dict = {}
    for key, payload in rows:
        if stats is not None:
            stats.hash_ops += 1
            stats.col_accesses += arity
        if key in table:
            table[key] = agg(table[key], key, payload)
        else:
            table[key] = init(key, payload)
    return table


def hash_aggregate(
    rows: Iterable[tuple],
    arity: int,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    agg: Callable = lambda acc, k, p: acc + 1,
    init: Callable = lambda k, p: 1,
    n_input_hint: int | None = None,
    tag: str = "hagg",
) -> Iterator[tuple]:
    """Aggregate ``(key, payload)`` rows by full key; yields
    ``(key, accumulator)`` in arbitrary (hash) order.

    ``n_input_hint`` plays the role of the optimizer's cardinality
    estimate: with a hint <= memory_rows the operator stays in memory;
    otherwise it Grace-partitions as soon as the input overflows one
    memory load, spilling *every* input row (also the peeked ones) once.
    """
    fits, loads = memory_loads(rows, memory_rows)
    rows = itertools.chain.from_iterable(loads)
    if fits or (n_input_hint is not None and n_input_hint <= memory_rows):
        yield from _agg_in_memory(rows, agg, init, arity, stats).items()
        return
    # overflow: Grace-partition everything to disk, then aggregate
    # partition by partition in memory.
    for part in partition_to_disk(rows, arity,
                                  grace_fanout(memory_rows, n_input_hint),
                                  tmpdir, tag, stats):
        yield from _agg_in_memory(consume_partition(part), agg, init, arity,
                                  stats).items()


def hash_distinct(
    rows: Iterable[tuple],
    arity: int,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    n_input_hint: int | None = None,
    tag: str = "hdist",
) -> Iterator[tuple]:
    """Duplicate removal: yields ``(key, count)`` per distinct key."""
    return hash_aggregate(rows, arity, memory_rows, tmpdir, stats,
                          n_input_hint=n_input_hint, tag=tag)
