"""Grace hash join (the hash plan's join in Figures 2 and 3).

When either input exceeds the memory budget, BOTH inputs are hash-
partitioned to disk (each row of each input spilled once — the hash
plan's second spill pass in Figure 3), then each partition pair is
joined with an in-memory hash table on the build side. When the build
input fits, a single in-memory hash table is used and nothing spills.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.core.stats import CompareStats
from repro.hashexec.spill import partition_to_disk


def _join_in_memory(build: Iterable[tuple], probe: Iterable[tuple],
                    arity: int, stats: CompareStats | None) -> Iterator[tuple]:
    table: dict = {}
    for key, payload in build:
        if stats is not None:
            stats.hash_ops += 1
            stats.col_accesses += arity
        table.setdefault(key, []).append(payload)
    for key, payload in probe:
        if stats is not None:
            stats.hash_ops += 1
            stats.col_accesses += arity
        for b in table.get(key, ()):
            yield key, (b, payload)


def hash_join(
    build: Iterable[tuple],
    probe: Iterable[tuple],
    arity: int,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    n_build_hint: int | None = None,
    tag: str = "hjoin",
) -> Iterator[tuple]:
    """Inner equi-join of ``(key, payload)`` inputs on the full key.
    Yields ``(key, (build_payload, probe_payload))`` in hash order.
    """
    if memory_rows < 1:
        raise ValueError("memory_rows must be >= 1")
    bit = iter(build)
    if n_build_hint is None or n_build_hint > memory_rows:
        head = list(itertools.islice(bit, memory_rows + 1))
        if len(head) > memory_rows:
            n_parts = max(
                2, -(-(n_build_hint or len(head) * 4) // memory_rows)
            )
            b_parts = partition_to_disk(
                itertools.chain(head, bit), arity, n_parts, tmpdir,
                f"{tag}-b", stats
            )
            p_parts = partition_to_disk(
                probe, arity, n_parts, tmpdir, f"{tag}-p", stats
            )
            for bp, pp in zip(b_parts, p_parts):
                yield from _join_in_memory(((k, p) for k, _, p in bp),
                                           ((k, p) for k, _, p in pp),
                                           arity, stats)
                bp.delete()
                pp.delete()
            return
        bit = iter(head)
    yield from _join_in_memory(bit, probe, arity, stats)
