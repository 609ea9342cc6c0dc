"""Partitioned spill files for hash operators.

Rows are hash-partitioned into F run files of ``repro.core.runs`` (the
one spill-file format in this repo) with code 0, since hash partitions
are unsorted; every written row counts into ``stats.rows_spilled`` (the
Figure 3 currency). Both plans therefore pay the same per-row I/O cost.
Reading a partition back yields ``(key, code, payload)``; the hash
operators drop the code. ``grace_fanout`` is the one choice of F.
"""
from __future__ import annotations

import os
from typing import Iterable

from repro.core.ovc import OvcSpec
from repro.core.runs import RunFile, RunWriter
from repro.core.stats import CompareStats


def grace_fanout(memory_rows: int, n_hint: int | None) -> int:
    """Partitions for an input that overflowed ``memory_rows`` rows:
    enough for the cardinality hint (else four times a memory load plus
    one row) to fit a partition in memory, and at least two."""
    return max(2, -(-(n_hint or 4 * (memory_rows + 1)) // memory_rows))


def partition_to_disk(
    rows: Iterable[tuple],
    arity: int,
    n_parts: int,
    tmpdir: str,
    tag: str,
    stats: CompareStats | None = None,
) -> list[RunFile]:
    """Hash-partition all rows into ``n_parts`` spill files. Counts one
    hash computation per key column per row (the N x K the paper notes
    hash plans always pay) and one spilled row per input row."""
    spec = OvcSpec(arity)
    writers = [
        RunWriter(os.path.join(tmpdir, f"{tag}-{p}.arrow"), spec, stats)
        for p in range(n_parts)
    ]
    for key, payload in rows:
        if stats is not None:
            stats.hash_ops += 1
            stats.col_accesses += arity
        writers[hash(key) % n_parts].write(key, 0, payload)
    return [w.close() for w in writers]
