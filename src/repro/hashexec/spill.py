"""Unsorted spill files: hash partitions as flat int64 Arrow columns.

The one unsorted kind of spill file in this repo (sorted runs are
``storage.columnar`` runs). A file holds named int64 columns and no
code column, since a hash partition is unsorted: the Grace operators
write key columns ``k0..k{K-1}`` and a payload column ``p`` (null for a
row without payload), the vectorized Figure 3 plans one column ``k``.
Every written row counts into ``stats.rows_spilled`` (the Figure 3
currency), so all plans pay the same per-row I/O cost. A spill file is
read once: reading it removes it. ``grace_fanout`` is the one choice of
the number of partitions F.
"""
from __future__ import annotations

import os
from contextlib import ExitStack
from typing import Iterable, Iterator

import numpy as np
import pyarrow as pa
import pyarrow.ipc as ipc

from repro.arrowbuf import exact_numpy
from repro.core.stats import CompareStats

_BATCH = 65536


def grace_fanout(memory_rows: int, n_hint: int | None) -> int:
    """Partitions for an input that overflowed ``memory_rows`` rows:
    enough for the cardinality hint (else four times a memory load plus
    one row) to fit a partition in memory, and at least two."""
    return max(2, -(-(n_hint or 4 * (memory_rows + 1)) // memory_rows))


def _write(writer: ipc.RecordBatchFileWriter, columns: dict,
           stats: CompareStats | None) -> None:
    table = pa.table({n: pa.array(c, type=pa.int64())
                      for n, c in columns.items()})
    writer.write_table(table)
    if stats is not None:
        stats.rows_spilled += table.num_rows


def write_spill(path: str, columns: dict[str, np.ndarray],
                stats: CompareStats | None = None) -> str:
    """Write ``columns`` (name -> int64 array) as one spill file at
    ``path``; returns ``path``."""
    schema = pa.schema([(n, pa.int64()) for n in columns])
    with ipc.new_file(path, schema) as writer:
        _write(writer, columns, stats)
    return path


def consume_spill(path: str) -> list[np.ndarray]:
    """The columns of a spill file, in order (``exact_numpy``); removes
    the file."""
    table = ipc.open_file(path).read_all()
    os.remove(path)
    return [exact_numpy(c) for c in table.columns]


def partition_to_disk(
    rows: Iterable[tuple],
    arity: int,
    n_parts: int,
    tmpdir: str,
    tag: str,
    stats: CompareStats | None = None,
) -> list[str]:
    """Hash-partition ``(key, payload)`` rows into ``n_parts`` spill
    files; returns their paths. A partition buffers at most ``_BATCH``
    rows before it is flushed. Counts one hash computation per key
    column per row (the N x K the paper notes hash plans always pay) and
    one spilled row per input row."""
    names = [f"k{i}" for i in range(arity)] + ["p"]
    schema = pa.schema([(n, pa.int64()) for n in names])
    paths = [os.path.join(tmpdir, f"{tag}-{p}.arrow") for p in range(n_parts)]
    os.makedirs(tmpdir, exist_ok=True)
    bufs: list[list[tuple]] = [[] for _ in range(n_parts)]
    with ExitStack() as stack:
        writers = [stack.enter_context(ipc.new_file(path, schema))
                   for path in paths]

        def flush(p: int) -> None:
            # One list per column: ``zip(*buf)`` would allocate a tracked
            # iterator per row and set the cyclic collector off.
            buf = bufs[p]
            _write(writers[p], {n: [r[i] for r in buf]
                                for i, n in enumerate(names)}, stats)
            buf.clear()

        for key, payload in rows:
            if stats is not None:
                stats.hash_ops += 1
                stats.col_accesses += arity
            p = hash(key) % n_parts
            bufs[p].append((*key, payload))
            if len(bufs[p]) >= _BATCH:
                flush(p)
        for p in range(n_parts):
            if bufs[p]:
                flush(p)
    return paths


def consume_partition(path: str) -> Iterator[tuple]:
    """A partition file's rows as ``(key, payload)``; removes the file."""
    *keys, pays = (c.tolist() for c in consume_spill(path))
    return zip(zip(*keys), pays)
