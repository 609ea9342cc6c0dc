"""Sorted runs on disk, and the memory-load rule that decides spilling.

An external sort spills each sorted memory load as a
``storage.columnar`` run, the file an LSM forest keeps: RLE key columns
and an int64 payload column ``p0`` (row ids or counts; None is null).
Codes are not stored: a run's RLE run starts give back each row's code
relative to its run predecessor with no column comparison (Section
4.10), so a re-read run is a stream ``OvcLoserTree`` merges directly.
The comparisons of run generation are kept on disk (Section 4.11).

``memory_loads`` is the spill rule of every Figure 3 blocking operator:
an input that fits in one load of ``memory_rows`` rows stays in memory.
"""
from __future__ import annotations

from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats
from repro.storage.columnar import ColumnarRun, write_columnar_run


def memory_loads(rows: Iterable, memory_rows: int
                 ) -> tuple[bool, Iterator[list]]:
    """``(fits, loads)``: whether ``rows`` fits in one memory load of
    ``memory_rows`` rows (decided by peeking ``memory_rows + 1`` rows),
    and the input cut into lists of ``memory_rows`` rows, in order;
    only the last load may be shorter, and none is empty."""
    if memory_rows < 1:
        raise ValueError("memory_rows must be >= 1")
    it = iter(rows)
    head = list(islice(it, memory_rows + 1))
    it = chain(head, it)
    return (len(head) <= memory_rows,
            iter(lambda: list(islice(it, memory_rows)), []))


def write_run(path: str, rows: Iterable[tuple], spec: OvcSpec,
              stats: CompareStats | None = None) -> ColumnarRun:
    """Write a sorted coded stream of ``(key, code, payload)`` rows to
    ``path`` as a columnar run; every row counts as spilled. The codes
    are dropped: ``run_rows`` derives them again from the file."""
    rows = list(rows)
    keys = np.array([r[0] for r in rows], np.int64).reshape(-1, spec.arity)
    run = write_columnar_run(path, keys, spec, {"p0": [r[2] for r in rows]},
                             assume_sorted=True)
    if stats is not None:
        stats.rows_spilled += run.n_rows
    return run


def run_rows(run: ColumnarRun) -> Iterator[tuple]:
    """The run as a coded stream of ``(key, code, payload)`` rows, codes
    relative to the run predecessor (the first primed)."""
    keys, codes, payloads = run.scan_with_ovc()
    return zip(map(tuple, keys.tolist()), codes.tolist(),
               payloads["p0"].tolist())
