"""The one sorted-run file: LSM forest runs and external-sort spills.

A run stores K sort-key columns (int64, sorted lexicographically) with
run-length encoding per column plus int64 payload columns stored flat.
For sorted data the leading columns compress massively, and (Section
4.10) the RLE run starts double as OVC metadata:

    the offset of row i is the smallest column index whose RLE run
    starts at i (no such column: duplicate row, offset = K), and the
    value at that offset is that run's stored value.

So a scan reproduces, row by row, the offset-value codes that the sort
which created the run had computed — "practically for free", with zero
column value comparisons. ``scan_with_ovc`` returns those codes as
arrays, which ``core.ovc.merge_coded_runs`` consumes when an LSM forest
merges its runs, and ``core.runs.run_rows`` when an external sort
merges its spilled runs; ``scan`` keeps the payloads as the file's Arrow
columns, for the ``format("ovc")`` reader. ``ColumnarRun`` is the one
reader of run metadata for all three, and ``ColumnarRun.open`` reads
metadata and batch from one file open.

File layout: one Arrow IPC file holding a single record batch. Key
column ``k{i}`` is an Arrow ``run_end_encoded`` array, so only its run
values and run ends are stored; payload columns are flat int64, with
a null for a missing payload. Row count, arity, base and payload names
live in the schema metadata.
"""
from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.ipc as ipc

from repro.arrowbuf import exact_numpy, int64s
from repro.core.keys import sort_order
from repro.core.ovc import OvcSpec, pack_codes


class ColumnarRun:
    """A sorted, RLE-compressed run on disk."""

    def __init__(self, path: str, schema: pa.Schema | None = None) -> None:
        """``schema``: the file's, when the caller has read it already."""
        self.path = path
        if schema is None:
            with pa.OSFile(path, "rb") as f:
                schema = ipc.open_file(f).schema
        meta = json.loads(schema.metadata[b"repro"].decode())
        self.n_rows: int = meta["n_rows"]
        self.arity: int = meta["arity"]
        self.base: int = meta["base"]
        self.payload_names: list[str] = meta["payloads"]

    @classmethod
    def open(cls, path: str) -> tuple[ColumnarRun, pa.RecordBatch]:
        """The run at ``path`` and its record batch, from one file open."""
        with pa.OSFile(path, "rb") as f:
            reader = ipc.open_file(f)
            return cls(path, reader.schema), reader.get_batch(0)

    @property
    def spec(self) -> OvcSpec:
        return OvcSpec(self.arity, self.base)

    def _read(self, batch: pa.RecordBatch | None = None
              ) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict]:
        """``(values, run lengths)`` of every key column, and the Arrow
        payload columns, of ``batch`` (default: read from the file)."""
        if batch is None:
            batch = self.open(self.path)[1]
        runs = []
        for i in range(self.arity):
            col = batch.column(f"k{i}")
            runs.append((int64s(col.values),
                         np.diff(int64s(col.run_ends), prepend=0)))
        return runs, {m: batch.column(m) for m in self.payload_names}

    def read_columns(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Decode to (keys (n, K) int64, payload-column dict)."""
        runs, payloads = self._read()
        return np.column_stack([np.repeat(v, l) for v, l in runs]), \
            {m: exact_numpy(c) for m, c in payloads.items()}

    def scan(self, batch: pa.RecordBatch | None = None
             ) -> tuple[list[np.ndarray], np.ndarray, dict[str, pa.Array]]:
        """Return (key columns, codes, Arrow payload columns) of the run,
        or of ``batch``, its record batch from ``open``. Codes are
        derived from RLE run starts only — no value comparisons (see
        module docstring)."""
        runs, payloads = self._read(batch)
        n, k = self.n_rows, self.arity
        offsets = np.full(n, k, dtype=np.int64)
        values = np.zeros(n, dtype=np.int64)
        # Walk columns from last to first so the smallest column index
        # with a run start wins (it overwrites later columns' marks).
        for c in range(k - 1, -1, -1):
            v, l = runs[c]
            starts = np.cumsum(l) - l
            offsets[starts] = c
            values[starts] = v
        return ([np.repeat(v, l) for v, l in runs],
                pack_codes(offsets, values, self.spec), payloads)

    def scan_with_ovc(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """``scan`` as (keys (n, K) int64, codes, payload-column dict)."""
        cols, codes, payloads = self.scan()
        return np.column_stack(cols), codes, \
            {m: exact_numpy(c) for m, c in payloads.items()}

    def delete(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


def write_columnar_run(
    path: str,
    keys: np.ndarray,
    spec: OvcSpec,
    payloads: dict[str, np.ndarray] | None = None,
    assume_sorted: bool = False,
) -> ColumnarRun:
    """Write sorted keys (+ int64 payload columns, None a null) as an
    RLE columnar run.

    Keys must be lexicographically sorted ascending (checked with one
    stable ``sort_order`` unless ``assume_sorted``) and lie
    in ``[0, spec.base)`` (always checked: the scan's codes hold them).
    """
    import pyarrow.compute as pc  # not loaded by readers (Spark workers)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-D (n, arity) array")
    n, k = keys.shape
    if k != spec.arity:
        raise ValueError(f"key width {k} != arity {spec.arity}")
    spec.check_domain(keys)
    if not assume_sorted and (sort_order(keys) != np.arange(n)).any():
        raise ValueError("keys are not sorted")
    payloads = payloads or {}
    names = [f"k{i}" for i in range(k)]
    cols = [pc.run_end_encode(pa.array(keys[:, i]), run_end_type=pa.int64())
            for i in range(k)]
    for name, arr in payloads.items():
        if name in names:
            raise ValueError(f"payload name {name!r} is reserved")
        arr = pa.array(arr, type=pa.int64())
        if len(arr) != n:
            raise ValueError(f"payload {name} has wrong length")
        names.append(name)
        cols.append(arr)
    meta = {"n_rows": n, "arity": k, "base": spec.base,
            "payloads": list(payloads)}
    batch = pa.record_batch(cols, names=names).replace_schema_metadata(
        {b"repro": json.dumps(meta).encode()})
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with pa.OSFile(path, "wb") as sink:
        with ipc.new_file(sink, batch.schema) as writer:
            writer.write_batch(batch)
    return ColumnarRun(path)
