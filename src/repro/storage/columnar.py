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
merges its spilled runs. ``ColumnarRun`` is the one reader of run
metadata for both.

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

from repro.core.keys import sort_order
from repro.core.ovc import OvcSpec, pack_codes


def exact_numpy(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """An int64 column as numpy: int64, or object (ints and None) when
    it holds a null, where ``to_numpy`` would round every value through
    float64."""
    if not col.null_count:
        return col.to_numpy()
    out = col.fill_null(0).to_numpy().astype(object)
    out[np.asarray(col.is_null())] = None
    return out


class ColumnarRun:
    """A sorted, RLE-compressed run on disk."""

    def __init__(self, path: str) -> None:
        self.path = path
        with pa.OSFile(path, "rb") as f:
            reader = ipc.open_file(f)
            meta = json.loads(reader.schema.metadata[b"repro"].decode())
        self.n_rows: int = meta["n_rows"]
        self.arity: int = meta["arity"]
        self.base: int = meta["base"]
        self.payload_names: list[str] = meta["payloads"]

    @property
    def spec(self) -> OvcSpec:
        return OvcSpec(self.arity, self.base)

    def _read(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict]:
        """``(values, run lengths)`` of every key column, and the
        payload-column dict."""
        with pa.OSFile(self.path, "rb") as f:
            batch = ipc.open_file(f).get_batch(0)
        runs = []
        for i in range(self.arity):
            col = batch.column(f"k{i}")
            runs.append((col.values.to_numpy(),
                         np.diff(col.run_ends.to_numpy(), prepend=0)))
        return runs, {m: exact_numpy(batch.column(m))
                      for m in self.payload_names}

    def read_columns(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Decode to (keys (n, K) int64, payload-column dict)."""
        runs, payloads = self._read()
        return np.column_stack([np.repeat(v, l) for v, l in runs]), payloads

    def scan_with_ovc(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """Return (keys, codes, payloads). Codes are derived from RLE
        run starts only — no value comparisons (see module docstring)."""
        runs, payloads = self._read()
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
        keys = np.column_stack([np.repeat(v, l) for v, l in runs])
        return keys, pack_codes(offsets, values, self.spec), payloads

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
