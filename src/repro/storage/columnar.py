"""Sorted RLE columnar run format over the local filesystem.

A run stores K sort-key columns (int64, sorted lexicographically) with
run-length encoding per column plus an arbitrary number of int64
payload columns stored flat. For sorted data the leading columns
compress massively — and, crucially (Section 4.10), the RLE run starts
double as OVC metadata:

    the offset of row i is the smallest column index whose RLE run
    starts at i (no such column: duplicate row, offset = K), and the
    value at that offset is that run's stored value.

So a scan reproduces, row by row, the offset-value codes that the sort
which created the run had computed — "practically for free", with zero
column value comparisons. ``scan_with_ovc`` returns exactly those codes.

File layout: one Arrow IPC file holding a single record batch. Key
column ``k{i}`` is an Arrow ``run_end_encoded`` array, so only its run
values and run ends are stored; payload columns are flat int64. Row
count, arity, base and payload names live in the schema metadata.
"""
from __future__ import annotations

import json
import os
from typing import Iterator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.ipc as ipc

from repro.core.ovc import OvcSpec


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
        return runs, {m: batch.column(m).to_numpy()
                      for m in self.payload_names}

    def read_columns(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Decode to (keys (n, K) int64, payload-column dict)."""
        runs, payloads = self._read()
        return np.column_stack([np.repeat(v, l) for v, l in runs]), payloads

    def scan_with_ovc(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """Return (keys, codes, payloads). Codes are derived from RLE
        run starts only — no value comparisons (see module docstring)."""
        runs, payloads = self._read()
        n, k, base = self.n_rows, self.arity, self.base
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
        codes = np.where(offsets < k, (k - offsets) * base + values, 0)
        return keys, codes.astype(np.int64), payloads

    def iter_rows(self) -> Iterator[tuple]:
        """Row-at-a-time coded stream ``(key, code, payload0)`` —
        adapter for the tree-of-losers merge."""
        keys, codes, payloads = self.scan_with_ovc()
        pay = (payloads[self.payload_names[0]]
               if self.payload_names else np.full(len(keys), -1))
        for i in range(len(keys)):
            p = int(pay[i])
            yield tuple(int(x) for x in keys[i]), int(codes[i]), \
                None if p == -1 else p

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
    """Write sorted keys (+ payload columns) as an RLE columnar run.

    Keys must be lexicographically sorted ascending (checked with a
    vectorized first-difference test unless ``assume_sorted``).
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim != 2:
        raise ValueError("keys must be a 2-D (n, arity) array")
    n, k = keys.shape
    if k != spec.arity:
        raise ValueError(f"key width {k} != arity {spec.arity}")
    if not assume_sorted and n > 1:
        diff = keys[1:] != keys[:-1]
        first = np.where(diff.any(1), diff.argmax(1), 0)
        rows = np.flatnonzero(diff.any(1))
        if rows.size and not (
            keys[rows, first[rows]] < keys[rows + 1, first[rows]]
        ).all():
            raise ValueError("keys are not sorted")
    payloads = payloads or {}
    names = [f"k{i}" for i in range(k)]
    cols = [pc.run_end_encode(pa.array(keys[:, i]), run_end_type=pa.int64())
            for i in range(k)]
    for name, arr in payloads.items():
        if name in names:
            raise ValueError(f"payload name {name!r} is reserved")
        arr = np.asarray(arr, dtype=np.int64)
        if len(arr) != n:
            raise ValueError(f"payload {name} has wrong length")
        names.append(name)
        cols.append(pa.array(arr))
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


def compressed_key_cells(run: ColumnarRun) -> int:
    """Total stored RLE cells across key columns (values + run ends) —
    the compression metric reported in the storage benchmarks."""
    return sum(2 * len(v) for v, _ in run._read()[0])
