"""Correctness gates, run outside the timed region.

Each check returns a list of failure messages; an empty list passes.
Two kinds of check:

- result equality against DuckDB over the same generated inputs;
- a code-stream check: the ``_ovc`` codes of every output partition
  must equal a fresh ``encode_sorted_array`` over that partition's
  output keys (for the LSM forest: over each sorted ingest batch).
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.core.ovc import DEFAULT_BASE, OvcSpec, encode_sorted_array

PID = "_pid"


def duckdb_frame(sql: str, **tables: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def _sorted_rows(pdf: pd.DataFrame, cols: list[str]) -> np.ndarray:
    arr = pdf[cols].to_numpy(dtype=np.int64)
    return arr[np.lexsort(arr.T[::-1])] if len(arr) else arr


def same_rows(got: pd.DataFrame, expected: pd.DataFrame,
              cols: list[str]) -> list[str]:
    """Multiset equality of ``cols`` between the result and DuckDB's."""
    if len(got) != len(expected):
        return [f"row count {len(got)} != duckdb {len(expected)}"]
    a, b = _sorted_rows(got, cols), _sorted_rows(expected, cols)
    bad = np.flatnonzero((a != b).any(axis=1)) if len(a) else []
    if len(bad):
        return [f"{len(bad)} rows differ from duckdb, first {a[bad[0]]} "
                f"vs {b[bad[0]]}"]
    return []


def code_stream(keys: np.ndarray, codes: np.ndarray,
                base: int = DEFAULT_BASE) -> list[str]:
    """``codes`` of one sorted coded stream vs brute-force re-encoding."""
    if not len(keys):
        return []
    k = keys.shape[1]
    if k and len(keys) > 1:
        d = keys[1:] != keys[:-1]
        first = d.argmax(axis=1)
        rows = np.flatnonzero(d.any(axis=1))
        if (keys[rows, first[rows]] > keys[rows + 1, first[rows]]).any():
            return ["stream is not sorted"]
    want = encode_sorted_array(keys, OvcSpec(k, base))
    bad = np.flatnonzero(want != codes)
    if len(bad):
        return [f"{len(bad)} wrong codes, first at row {bad[0]}: "
                f"{codes[bad[0]]} != {want[bad[0]]}"]
    return []


def partition_codes(pdf: pd.DataFrame, keys: list[str],
                    base: int = DEFAULT_BASE) -> list[str]:
    """Per-partition code-stream check of a result collected with its
    ``_ovc`` column and ``spark_partition_id()`` as ``_pid``."""
    pids = pdf[PID].to_numpy()
    order = np.argsort(pids, kind="stable")
    pids = pids[order]
    karr = pdf[keys].to_numpy(dtype=np.int64)[order]
    codes = pdf["_ovc"].to_numpy(dtype=np.int64)[order]
    cuts = np.flatnonzero(pids[1:] != pids[:-1]) + 1
    errors = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(pids)]):
        errors += [f"partition {pids[lo]}: {e}"
                   for e in code_stream(karr[lo:hi], codes[lo:hi], base)]
    return errors
