"""In-stream grouping/aggregation and duplicate removal over ``_ovc``.

These operators require their input to be a coded stream per partition
with every group inside one partition: ``attach_ovc(df, keys,
partition_on=keys[:G])``, or on the full key a ``merge_join_ovc``
output. Group boundaries are then detected with ONE integer comparison
per row (``boundary_mask``) — the Figure 1 fast path — and the
aggregation itself is a vectorized pandas groupby over the derived
group ids. Output rows keep the code of their group's first input row
re-based to the group arity, so downstream operators can keep
consuming codes.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.ovc import OvcSpec, boundary_mask, rebase_codes
from repro.sparkops.ovc_column import (OVC_COL, check_integral_keys,
                                       map_in_pandas, whole_partition)

_AGGS = {"count", "sum", "min", "max"}


def instream_aggregate(
    df: DataFrame,
    keys: Sequence[str],
    group_cols: int,
    aggs: Mapping[str, tuple[str, str]],
) -> DataFrame:
    """Aggregate a coded stream on the leading ``group_cols`` of
    ``keys``. ``aggs`` maps output column -> (input column | "*", one of
    count/sum/min/max). Output: group key columns, aggregates, ``_ovc``
    (arity ``group_cols``). Raises ``ValueError`` here unless the keys,
    ``_ovc`` and every sum/min/max source are integral input columns.
    """
    keys = list(keys)
    spec = OvcSpec(len(keys))
    if not 1 <= group_cols <= len(keys):
        raise ValueError("group_cols out of range")
    gcols = keys[:group_cols]
    for out_col, (src, how) in aggs.items():
        if out_col in gcols + [OVC_COL]:
            raise ValueError(f"aggregate {out_col!r} names an output column")
        if how not in _AGGS:
            raise ValueError(f"unsupported aggregate {how!r}")
        if how != "count" and src == "*":
            raise ValueError("column required for non-count aggregates")
    check_integral_keys(keys + [OVC_COL] + [
        src for src, how in aggs.values() if how != "count"], df)
    fields = [StructField(c, LongType()) for c in gcols]
    fields += [StructField(c, LongType()) for c in aggs]
    fields.append(StructField(OVC_COL, LongType(), False))
    out_schema = StructType(fields)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pdf = whole_partition(batches)
        if not len(pdf):
            return
        codes = pdf[OVC_COL].to_numpy(dtype=np.int64)
        bounds = boundary_mask(codes, spec, group_cols)
        bounds[0] = True  # partition's first row starts its group
        starts = np.flatnonzero(bounds)
        out = pdf.loc[bounds, gcols].reset_index(drop=True)
        for out_col, (src, how) in aggs.items():
            if how == "count":
                out[out_col] = np.diff(np.append(starts, len(pdf)))
            else:
                if pdf[src].isna().any():
                    # the int64 cast would turn a null into garbage
                    raise ValueError(f"null value in aggregated column {src!r}")
                col = pdf[src].to_numpy(dtype=np.int64)
                ufunc = {"sum": np.add, "min": np.minimum,
                         "max": np.maximum}[how]
                out[out_col] = ufunc.reduceat(col, starts)
        out[OVC_COL] = rebase_codes(codes[bounds], spec, group_cols)
        yield out

    return map_in_pandas(df, run, out_schema)


def instream_distinct(
    df: DataFrame,
    keys: Sequence[str],
    count_col: str | None = None,
) -> DataFrame:
    """Duplicate removal on the full key (Section 4.4): suppress rows
    with the duplicate code; survivors keep their codes. Optionally
    adds a duplicate count column, named unlike every input column.
    Raises ``ValueError`` here unless keys and ``_ovc`` are integral."""
    keys = list(keys)
    spec = OvcSpec(len(keys))
    check_integral_keys(keys + [OVC_COL], df)
    if count_col in df.columns:
        raise ValueError(f"count column {count_col!r} names an input column")
    out_fields = list(df.schema.fields)
    if count_col:
        out_fields = [f for f in out_fields if f.name != OVC_COL]
        out_fields.append(StructField(count_col, LongType(), False))
        out_fields.append(StructField(OVC_COL, LongType(), False))
    out_schema = StructType(out_fields)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        pdf = whole_partition(batches)
        if not len(pdf):
            return
        codes = pdf[OVC_COL].to_numpy(dtype=np.int64)
        keep = boundary_mask(codes, spec, spec.arity)
        keep[0] = True
        out = pdf.loc[keep].reset_index(drop=True)
        if count_col:
            gid = np.cumsum(keep) - 1
            counts = np.bincount(gid, minlength=int(keep.sum()))
            ovc = out.pop(OVC_COL)
            out[count_col] = counts
            out[OVC_COL] = ovc
        yield out

    return map_in_pandas(df, run, out_schema)
