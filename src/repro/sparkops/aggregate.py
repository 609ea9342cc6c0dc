"""In-stream grouping/aggregation and duplicate removal over ``_ovc``.

These operators require their input to be a coded stream per partition
with every group inside one partition: ``attach_ovc(df, keys,
partition_on=keys[:G])``, or on the full key a ``merge_join_ovc``
output. Group boundaries are then detected with ONE integer comparison
per row (``boundary_mask``) — the Figure 1 fast path — and each
aggregate is one numpy ``reduceat`` over the group starts. Output rows
keep the code of their group's first input row re-based to the group
arity, so downstream operators can keep consuming codes.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.ovc import OvcSpec, boundary_mask, rebase_codes
from repro.sparkops.ovc_column import (OVC_COL, check_integral_keys,
                                       key_array, map_in_arrow,
                                       whole_partition)

_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}
_AGGS = {"count", *_UFUNCS}


def instream_aggregate(
    df: DataFrame,
    keys: Sequence[str],
    group_cols: int,
    aggs: Mapping[str, tuple[str, str]],
) -> DataFrame:
    """Aggregate a coded stream on the leading ``group_cols`` of
    ``keys``. ``aggs`` maps output column -> (input column | "*", one of
    count/sum/min/max); a column's count is SQL ``count(col)``, its
    non-null values. Output: group key columns, aggregates, ``_ovc``
    (arity ``group_cols``). Raises ``ValueError`` here unless every
    source is an input column and the keys, ``_ovc`` and every
    sum/min/max source are integral.
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
        if src != "*" and src not in df.columns:
            raise ValueError(f"aggregate source {src!r} is not a column")
    check_integral_keys(keys + [OVC_COL] + [
        src for src, how in aggs.values() if how != "count"], df)
    fields = [StructField(c, LongType()) for c in gcols]
    fields += [StructField(c, LongType()) for c in aggs]
    fields.append(StructField(OVC_COL, LongType(), False))
    out_schema = StructType(fields)

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[dict]:
        data = whole_partition(batches)
        if not len(data):
            return
        codes = key_array(data, [OVC_COL])[:, 0]
        bounds = boundary_mask(codes, spec, group_cols)
        bounds[0] = True  # partition's first row starts its group
        starts = np.flatnonzero(bounds)
        out = {c: data[c].take(starts) for c in gcols}
        for out_col, (src, how) in aggs.items():
            if how == "count":  # rows for "*", else non-null values
                ones = np.ones(len(data), np.int64) if src == "*" else \
                    data[src].is_valid().to_numpy().astype(np.int64)
                out[out_col] = np.add.reduceat(ones, starts)
            elif data[src].null_count:  # int64 would turn it into garbage
                raise ValueError(f"null value in aggregated column {src!r}")
            else:
                out[out_col] = _UFUNCS[how].reduceat(
                    data[src].to_numpy().astype(np.int64), starts)
        out[OVC_COL] = rebase_codes(codes[bounds], spec, group_cols)
        yield out

    return map_in_arrow(df, run, out_schema)


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

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[dict]:
        data = whole_partition(batches)
        if not len(data):
            return
        codes = key_array(data, [OVC_COL])[:, 0]
        keep = boundary_mask(codes, spec, spec.arity)
        keep[0] = True
        out = {c: data[c].filter(keep) for c in data.column_names}
        if count_col:
            starts = np.flatnonzero(keep)
            out[count_col] = np.diff(np.append(starts, len(keep)))
        yield out

    return map_in_arrow(df, run, out_schema)
