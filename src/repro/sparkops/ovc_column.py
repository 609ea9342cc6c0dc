"""The artificial ``_ovc`` column: per-partition scan encoding.

``attach_ovc`` produces a DataFrame that is range-partitioned on a
prefix of the sort key and sorted on the full key within partitions;
each executor then derives the ascending offset-value code of every row
relative to its predecessor *in the same partition* with the vectorized
encoder (``repro.core.ovc.encode_sorted_array``) — one numpy pass, no
Python-level comparisons. Because Spark's range partitioner assigns
equal partition-key values to the same partition, the per-partition
coded streams compose into one globally ordered stream.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import IntegralType, LongType, StructField, StructType

from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.executor import evict_zip_importers, prologue

OVC_COL = "_ovc"


def key_array(pdf: pd.DataFrame, keys: Sequence[str]) -> np.ndarray:
    """The key columns of one batch as an (n, len(keys)) int64 array.

    Raises ``ValueError`` on a null key: the int64 cast would turn it
    into a garbage value that no code domain holds.
    """
    cols = pdf[list(keys)]
    if cols.isna().to_numpy().any():
        raise ValueError(f"null value in key columns {list(keys)}")
    return cols.to_numpy(dtype=np.int64)


def check_integral_keys(keys: Sequence[str], *dfs: DataFrame) -> None:
    """Raise ``ValueError`` from the schemas alone, before any job, unless
    every column ``keys`` names is in each of ``dfs`` and integral: a
    kernel's int64 cast would truncate a fractional value with no error
    (1.2 would equal 1.7)."""
    for df in dfs:
        types = {f.name: f.dataType for f in df.schema.fields}
        bad = [k for k in keys if not isinstance(types.get(k), IntegralType)]
        if bad:
            raise ValueError(f"columns {bad} are missing or not integral")


def default_partitions(df: DataFrame) -> int:
    """An omitted ``num_partitions``: one wave of Python tasks."""
    return df.sparkSession.sparkContext.defaultParallelism


def whole_partition(batches: Iterator[pd.DataFrame]) -> pd.DataFrame:
    """One partition's Arrow batches as one frame (empty if none), for
    kernels that need a whole partition: memory grows with its size."""
    parts = list(batches)
    return pd.concat(parts, ignore_index=True) if parts else pd.DataFrame()


def map_in_pandas(df: DataFrame, kernel: Callable, schema: StructType
                  ) -> DataFrame:
    """``df.mapInPandas(kernel, schema)`` with ``prologue`` run before the
    kernel in every task and ``evict_zip_importers`` after it: how each
    sparkops kernel enters a worker. The kernel imports more of an
    archive while it drains its batches; the eviction after it spares
    the worker's next task from re-reading those importers."""
    def task(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        prologue()
        yield from kernel(batches)
        evict_zip_importers()
    return df.mapInPandas(task, schema)


def attach_ovc(
    df: DataFrame,
    keys: Sequence[str],
    partition_on: Sequence[str] | None = None,
    num_partitions: int | None = None,
) -> DataFrame:
    """Sort ``df`` on ``keys`` and add the per-partition ``_ovc`` column.

    ``partition_on`` (default: all of ``keys``) chooses the range-
    partitioning prefix; pass the group-by prefix when a downstream
    in-stream aggregation must see whole groups inside one partition.
    Key columns that are not integral, and a ``df`` that already has an
    ``_ovc`` column, raise ``ValueError`` here; the executors raise it
    on a null key or one outside ``[0, 2**32)``.
    """
    keys = list(keys)
    partition_on = list(partition_on) if partition_on else keys
    if not keys:
        raise ValueError("keys must be non-empty")
    if not set(partition_on) <= set(keys) or \
            partition_on != keys[: len(partition_on)]:
        raise ValueError("partition_on must be a prefix of keys")
    if OVC_COL in df.columns:
        raise ValueError(f"input already has a {OVC_COL!r} column")
    check_integral_keys(keys, df)
    spec = OvcSpec(len(keys))
    parts = num_partitions or default_partitions(df)
    sdf = df.repartitionByRange(parts, *partition_on) \
            .sortWithinPartitions(*keys)
    out_schema = StructType(
        sdf.schema.fields + [StructField(OVC_COL, LongType(), False)]
    )

    def encode(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        prev_key = None  # carries across Arrow batches of one partition
        for pdf in batches:
            arr = key_array(pdf, keys)
            codes = encode_sorted_array(arr, spec, prev_key=prev_key)
            if len(arr):
                prev_key = tuple(int(x) for x in arr[-1])
            out = pdf.copy()
            out[OVC_COL] = codes
            yield out

    return map_in_pandas(sdf, encode, out_schema)
