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

from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import BooleanType, LongType, StructField, StructType

from repro.core.ovc import DEFAULT_BASE, OvcSpec, encode_sorted_array

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


def attach_ovc(
    df: DataFrame,
    keys: Sequence[str],
    base: int = DEFAULT_BASE,
    partition_on: Sequence[str] | None = None,
    num_partitions: int | None = None,
) -> DataFrame:
    """Sort ``df`` on ``keys`` and add the per-partition ``_ovc`` column.

    ``partition_on`` (default: all of ``keys``) chooses the range-
    partitioning prefix; pass the group-by prefix when a downstream
    in-stream aggregation must see whole groups inside one partition.
    All key columns must be integral, non-null and in ``[0, base)``;
    the executors raise ``ValueError`` otherwise.
    """
    keys = list(keys)
    partition_on = list(partition_on) if partition_on else keys
    if not keys:
        raise ValueError("keys must be non-empty")
    if not set(partition_on) <= set(keys) or \
            partition_on != keys[: len(partition_on)]:
        raise ValueError("partition_on must be a prefix of keys")
    spec = OvcSpec(len(keys), base)
    parts = num_partitions or df.sparkSession.conf.get(
        "spark.sql.shuffle.partitions"
    )
    sdf = df.repartitionByRange(int(parts), *partition_on) \
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

    return sdf.mapInPandas(encode, out_schema)


def check_ovc(df: DataFrame, keys: Sequence[str],
              base: int = DEFAULT_BASE) -> bool:
    """Validate ``_ovc`` per partition against the vectorized encoder —
    a debugging/testing aid (collects per-partition results)."""
    spec = OvcSpec(len(keys), base)
    keys = list(keys)

    def verify(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rows = []
        for pdf in batches:
            rows.append(pdf)
        pdf = pd.concat(rows) if rows else None
        ok = True
        if pdf is not None and len(pdf):
            arr = key_array(pdf, keys)
            ok = bool(
                (encode_sorted_array(arr, spec) ==
                 pdf[OVC_COL].to_numpy(dtype=np.int64)).all()
            )
        yield pd.DataFrame({"ok": [ok]})

    res = df.mapInPandas(
        verify, StructType([StructField("ok", BooleanType())])
    )
    return all(r["ok"] for r in res.collect())
