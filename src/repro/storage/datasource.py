"""PySpark Python DataSource for the OVC columnar format.

Registers a batch reader under the short name ``ovc``: each Spark input
partition maps to one columnar run of an :class:`LsmForest` directory,
and executors reconstruct rows *and their offset-value codes* from the
RLE metadata alone (``ColumnarRun.scan``) — the per-partition
"encoding/decoding scheme applied during columnar scan within Spark
executors" of the repro brief, surfaced to SQL as an ``_ovc`` column.

Usage::

    spark.dataSource.register(OvcDataSource)
    df = (spark.read.format("ovc")
          .option("path", "/tmp/forest").load())
    # df columns: k0..k{K-1}, payload columns, _ovc

Because each run is sorted, every Spark partition of the resulting
DataFrame is a sorted coded stream; a merging exchange (or
``sparkops``' per-partition operators after a range repartition) can
consume the codes downstream.
"""
from __future__ import annotations

import os

import pyarrow as pa
from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition
from pyspark.sql.types import LongType, StructField, StructType

from repro.arrowbuf import int64_array
from repro.executor import evict_zip_importers, prologue
from repro.storage.columnar import ColumnarRun


def _run_paths(path: str) -> list[str]:
    """The run paths of an LSM directory, or a single run file; every
    run shares the first's arity and payload names."""
    if os.path.isdir(path):
        runs = sorted(
            os.path.join(path, n) for n in os.listdir(path)
            if n.endswith(".run")
        )
    else:
        runs = [path]
    if not runs:
        raise ValueError(f"no .run files under {path}")
    return runs


class OvcDataSource(DataSource):
    """``spark.read.format("ovc").option("path", dir).load()``."""

    @classmethod
    def name(cls) -> str:
        return "ovc"

    def schema(self) -> StructType:
        path = self.options.get("path")
        if not path:
            raise ValueError("ovc data source requires option 'path'")
        run = ColumnarRun(_run_paths(path)[0])
        fields = [StructField(f"k{i}", LongType()) for i in range(run.arity)]
        fields += [StructField(n, LongType()) for n in run.payload_names]
        fields.append(StructField("_ovc", LongType()))
        return StructType(fields)

    def reader(self, schema: StructType) -> "OvcReader":
        return OvcReader(self.options["path"])


class OvcReader(DataSourceReader):
    """One input partition per columnar run, read as one Arrow record
    batch; rows carry their scan OVC."""

    def __init__(self, path: str) -> None:
        self.runs = _run_paths(path)

    def __setstate__(self, state: dict) -> None:
        # A task unpickles its reader before reading its partition's bytes.
        self.__dict__.update(state)
        prologue()

    def partitions(self) -> list[InputPartition]:
        return [InputPartition(p) for p in self.runs]

    def read(self, partition: InputPartition):
        # Runs on executors: one file open, one Arrow batch out. Keys and
        # codes are decoded from the RLE runs with zero key comparisons;
        # payload columns pass through as the file's Arrow arrays.
        run, batch = ColumnarRun.open(partition.value)
        keys, codes, payloads = run.scan(batch)
        yield pa.RecordBatch.from_arrays(
            [*map(int64_array, keys), *payloads.values(), int64_array(codes)],
            names=[f"k{i}" for i in range(run.arity)] + run.payload_names
            + ["_ovc"])
        evict_zip_importers()  # importers the read added since
