"""PySpark Python DataSource for the OVC columnar format.

Registers a batch reader under the short name ``ovc``: each Spark input
partition maps to one columnar run of an :class:`LsmForest` directory,
and executors reconstruct rows *and their offset-value codes* from the
RLE metadata alone (``ColumnarRun.scan_with_ovc``) — the per-partition
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

import json
import os

from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition
from pyspark.sql.types import LongType, StructField, StructType


def _forest_meta(path: str) -> tuple[list[str], int, list[str]]:
    """(run paths, arity, payload names) for an LSM directory or a
    single run file."""
    import pyarrow as pa
    import pyarrow.ipc as ipc

    if os.path.isdir(path):
        runs = sorted(
            os.path.join(path, n) for n in os.listdir(path)
            if n.endswith(".run")
        )
    else:
        runs = [path]
    if not runs:
        raise ValueError(f"no .run files under {path}")
    with pa.OSFile(runs[0], "rb") as f:
        meta = json.loads(
            ipc.open_file(f).schema.metadata[b"repro"].decode()
        )
    return runs, meta["arity"], meta["payloads"]


class OvcDataSource(DataSource):
    """``spark.read.format("ovc").option("path", dir).load()``."""

    @classmethod
    def name(cls) -> str:
        return "ovc"

    def schema(self) -> StructType:
        path = self.options.get("path")
        if not path:
            raise ValueError("ovc data source requires option 'path'")
        _, arity, payload_names = _forest_meta(path)
        fields = [StructField(f"k{i}", LongType()) for i in range(arity)]
        fields += [StructField(n, LongType()) for n in payload_names]
        fields.append(StructField("_ovc", LongType()))
        return StructType(fields)

    def reader(self, schema: StructType) -> "OvcReader":
        return OvcReader(self.options["path"])


class OvcReader(DataSourceReader):
    """One input partition per columnar run, read as one Arrow record
    batch; rows carry their scan OVC."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.runs, self.arity, self.payload_names = _forest_meta(path)

    def partitions(self) -> list[InputPartition]:
        return [InputPartition(p) for p in self.runs]

    def read(self, partition: InputPartition):
        # Runs on executors: decode one run into one Arrow batch; zero
        # key comparisons, no per-row Python.
        import pyarrow as pa

        from repro.storage.columnar import ColumnarRun

        run = ColumnarRun(partition.value)
        keys, codes, payloads = run.scan_with_ovc()
        names = [f"k{i}" for i in range(self.arity)]
        cols = [keys[:, i] for i in range(self.arity)]
        names += self.payload_names + ["_ovc"]
        cols += [payloads[n] for n in self.payload_names] + [codes]
        yield pa.RecordBatch.from_arrays([pa.array(c) for c in cols],
                                         names=names)
