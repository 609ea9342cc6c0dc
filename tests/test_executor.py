"""The executor prologue: zip importers leave ``sys.path_importer_cache``
and imports from the archives keep working without re-reading them;
every entry point evicts again once its kernel has drained its input."""
import importlib
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pytest
from pyspark.sql.types import (
    BooleanType, LongType, StringType, StructField, StructType,
)

from repro.core.ovc import OvcSpec
from repro.executor import evict_zip_importers
from repro.sparkops.ovc_column import map_in_pandas
from repro.storage.columnar import ColumnarRun
from repro.storage.datasource import OvcReader
from repro.storage.lsm import LsmForest


def _zip_importers() -> list[str]:
    return [p for p, f in sys.path_importer_cache.items()
            if isinstance(f, zipimport.zipimporter)]


@pytest.fixture()
def zpkg(tmp_path, monkeypatch):
    """A package ``zpkg`` importable from a zip archive on sys.path."""
    archive = str(tmp_path / "zpkg.zip")
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zpkg/__init__.py", "")
        z.writestr("zpkg/first.py", "VALUE = 1\n")
        z.writestr("zpkg/second.py", "VALUE = 2\n")
    monkeypatch.syspath_prepend(archive)
    yield archive
    for name in ("zpkg", "zpkg.first", "zpkg.second"):
        sys.modules.pop(name, None)
    evict_zip_importers()


def test_evicted_archive_still_imports_without_a_reread(zpkg, monkeypatch):
    assert importlib.import_module("zpkg.first").VALUE == 1
    assert any(p.startswith(zpkg) for p in _zip_importers())
    evict_zip_importers()
    assert _zip_importers() == []
    reads, read = [], zipimport._read_directory
    monkeypatch.setattr(zipimport, "_read_directory",
                        lambda a: reads.append(a) or read(a))
    importlib.invalidate_caches()
    second = importlib.import_module("zpkg.second")
    assert second.VALUE == 2 and second.__file__.startswith(zpkg)
    assert reads == []  # rebuilt from zipimport's directory cache


class _Frame:
    """Stands in for a DataFrame: keeps the task ``map_in_pandas``
    hands to ``mapInPandas``, so it runs on the driver."""

    def mapInPandas(self, task, schema):
        self.task = task
        return self


def test_task_evicts_what_its_kernel_imported(zpkg):
    def kernel(batches):
        for pdf in batches:
            importlib.import_module("zpkg.first")  # an import mid-drain
            yield pdf

    task = map_in_pandas(_Frame(), kernel, None).task
    out = list(task(iter([pd.DataFrame({"x": [1]})] * 2)))
    assert len(out) == 2
    assert _zip_importers() == []


def test_reader_evicts_what_its_read_imported(zpkg, tmp_path, monkeypatch):
    forest = LsmForest(str(tmp_path / "forest"), OvcSpec(2))
    forest.ingest(np.array([[0, 1], [1, 0]]), np.array([5, 6]))
    scan = ColumnarRun.scan_with_ovc

    def importing_scan(run):
        importlib.import_module("zpkg.first")
        return scan(run)

    monkeypatch.setattr(ColumnarRun, "scan_with_ovc", importing_scan)
    reader = OvcReader(forest.root)
    batches = list(reader.read(reader.partitions()[0]))
    assert [b.num_rows for b in batches] == [2]
    assert _zip_importers() == []


def test_prologue_in_a_spark_worker(spark):
    # A pyspark submodule no task imports; each probe unloads it again.
    unloaded = "pyspark.instrumentation_utils"

    def probe(batches):
        # Nested, so that Spark ships it by value to the worker, where
        # it runs right after the prologue.
        left = sum(isinstance(f, zipimport.zipimporter)
                   for f in sys.path_importer_cache.values())
        reads, read = [], zipimport._read_directory

        def counted(archive):
            reads.append(archive)
            return read(archive)

        zipimport._read_directory = counted
        try:
            importlib.invalidate_caches()
            fresh = unloaded not in sys.modules
            mod = importlib.import_module(unloaded)
        finally:
            zipimport._read_directory = read
            sys.modules.pop(unloaded, None)
        for _ in batches:
            pass
        yield pd.DataFrame({"zip_importers": [left], "reads": [len(reads)],
                            "fresh": [fresh], "file": [mod.__file__]})

    schema = StructType([StructField("zip_importers", LongType()),
                         StructField("reads", LongType()),
                         StructField("fresh", BooleanType()),
                         StructField("file", StringType())])
    df = spark.range(4).repartition(4)
    rows = map_in_pandas(df, probe, schema).collect()
    assert len(rows) == 4
    for r in rows:
        assert r.zip_importers == 0 and r.reads == 0, r
        assert r.fresh and "pyspark.zip" in r.file, r
