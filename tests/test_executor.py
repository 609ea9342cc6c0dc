"""The executor prologue: zip importers leave ``sys.path_importer_cache``
and imports from the archives keep working without re-reading them;
every entry point evicts again once its kernel has drained its input.
The prologue also sets ``TCP_QUICKACK`` on TCP sockets only, opening and
closing no descriptor, and freezes the heap alive as a task starts,
with no growth from task to task."""
import gc
import importlib
import os
import pickle
import socket
import sys
import zipfile
import zipimport
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pytest
from pyspark import cloudpickle
from pyspark.sql.types import (
    BooleanType, LongType, StringType, StructField, StructType,
)

from repro import executor
from repro.core.ovc import OvcSpec
from repro.executor import evict_zip_importers, prologue
from repro.sparkops.ovc_column import map_in_arrow
from repro.storage.columnar import ColumnarRun
from repro.storage.datasource import OvcReader
from repro.storage.lsm import LsmForest


@pytest.fixture(autouse=True)
def _unfreeze():
    """Tests that run the prologue here freeze the test process's heap."""
    yield
    gc.unfreeze()


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
    """Stands in for a DataFrame: keeps the task ``map_in_arrow``
    hands to ``mapInArrow``, so it runs on the driver."""

    def mapInArrow(self, task, schema):
        self.task = task
        return self


def test_task_evicts_what_its_kernel_imported(zpkg):
    def kernel(batches):
        for batch in batches:
            importlib.import_module("zpkg.first")  # an import mid-drain
            yield {"x": batch["x"]}

    schema = StructType([StructField("x", LongType())])
    task = map_in_arrow(_Frame(), kernel, schema).task
    out = list(task(iter([pa.record_batch({"x": [1]})] * 2)))
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


def test_unpickled_reader_runs_the_prologue_once(tmp_path, monkeypatch):
    forest = LsmForest(str(tmp_path / "forest"), OvcSpec(1))
    forest.ingest(np.array([[0], [1]]), np.array([5, 6]))
    calls = []
    monkeypatch.setattr("repro.storage.datasource.prologue",
                        lambda: calls.append(1))
    reader = OvcReader(forest.root)
    blob = cloudpickle.dumps(reader)  # as PySpark ships it
    assert calls == []
    copy = pickle.loads(blob)
    assert calls == [1]
    assert copy.runs == reader.runs
    list(copy.read(copy.partitions()[0]))
    assert calls == [1]  # the read itself runs no second prologue


def _open_fds() -> set[str]:
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd")
                         and hasattr(socket, "TCP_QUICKACK")),
                    reason="needs /proc/self/fd and TCP_QUICKACK")
def test_prologue_sets_quickack_on_tcp_only(monkeypatch):
    server = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(server.getsockname())
    conn, _ = server.accept()
    left, right = socket.socketpair(socket.AF_UNIX)
    quick = []
    setsockopt = socket.socket.setsockopt

    def recording(sock, level, opt, value):
        if (level, opt) == (socket.IPPROTO_TCP, socket.TCP_QUICKACK):
            quick.append(sock.fileno())
        return setsockopt(sock, level, opt, value)

    monkeypatch.setattr(socket.socket, "setsockopt", recording)
    try:
        before = _open_fds()
        prologue()
        assert _open_fds() == before
        assert {client.fileno(), conn.fileno()} <= set(quick)
        assert not {left.fileno(), right.fileno()} & set(quick)
        client.sendall(b"ping")
        assert conn.recv(4) == b"ping"
        conn.sendall(b"pong")
        assert client.recv(4) == b"pong"
        left.sendall(b"unix")
        assert right.recv(4) == b"unix"
    finally:
        for s in (server, client, conn, left, right):
            s.close()


@pytest.mark.parametrize("missing", ["proc", "option"])
def test_quick_ack_is_a_no_op_without_its_facility(monkeypatch, missing):
    if missing == "proc":
        monkeypatch.setattr(executor, "os", SimpleNamespace(
            path=SimpleNamespace(isdir=lambda p: False)))
    else:
        monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)

    def refuse(*args):
        raise AssertionError("setsockopt called")

    with socket.create_server(("127.0.0.1", 0)):
        monkeypatch.setattr(socket.socket, "setsockopt", refuse)
        executor.quick_ack()


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
        yield {"zip_importers": [left], "reads": [len(reads)],
               "fresh": [fresh], "file": [mod.__file__]}

    schema = StructType([StructField("zip_importers", LongType()),
                         StructField("reads", LongType()),
                         StructField("fresh", BooleanType()),
                         StructField("file", StringType())])
    df = spark.range(4).repartition(4)
    rows = map_in_arrow(df, probe, schema).collect()
    assert len(rows) == 4
    for r in rows:
        assert r.zip_importers == 0 and r.reads == 0, r
        assert r.fresh and "pyspark.zip" in r.file, r

    def frozen(batches):
        for _ in batches:
            pass
        yield {"pid": [os.getpid()], "frozen": [gc.get_freeze_count()]}

    counts = {}  # worker pid -> its frozen-object count, task by task
    schema = StructType([StructField("pid", LongType()),
                         StructField("frozen", LongType())])
    for _ in range(50):
        for r in map_in_arrow(df, frozen, schema).collect():
            counts.setdefault(r.pid, []).append(r.frozen)
    assert sum(map(len, counts.values())) == 4 * 50
    for pid, c in counts.items():
        # The heap is frozen in every worker. A worker's first task may
        # still import, and a lazily filled cache adds a few objects
        # once; a task that left objects in the frozen generation would
        # add at least one per task.
        assert min(c) > 0 and c[-1] - c[min(1, len(c) - 1)] < len(c), (pid, c)
