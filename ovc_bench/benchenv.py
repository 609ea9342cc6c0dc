"""Process environment for one benchmark run: paths, the Spark session,
per-query scheduler counts and the worker-RSS sampler.

Everything the benchmark writes goes under ``<checkout>/.ovc_bench_work``
(Spark local dirs, JVM temp files, the LSM forest, spill files, traces),
and each run removes its own sub-directory when it ends.
"""
from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".ovc_bench_work"

#: Fixed Spark shape: one local executor with 4 task slots, 8 shuffle
#: partitions, a fixed driver heap.
MASTER = "local[4]"
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"


def check_checkout() -> None:
    """Fail fast when the program's sources are not beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"ovc_bench: no program sources at {SRC}/repro; "
                 "run from a checkout of the repository")


class WorkDir:
    """A per-run scratch directory inside the checkout; removed on close."""

    def __init__(self, tag: str) -> None:
        self.path = WORK_ROOT / f"{tag}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self.tmp = self.path / "tmp"
        self.tmp.mkdir()
        # Temp files of this process and of every process it starts: the
        # JVMs (no hsperfdata under /tmp either) and, through the JVM
        # environment, Spark's Python workers.
        os.environ["TMPDIR"] = tempfile.tempdir = str(self.tmp)
        os.environ["JAVA_TOOL_OPTIONS"] = \
            f"-XX:-UsePerfData -Djava.io.tmpdir={self.tmp}"

    def sub(self, name: str) -> str:
        p = self.path / name
        p.mkdir(parents=True, exist_ok=True)
        return str(p)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def start_spark(work: WorkDir):
    """A self-contained local Spark session: program sources on the
    Python workers' path, no UI, no progress bar, fixed parallelism."""
    src = str(SRC)
    pp = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not pp else f"{src}{os.pathsep}{pp}"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    from pyspark.sql import SparkSession

    os.environ["SPARK_LOCAL_DIRS"] = work.sub("spark-local")
    return (
        SparkSession.builder.master(MASTER)
        .appName("ovc_bench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", os.environ["SPARK_LOCAL_DIRS"])
        .config("spark.sql.warehouse.dir", work.sub("warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        # exactly SHUFFLE_PARTITIONS per shuffle, no re-planning mid-query
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session, then the JVM and Spark's Python workers, and
    wait until each has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    try:
        spark.stop()
    except Exception:  # the JVM may already be gone (e.g. on SIGTERM)
        traceback.print_exc()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + 20
    while (left := _spark_python_workers()) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in left:
        try:
            os.kill(int(pid), signal.SIGKILL)
        except ProcessLookupError:
            pass


class JobGroup:
    """Tags the Spark jobs of one query and reads their scheduler counts
    from the status tracker afterwards."""

    _seq = 0

    def __init__(self, spark, name: str) -> None:
        JobGroup._seq += 1
        self.sc = spark.sparkContext
        self.group = f"{name}-{JobGroup._seq}"

    def __enter__(self) -> "JobGroup":
        self.sc.setJobGroup(self.group, self.group)
        return self

    def __exit__(self, *exc) -> None:
        self.sc.setLocalProperty("spark.jobGroup.id", None)

    def counts(self) -> dict[str, int]:
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(self.group)
        stages = tasks = failed = 0
        for j in jobs:
            info = st.getJobInfo(j)
            for s in (info.stageIds if info else ()):
                si = st.getStageInfo(s)
                if si is None:  # skipped: its output was reused
                    continue
                stages += 1
                tasks += si.numTasks
                failed += si.numFailedTasks
        return {"jobs": len(jobs), "stages": stages, "tasks": tasks,
                "tasks_failed": failed}


def _rss_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # the process ended between listing and reading
        pass
    return 0


def _spark_python_workers() -> list[str]:
    """Pids of Spark's Python daemon and workers started by this process
    (through its JVM child)."""
    me = str(os.getpid())
    parent: dict[str, str] = {}
    workers = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                parent[pid] = f.read().rsplit(")", 1)[1].split()[1]
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if b"pyspark.daemon" in cmd or b"pyspark.worker" in cmd:
            workers.append(pid)
    out = []
    for pid in workers:
        p, hops = parent.get(pid), 0
        while p and p not in ("0", "1", me) and hops < 16:
            p, hops = parent.get(p), hops + 1
        if p == me:
            out.append(pid)
    return out


class RssSampler:
    """Peak summed RSS of Spark's Python workers during a query, sampled
    by one background thread at a fixed low rate; the workers' pids are
    looked up once a second."""

    PERIOD_S = 0.1
    REFRESH_TICKS = 10

    def __init__(self) -> None:
        self._pids = _spark_python_workers()
        self._peak_kb = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _observe(self, refresh: bool = False) -> None:
        with self._lock:
            if refresh:
                self._pids = _spark_python_workers()
            kb = sum(_rss_kb(p) for p in self._pids)
            self._peak_kb = max(self._peak_kb, kb)

    def _loop(self) -> None:
        tick = 0
        while not self._stop.wait(self.PERIOD_S):
            tick += 1
            self._observe(refresh=tick % self.REFRESH_TICKS == 0)

    def reset(self) -> None:
        """Start a new peak window (call right before a query)."""
        with self._lock:
            self._peak_kb = 0
        self._observe(refresh=True)

    def peak_mb(self) -> float:
        """Peak since the last ``reset`` (call right after the query)."""
        self._observe(refresh=True)
        with self._lock:
            return self._peak_kb / 1024.0

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
