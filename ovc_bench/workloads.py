"""The benchmark workloads.

Each workload makes its inputs from a seed (``generate``), loads them
into the store its query reads (``ingest``, timed; ``check_ingest``;
``prepare``, untimed), runs one query (``query``, timed) and checks the
result outside the timed region (``check``). ``write_op`` is the timed
ingest of the closed loop (``check_write`` checks it). ``trace_layers``
times the calls into each layer for the traced run and returns
per-layer metrics.

Spark is lazy, so a Spark layer is timed by materializing its plan
prefix to the ``noop`` sink over the cached input; see ``tracer``.
"""
from __future__ import annotations

import os
import shutil
from statistics import median

import numpy as np
import pandas as pd

import gate
from benchenv import SHUFFLE_PARTITIONS as P, JobGroup
from repro.core.ovc import OvcSpec, boundary_mask, encode_sorted_array
from repro.core.stats import CompareStats

#: Input sizes. ``full`` is what the benchmark measures; ``smoke`` is
#: for the benchmark's own smoke test.
SIZES = {
    "full": {
        "intersect": {"rows": 50_000, "domain": 100_000},
        "lsm": {"batches": 8, "rows": 25_000, "domain": 8},
    },
    "smoke": {
        "intersect": {"rows": 2_000, "domain": 4_000},
        "lsm": {"batches": 3, "rows": 1_000, "domain": 8},
    },
}

LSM_KEYS = ["k0", "k1", "k2", "k3"]
NATIVE_REPEATS = 3
#: Rows per side of the Figure 3 plans run on packed keys (their memory
#: budget is a tenth of that, the paper's 10:1 ratio).
FIG3_ROWS = 50_000


def noop(df) -> None:
    """Materialize a DataFrame's full plan without collecting it."""
    df.write.format("noop").mode("overwrite").save()


def with_pid(df):
    from pyspark.sql import functions as F

    return df.withColumn(gate.PID, F.spark_partition_id())


def identity_transfer(df):
    """``df`` round-tripped through the Python workers via Arrow."""
    def same(batches):
        yield from batches

    return df.mapInPandas(same, df.schema)


def cached_bytes(spark) -> int:
    """In-memory size of every cached Spark dataset."""
    infos = spark.sparkContext._jsc.sc().getRDDStorageInfo()
    return sum(int(i.memSize()) for i in infos)


class Workload:
    name = ""
    #: Untimed warm-up queries in setup.
    warmups = 1
    #: Timed ingests before each query of the closed loop.
    ingests_per_query = 4

    def __init__(self, seed: int, size: dict, spark, work) -> None:
        self.seed, self.size, self.spark, self.work = seed, size, spark, work
        self._expected = None

    @property
    def expected(self):
        if self._expected is None:
            self._expected = self.compute_expected()
        return self._expected

    def prepare(self) -> None:
        """Untimed step after each ingest."""

    def key_pdf(self) -> pd.DataFrame:
        """All input rows' key columns."""
        raise NotImplementedError

    def key_df(self):
        """The key columns as a cached Spark DataFrame."""
        raise NotImplementedError

    def key_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Two single-key inputs for the Figure 3 plans: the keys packed
        into one integer, first half against second half."""
        keys = self.key_pdf().to_numpy(dtype=np.int64)
        packed = np.ravel_multi_index(keys.T, keys.max(axis=0) + 1)
        half = min(len(packed) // 2, FIG3_ROWS)
        return packed[:half], packed[half: 2 * half]

    def own_layers(self, tr) -> tuple[dict, list[str]]:
        """Per-layer metrics of this workload's own query."""
        raise NotImplementedError

    def trace_layers(self, tr) -> tuple[dict, list[str]]:
        """The layers of this workload's own query, then every other
        layer called on this workload's keys, so that each per-layer
        metric is measured on each workload."""
        metrics, errors = self.own_layers(tr)
        keys = self.key_pdf().to_numpy(dtype=np.int64)
        part = keys[np.lexsort(keys.T[::-1])][: max(len(keys) // P, 1)]
        spec = OvcSpec(part.shape[1])
        if "core.ovc.encode_sorted_array.s" not in metrics:
            metrics.update(kernel_floor(tr, part, spec,
                                        max(spec.arity - 1, 1)))
        for layers in (spark_layers, join_layers, storage_layers,
                       figure3_layers):
            m, e = layers(self, tr, part, set(metrics))
            metrics.update(m)
            errors += e
        return metrics, errors

    def traced_query(self, tr) -> tuple[object, float, dict]:
        """The whole query under one span, with its scheduler counts."""
        with tr.span("query") as s, JobGroup(self.spark, "traced") as jg:
            res = self.query()
        s.counters.update(jg.counts())
        return res, s.duration, {
            f"spark.{k}": float(v) for k, v in s.counters.items()}


class CachedFrames(Workload):
    """A workload whose store is Spark's cache of pandas inputs."""

    def frames(self) -> list[pd.DataFrame]:
        raise NotImplementedError

    @property
    def rows(self) -> int:
        return sum(len(f) for f in self.frames())

    def ingest(self) -> list[int]:
        for df in getattr(self, "dfs", ()):
            df.unpersist()
        self.dfs = [self.spark.createDataFrame(f).cache()
                    for f in self.frames()]
        return [df.count() for df in self.dfs]

    def check_ingest(self, counts: list[int]) -> list[str]:
        want = [len(f) for f in self.frames()]
        return [] if counts == want else [f"cached {counts}, want {want}"]

    # The loop re-caches the inputs the next query reads.
    write_op, check_write = ingest, check_ingest

    def key_df(self):
        return self.dfs[0].select(*self.key_pdf().columns)

    def space_amp(self) -> float:
        """Spark's in-memory cache size over user bytes."""
        cells = sum(f.size for f in self.frames())
        return cached_bytes(self.spark) / (8.0 * cells)


class Intersect(CachedFrames):
    """``intersect_distinct_ovc`` over two cached single-key inputs; the
    traced run also runs the driver-side Figure 3 plans on them."""

    name = "intersect"

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, dom = self.size["rows"], self.size["domain"]
        self.t1 = pd.DataFrame({"k": rng.integers(0, dom, n)})
        self.t2 = pd.DataFrame({"k": rng.integers(0, dom, n)})

    def frames(self) -> list[pd.DataFrame]:
        return [self.t1, self.t2]

    def compute_expected(self) -> pd.DataFrame:
        return gate.duckdb_frame(
            "SELECT k FROM t1 INTERSECT SELECT k FROM t2",
            t1=self.t1, t2=self.t2)

    def query(self) -> pd.DataFrame:
        from repro.sparkops.joins import intersect_distinct_ovc

        res = intersect_distinct_ovc(*self.dfs, ["k"], num_partitions=P)
        return with_pid(res).toPandas()

    def check(self, pdf: pd.DataFrame) -> list[str]:
        return self.check_native(pdf) + gate.partition_codes(pdf, ["k"])

    def native_query(self) -> pd.DataFrame:
        d1, d2 = self.dfs
        return d1.select("k").intersect(d2.select("k")).toPandas()

    def check_native(self, pdf: pd.DataFrame) -> list[str]:
        return gate.same_rows(pdf, self.expected, ["k"])

    def key_pdf(self) -> pd.DataFrame:
        return self.t1

    def key_pair(self) -> tuple[np.ndarray, np.ndarray]:
        return self.t1["k"].to_numpy(), self.t2["k"].to_numpy()

    def own_layers(self, tr) -> tuple[dict, list[str]]:
        from repro.sparkops.aggregate import instream_distinct
        from repro.sparkops.joins import intersect_distinct_ovc
        from repro.sparkops.ovc_column import attach_ovc

        sides = [d.select("k") for d in self.dfs]

        def ovc(d):
            return attach_ovc(d, ["k"], num_partitions=P)

        def sort(d):
            return d.repartitionByRange(P, "k").sortWithinPartitions("k")

        metrics = prefix_chain(tr, [
            ("spark.exchange_sort", lambda: [noop(sort(d)) for d in sides]),
            ("spark.arrow_transfer",
             lambda: [noop(identity_transfer(sort(d))) for d in sides]),
            ("sparkops.ovc_column.attach_ovc",
             lambda: [noop(ovc(d)) for d in sides]),
            ("sparkops.aggregate.instream_distinct",
             lambda: [noop(instream_distinct(ovc(d), ["k"])) for d in sides]),
            ("sparkops.joins.merge_join_ovc",
             lambda: noop(intersect_distinct_ovc(*self.dfs, ["k"],
                                                 num_partitions=P))),
        ])
        # The deduplicated rows of one key-range partition of each side,
        # as the executor-side merge join sees them.
        hi = self.size["domain"] // P
        t1, t2 = self.key_pair()
        a, b = np.unique(t1[t1 < hi]), np.unique(t2[t2 < hi])
        metrics.update(kernel_floor(tr, a[:, None], OvcSpec(1), 1))
        m, errors = merge_join_layer(tr, a[:, None], b[:, None],
                                     np.intersect1d(a, b)[:, None])
        metrics.update(m)
        return metrics, errors


class Lsm(Workload):
    """Writes beside reads on an LSM forest of RLE columnar runs: each
    loop iteration ingests all batches into fresh forests (the write
    path) and runs one aggregate query over ``format("ovc")`` (the read
    path)."""

    name = "lsm"
    # The read path keeps speeding up for its first five or so queries;
    # intersect's does not.
    warmups = 5
    sql = ("SELECT count(*) AS n, sum(_ovc) AS s, "
           "count(DISTINCT k0, k1, k2, k3) AS d FROM ovc_forest")

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n, dom = self.size["rows"], self.size["domain"]
        self.batches = [(rng.integers(0, dom, (n, 4)), rng.integers(0, 1000, n))
                        for _ in range(self.size["batches"])]

    @property
    def rows(self) -> int:
        return sum(len(p) for _, p in self.batches)

    def write_op(self):
        """Ingest every batch into a fresh forest."""
        from repro.storage.lsm import LsmForest

        self._forests = getattr(self, "_forests", 0) + 1
        forest = LsmForest(
            os.path.join(self.work.path, f"forest-{self._forests}"),
            OvcSpec(4))
        for keys, pay in self.batches:
            forest.ingest(keys, pay)
        return forest

    def check_write(self, forest) -> list[str]:
        """Check a forest of the write path, then remove it."""
        errors = self.check_ingest(forest)
        shutil.rmtree(forest.root, ignore_errors=True)
        return errors

    def ingest(self):
        """Build the forest the read query scans."""
        self.old, self.forest = getattr(self, "forest", None), self.write_op()
        return self.forest

    def check_ingest(self, forest) -> list[str]:
        """Each run holds its batch sorted, with a fresh encode's codes."""
        if len(forest.runs) != len(self.batches):
            return [f"{len(forest.runs)} runs for {len(self.batches)} batches"]
        errors = []
        for i, (run, (keys, pay)) in enumerate(zip(forest.runs, self.batches)):
            order = np.lexsort(keys.T[::-1])
            got_keys, codes, pays = run.scan_with_ovc()
            if not (np.array_equal(got_keys, keys[order])
                    and np.array_equal(pays["p0"], pay[order])):
                errors.append(f"run {i}: rows differ from the sorted batch")
            errors += [f"run {i}: {e}"
                       for e in gate.code_stream(got_keys, codes)]
        return errors

    def prepare(self) -> None:
        if self.old is not None:
            shutil.rmtree(self.old.root, ignore_errors=True)
        self.spark.read.format("ovc").option("path", self.forest.root) \
            .load().createOrReplaceTempView("ovc_forest")

    def compute_expected(self) -> dict:
        keys = np.concatenate([k for k, _ in self.batches])
        e = gate.duckdb_frame(
            "SELECT count(*) AS n, count(DISTINCT (k0, k1, k2, k3)) AS d "
            "FROM t", t=pd.DataFrame(keys, columns=LSM_KEYS))
        s = sum(int(encode_sorted_array(k[np.lexsort(k.T[::-1])],
                                        OvcSpec(4)).sum())
                for k, _ in self.batches)
        return {"n": int(e["n"][0]), "d": int(e["d"][0]), "s": s}

    def query(self) -> dict:
        return self.spark.sql(self.sql).collect()[0].asDict()

    def check(self, got: dict) -> list[str]:
        return [f"{c}: {got[c]} != {self.expected[c]}" for c in got
                if got[c] != self.expected[c]]

    check_native = check

    def check_partitions(self) -> list[str]:
        """Per-partition code-stream check of the full scan: partition
        ``i`` must hold batch ``i`` sorted, with its codes."""
        pdf = with_pid(self.spark.table("ovc_forest")).toPandas()
        errors = []
        for i, (keys, _) in enumerate(self.batches):
            part = pdf[pdf[gate.PID] == i]
            got = part[LSM_KEYS].to_numpy(dtype=np.int64)
            if not np.array_equal(got, keys[np.lexsort(keys.T[::-1])]):
                errors.append(f"partition {i}: rows differ from batch {i}")
            errors += [f"partition {i}: {e}" for e in gate.code_stream(
                got, part["_ovc"].to_numpy(dtype=np.int64))]
        return errors

    def native_query(self) -> dict:
        """The same SQL, less ``sum(_ovc)``, over a Parquet copy."""
        path = os.path.join(self.work.path, "parquet")
        if not os.path.exists(path):
            self.spark.table("ovc_forest").drop("_ovc").write.parquet(path)
            self.spark.read.parquet(path) \
                .createOrReplaceTempView("parquet_copy")
        return self.spark.sql(
            "SELECT count(*) AS n, count(DISTINCT k0, k1, k2, k3) AS d "
            "FROM parquet_copy").collect()[0].asDict()

    def forest_bytes(self) -> int:
        return sum(os.path.getsize(r.path) for r in self.forest.runs)

    def space_amp(self) -> float:
        """Forest bytes on disk over user bytes (4 keys + 1 payload)."""
        return self.forest_bytes() / (8.0 * 5 * self.rows)

    def key_pdf(self) -> pd.DataFrame:
        return pd.DataFrame(np.concatenate([k for k, _ in self.batches]),
                            columns=LSM_KEYS)

    def key_df(self):
        if not hasattr(self, "_key_df"):
            self._key_df = self.spark.createDataFrame(self.key_pdf()).cache()
        return self._key_df

    def own_layers(self, tr) -> tuple[dict, list[str]]:
        keys, pay = self.batches[0]
        order = np.lexsort(keys.T[::-1])
        return storage_layers(self, tr, keys[order], set(),
                              forest=self.forest, payload=pay[order])


WORKLOADS = {w.name: w for w in (Intersect, Lsm)}


def prefix_chain(tr, chain) -> dict:
    """Time each plan prefix of ``chain`` (shortest first), longest
    first, each shorter one as the child of the layer consuming it; a
    layer's self time is its prefix minus the shorter prefix."""
    spans, parent = [], None
    for name, run in reversed(chain):
        with tr.span(name, parent=parent) as s:
            run()
        spans.append(s)
        parent = s.id
    return {f"{s.name}.s": tr.self_time(s) for s in spans}


def kernel_floor(tr, part: np.ndarray, spec: OvcSpec, prefix: int) -> dict:
    """Direct calls of the vectorized encode and boundary kernels on one
    sorted partition (median of a few calls: they take milliseconds)."""
    enc, bnd = [], []
    for _ in range(5):
        with tr.span("core.ovc.encode_sorted_array") as e:
            codes = encode_sorted_array(part, spec)
        with tr.span("core.ovc.boundary_mask") as b:
            boundary_mask(codes, spec, prefix)
        enc.append(e.duration)
        bnd.append(b.duration)
    return {"core.ovc.encode_sorted_array.s": median(enc),
            "core.ovc.boundary_mask.s": median(bnd)}


def check_stream(out: list, want: np.ndarray, base: int,
                 what: str) -> list[str]:
    """A row-wise coded stream ``(key, code, payload)`` must hold the
    rows of ``want`` (n, K) and carry a fresh encode's codes."""
    k = want.shape[1]
    keys = np.array([key for key, _, _ in out], dtype=np.int64).reshape(-1, k)
    errors = [] if np.array_equal(keys, want) else \
        [f"{what}: {len(keys)} rows differ from the expected {len(want)}"]
    codes = np.array([c for _, c, _ in out], dtype=np.int64)
    return errors + [f"{what}: {e}" for e in gate.code_stream(keys, codes, base)]


def rows_of(keys: np.ndarray, codes: np.ndarray) -> list[tuple]:
    return [(tuple(int(x) for x in k), int(c), None)
            for k, c in zip(keys, codes)]


def merge_join_layer(tr, a: np.ndarray, b: np.ndarray,
                     want: np.ndarray) -> tuple[dict, list[str]]:
    """A direct left-semi ``merge_join`` of two sorted, duplicate-free
    coded streams (n, K) with its comparison counters."""
    from repro.core.operators.merge_join import JoinType, merge_join

    spec = OvcSpec(a.shape[1])
    left = rows_of(a, encode_sorted_array(a, spec))
    right = rows_of(b, encode_sorted_array(b, spec))
    stats = CompareStats()
    name = "core.operators.merge_join"
    with tr.span(name) as s:
        out = list(merge_join(left, right, spec, JoinType.LEFT_SEMI, stats))
    s.counters.update(stats.as_dict())
    return {
        f"{name}.s": s.duration,
        f"{name}.row_cmps": float(stats.row_cmps),
        f"{name}.code_decided": float(stats.code_decided),
        f"{name}.col_cmps": float(stats.col_cmps),
        f"{name}.code_decided_ratio":
            stats.code_decided / stats.row_cmps if stats.row_cmps else 0.0,
    }, check_stream(out, want, spec.base, "direct merge_join")


def join_layers(wl, tr, part, have) -> tuple[dict, list[str]]:
    """The direct merge join on one partition's distinct keys, semi-joined
    with every second of them."""
    if "core.operators.merge_join.s" in have:
        return {}, []
    a = np.unique(part, axis=0)
    return merge_join_layer(tr, a, a[::2], a[::2])


def spark_layers(wl, tr, part, have) -> tuple[dict, list[str]]:
    """The Spark layers this workload's own query does not run, timed on
    its cached keys: plan prefixes, each with the shorter prefix it
    consumes as its child."""
    from repro.sparkops.aggregate import instream_aggregate, instream_distinct
    from repro.sparkops.joins import merge_join_ovc
    from repro.sparkops.ovc_column import attach_ovc

    df = wl.key_df()
    keys = df.columns

    def sort():
        return df.repartitionByRange(P, *keys).sortWithinPartitions(*keys)

    def ovc():
        return attach_ovc(df, keys, num_partitions=P)

    attach = ("sparkops.ovc_column.attach_ovc", lambda: noop(ovc()))
    chains = [
        [("spark.exchange_sort", lambda: noop(sort())),
         ("spark.arrow_transfer", lambda: noop(identity_transfer(sort()))),
         attach,
         ("sparkops.aggregate.instream_distinct",
          lambda: noop(instream_distinct(ovc(), keys)))],
        [attach,
         ("sparkops.aggregate.instream_aggregate",
          lambda: noop(instream_aggregate(ovc(), keys, 1,
                                          {"n": ("*", "count")})))],
        [("sparkops.joins.merge_join_ovc",
          lambda: noop(merge_join_ovc(df, df, keys, "left_semi",
                                      num_partitions=P)))],
    ]
    metrics = {}
    for chain in chains:
        missing = [i for i, (n, _) in enumerate(chain) if f"{n}.s" not in have]
        if missing:
            got = prefix_chain(tr, chain[max(missing[0] - 1, 0):
                                         missing[-1] + 1])
            metrics.update({n: v for n, v in got.items() if n not in have})
    return metrics, []


def storage_layers(wl, tr, part, have, forest=None,
                   payload=None) -> tuple[dict, list[str]]:
    """Write and scan one sorted columnar run, and scan a forest through
    ``format("ovc")``: the workload's own forest, or one built from its
    keys in ``P`` batches."""
    from repro.storage.columnar import ColumnarRun, write_columnar_run
    from repro.storage.lsm import LsmForest

    if "storage.columnar.write.s" in have:
        return {}, []
    spec = OvcSpec(part.shape[1])
    path = os.path.join(wl.work.path, "traced.run")
    with tr.span("storage.columnar.write") as w:
        write_columnar_run(path, part, spec,
                           {} if payload is None else {"p0": payload},
                           assume_sorted=True)
    with tr.span("storage.columnar.scan_with_ovc") as r:
        got, codes, _ = ColumnarRun(path).scan_with_ovc()
    os.remove(path)
    errors = [] if np.array_equal(got, part) else ["scan lost rows"]
    errors += gate.code_stream(got, codes)
    if forest is None:
        forest = LsmForest(os.path.join(wl.work.path, "traced-forest"), spec)
        for batch in np.array_split(wl.key_pdf().to_numpy(np.int64), P):
            forest.ingest(batch)
    size = float(sum(os.path.getsize(run.path) for run in forest.runs))
    with tr.span("storage.datasource.scan") as d:
        noop(wl.spark.read.format("ovc").option("path", forest.root).load())
    d.counters["bytes_written"] = size
    return {
        "storage.columnar.write.s": w.duration,
        "storage.columnar.scan_with_ovc.s": r.duration,
        "storage.datasource.scan.s": d.duration,
        "storage.bytes_written": size,
    }, errors


def figure3_layers(wl, tr, part, have) -> tuple[dict, list[str]]:
    """The single-threaded Figure 3 plans on the workload's key pair,
    memory a tenth of a side: the sort plan's steps called one by one
    with shared counters (external sort with the tree of losers, then
    the row-wise merge join), and the hash plan as its reference twin."""
    from repro.core.external_sort import external_sort
    from repro.core.operators.merge_join import intersect_distinct
    from repro.sparkops.plans import hash_intersect_plan

    t1, t2 = wl.key_pair()
    mem, tmp = max(len(t1) // 10, 1), str(wl.work.tmp)
    spec = OvcSpec(1, 1 << 32)
    stats = CompareStats()
    with tr.span("sparkops.plans.sort_intersect_plan") as plan:
        with tr.span("core.external_sort") as s:
            sides = [list(external_sort(
                (((int(v),), None) for v in t), spec, mem, tmp, stats,
                dedup=True, tag=tag)) for t, tag in ((t1, "t1"), (t2, "t2"))]
        s.counters.update(stats.as_dict())
        with tr.span("core.operators.merge_join.intersect_distinct") as j:
            out = list(intersect_distinct(*sides, spec, stats))
    plan.counters.update(stats.as_dict())
    want = np.intersect1d(t1, t2)
    errors = check_stream(out, want[:, None], spec.base, "sort plan")
    with tr.span("hashexec.hash_intersect_plan") as h:
        res = hash_intersect_plan(t1, t2, mem, tmp)
    h.counters.update(res.stats.as_dict())
    if res.n_out != len(want):
        errors.append(f"hash plan: {res.n_out} rows, want {len(want)}")
    name = "sparkops.plans.sort_intersect_plan"
    return {
        "core.external_sort.s": s.duration,
        "core.operators.merge_join.intersect_distinct.s": j.duration,
        **{f"{name}.{c}": float(getattr(stats, c)) for c in
           ("rows_spilled", "row_cmps", "code_decided", "col_cmps")},
        "hashexec.hash_intersect_plan.s": res.seconds,
        "hashexec.rows_spilled": float(res.stats.rows_spilled),
        "hashexec.hash_ops": float(res.stats.hash_ops),
    }, errors
