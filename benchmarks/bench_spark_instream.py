"""Supplementary: Figure 1 inside Spark executors.

End-to-end DataFrame pipeline at SF~0.1 scale (600k rows): range
partition + sort + per-partition ``_ovc`` scan encode, then in-stream
aggregation whose boundary detection is either the OVC integer test
(``instream_aggregate``) or a full multi-column compare in the same
``map_in_arrow`` harness. Also the native Spark hash aggregation for
context, and the fixed cost of one Python task (``test_python_hop``).
"""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import LongType, StructField, StructType

from repro.arrowbuf import int64_array
from repro.core.ovc import OvcSpec
from repro.oracle import assert_equivalent
from repro.sparkops.aggregate import instream_aggregate
from repro.sparkops.joins import intersect_distinct_ovc
from repro.sparkops.ovc_column import (OVC_COL, attach_ovc, key_array,
                                       map_in_arrow, whole_partition)
from repro.synth_data import webkeys

N = 600_000
KEYS = ["k0", "k1", "k2", "k3"]


@pytest.fixture(scope="module")
def coded_df(spark):
    df = webkeys(spark, n=N, key_cols=4, ratio=100.0, seed=7)
    coded = attach_ovc(df, KEYS, num_partitions=8).cache()
    coded.count()  # materialize: benchmarks measure the consumer only
    return coded


def _full_compare_aggregate(df):
    """Same ``map_in_arrow`` harness as ``instream_aggregate``,
    boundaries by full column compares."""
    fields = [StructField(c, LongType()) for c in KEYS]
    fields.append(StructField("cnt", LongType()))
    schema = StructType(fields)

    def run(batches):
        data = whole_partition(batches)
        if not len(data):
            return
        g = key_array(data, KEYS)
        bounds = np.empty(len(g), dtype=bool)
        bounds[0] = True
        np.any(g[1:] != g[:-1], axis=1, out=bounds[1:])
        starts = np.flatnonzero(bounds)
        rows = int64_array(starts)
        out = {c: data[c].take(rows) for c in KEYS}
        out["cnt"] = np.diff(np.append(starts, len(g)))
        yield out

    return map_in_arrow(df, run, schema)


def test_spark_instream_ovc(benchmark, coded_df):
    def run():
        return instream_aggregate(
            coded_df, KEYS, 4, {"cnt": ("*", "count")}
        ).count()

    n = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=2)
    assert n == pytest.approx(N / 100, rel=0.05)


def test_spark_instream_full_compare(benchmark, coded_df):
    def run():
        return _full_compare_aggregate(coded_df).count()

    n = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=2)
    assert n == pytest.approx(N / 100, rel=0.05)


def test_spark_native_hash_aggregate(benchmark, coded_df):
    base = coded_df.drop(OVC_COL)

    def run():
        return base.groupBy(*KEYS).count().count()

    n = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=2)
    assert n == pytest.approx(N / 100, rel=0.05)


# -- executor-kernel benchmarks -----------------------------------------
# The end-to-end pipelines above are Arrow-transfer-bound at this scale
# (~0.6 s floor moving 600k x 6 columns into Python workers), which
# drowns the boundary-detection difference. These two benches measure
# the per-partition executor kernel itself on one materialized
# partition's Arrow data — the quantity Figure 1 actually varies.

@pytest.fixture(scope="module")
def partition_table(coded_df):
    return coded_df.toArrow()


def test_executor_kernel_ovc(benchmark, partition_table):
    from repro.core.ovc import OvcSpec, boundary_mask

    spec = OvcSpec(4)

    def kernel():
        codes = key_array(partition_table, [OVC_COL])[:, 0]
        bounds = boundary_mask(codes, spec, 4)
        bounds[0] = True
        starts = np.flatnonzero(bounds)
        out = {c: partition_table[c].take(int64_array(starts)) for c in KEYS}
        out["cnt"] = np.diff(np.append(starts, len(codes)))
        return out

    out = benchmark(kernel)
    assert out["cnt"].sum() == N


def test_executor_kernel_full_compare(benchmark, partition_table):
    def kernel():
        g = key_array(partition_table, KEYS)
        bounds = np.empty(len(g), dtype=bool)
        bounds[0] = True
        np.any(g[1:] != g[:-1], axis=1, out=bounds[1:])
        starts = np.flatnonzero(bounds)
        out = {c: partition_table[c].take(int64_array(starts)) for c in KEYS}
        out["cnt"] = np.diff(np.append(starts, len(g)))
        return out

    out = benchmark(kernel)
    assert out["cnt"].sum() == N


# -- the per-Python-task floor ------------------------------------------
# An identity mapInArrow over 8 partitions of a cached 10-row frame
# moves and computes next to nothing, so a round costs what one wave of
# Python tasks costs. ``prologue`` goes through ``map_in_arrow``, which
# runs the executor prologue first (quick ACK, heap freeze, zip-importer
# eviction); ``plain`` calls mapInArrow with the same kernel body, the
# batch rebuild ``map_in_arrow`` does. The freeze and the eviction
# last for the life of a reused worker, so ``plain`` shows
# the floor only in workers no sparkops operator has run in: run these
# alone, ``pytest benchmarks/bench_spark_instream.py -k python_hop``,
# where ``plain`` goes first.

@pytest.fixture(scope="module")
def tiny_df(spark):
    df = spark.range(10).repartition(8).cache()
    df.count()
    return df


@pytest.mark.parametrize("prologue", [False, True], ids=["plain", "prologue"])
def test_python_hop(benchmark, tiny_df, prologue):
    arrow_schema = to_arrow_schema(tiny_df.schema)

    def same(batches):
        for b in batches:
            yield from pa.Table.from_arrays(
                [b["id"]], arrow_schema.names).cast(arrow_schema).to_batches()

    def run():
        if prologue:
            out = map_in_arrow(tiny_df, lambda batches: (
                {"id": b["id"]} for b in batches), tiny_df.schema)
        else:
            out = tiny_df.mapInArrow(same, tiny_df.schema)
        return sorted(r.id for r in out.collect())

    rows = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    assert rows == list(range(10))


# -- one INTERSECT through the merge join -------------------------------
# ``intersect_distinct_ovc`` over two cached 50k-key frames uniform in
# [0, 100k) with 8 partitions: the query of ``ovc_bench``'s intersect
# workload, under the same settings (adaptive execution off), timed
# from the cached inputs to the result on the driver.

@pytest.fixture(scope="module")
def intersect_inputs(spark):
    rng = np.random.default_rng(931)
    sides = []
    for _ in range(2):
        pdf = pd.DataFrame({"k": rng.integers(0, 100_000, 50_000)})
        df = spark.createDataFrame(pdf).cache()
        df.count()
        sides.append(df)
    return sides


def test_intersect_distinct_ovc(benchmark, spark, intersect_inputs):
    t1, t2 = intersect_inputs
    aqe = "spark.sql.adaptive.enabled"
    old = spark.conf.get(aqe)
    spark.conf.set(aqe, "false")
    try:
        out = benchmark.pedantic(
            lambda: intersect_distinct_ovc(t1, t2, ["k"], num_partitions=8)
            .toPandas(), rounds=10, iterations=1, warmup_rounds=5)
    finally:
        spark.conf.set(aqe, old)
    assert_equivalent(spark.createDataFrame(out.drop(columns=OVC_COL)),
                      "select k from t1 intersect select k from t2",
                      t1=t1, t2=t2)
