"""Spark-level tests: the ``_ovc`` column, in-stream aggregation,
duplicate removal, merge joins, and intersect — all result-checked
against DuckDB via the oracle.
"""
import uuid

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.oracle import assert_equivalent
from repro.sparkops.aggregate import instream_aggregate, instream_distinct
from repro.sparkops.joins import intersect_distinct_ovc, merge_join_ovc
from repro.sparkops.ovc_column import OVC_COL, attach_ovc
from repro.synth_data import uniform_keys, webkeys

KEYS4 = ["k0", "k1", "k2", "k3"]
AQE = "spark.sql.adaptive.enabled"


@pytest.fixture(scope="module")
def web_df(spark):
    return webkeys(spark, n=5000, key_cols=4, ratio=10.0, seed=1).cache()


def assert_one_hash_shuffle_in_one_job(spark, df):
    """``df``'s plan holds one hash exchange and no range exchange, and
    collecting it runs one Spark job (no range-sampling job). Adaptive
    execution is off here, as in the benchmark: it submits each
    shuffle's map stage as a job of its own."""
    sc = spark.sparkContext
    group = f"one-job-{uuid.uuid4().hex}"
    old = spark.conf.get(AQE)
    spark.conf.set(AQE, "false")
    try:
        sc.setJobGroup(group, group)
        df.collect()
        plan = df._jdf.queryExecution().executedPlan().toString()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        spark.conf.set(AQE, old)
    assert plan.count("Exchange hashpartitioning") == 1
    assert "rangepartitioning" not in plan
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1


def raises_before_any_job(spark, match, plan):
    """``plan()`` raises ``ValueError`` matching ``match`` while building
    the plan, with no Spark job run."""
    sc = spark.sparkContext
    group = f"no-job-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    try:
        with pytest.raises(ValueError, match=match):
            plan()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


def assert_exact(spark_df, sql, **tables):
    """``spark_df`` holds the rows DuckDB computes for ``sql`` over
    ``tables``, value for value: both sides go through Arrow and compare
    as Python values, so an int64 near 2**63 or a null stays exact
    (``assert_equivalent`` reads both through pandas, and float64)."""
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toArrow())
        want = con.execute(sql).fetchall()
        names = [d[0] for d in con.description]
    finally:
        con.close()
    got = [tuple(r) for r in spark_df.select(*names).collect()]

    def order(row):
        return [(v is None, v) for v in row]
    assert sorted(got, key=order) == sorted(want, key=order)


def assert_partitions_sorted_and_coded(df, cols):
    """Each Spark partition of ``df`` is sorted on ``cols`` and its
    ``_ovc`` column is the re-encode of those rows; every ``cols`` group
    lies in one partition."""
    out = df.withColumn("pid", F.spark_partition_id()).toPandas()
    spec = OvcSpec(len(cols))
    assert out["pid"].nunique() > 1
    assert (out.groupby(cols)["pid"].nunique() == 1).all()
    for _, pdf in out.groupby("pid"):
        arr = pdf[cols].to_numpy(dtype=np.int64)
        assert (arr[np.lexsort(arr.T[::-1])] == arr).all()
        assert (encode_sorted_array(arr, spec) ==
                pdf[OVC_COL].to_numpy()).all()


class TestAttachOvc:
    @pytest.mark.parametrize("parts", [4, 8])
    def test_partition_streams_are_sorted_and_coded(self, spark, web_df,
                                                    parts):
        assert_partitions_sorted_and_coded(
            attach_ovc(web_df, KEYS4, num_partitions=parts), KEYS4)

    def test_row_count_preserved(self, spark, web_df):
        assert attach_ovc(web_df, KEYS4).count() == web_df.count()

    def test_single_partition_is_globally_sorted_stream(self, spark):
        df = webkeys(spark, n=500, key_cols=3, ratio=5.0, seed=2)
        coded = attach_ovc(df, ["k0", "k1", "k2"], num_partitions=1)
        pdf = coded.toPandas()
        arr = pdf[["k0", "k1", "k2"]].to_numpy(dtype=np.int64)
        assert (arr[np.lexsort(arr.T[::-1])] == arr).all()
        spec = OvcSpec(3)
        assert (encode_sorted_array(arr, spec) ==
                pdf[OVC_COL].to_numpy()).all()

    def test_rejects_bad_partition_prefix(self, spark, web_df):
        with pytest.raises(ValueError):
            attach_ovc(web_df, KEYS4, partition_on=["k1"])

    def test_rejects_empty_keys(self, spark, web_df):
        with pytest.raises(ValueError):
            attach_ovc(web_df, [])

    def test_rejects_input_with_ovc_column(self, spark, web_df):
        # Spark used to fail inside a task with an obscure
        # RESULT_COLUMN_SCHEMA_MISMATCH.
        coded = attach_ovc(web_df, KEYS4)
        raises_before_any_job(spark, "'_ovc'",
                              lambda: attach_ovc(coded, KEYS4))


class TestInstreamAggregate:
    def test_count_star_group_by_all_keys(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, num_partitions=8)
        out = instream_aggregate(coded, KEYS4, 4, {"cnt": ("*", "count")})
        assert_equivalent(
            out.drop(OVC_COL),
            "select k0, k1, k2, k3, count(*) as cnt from t "
            "group by k0, k1, k2, k3",
            t=web_df,
        )

    def test_group_by_prefix_with_sum(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, partition_on=KEYS4[:2],
                           num_partitions=8)
        out = instream_aggregate(
            coded, KEYS4, 2,
            {"cnt": ("*", "count"), "sv": ("v", "sum"),
             "mx": ("v", "max"), "mn": ("v", "min")},
        )
        assert_equivalent(
            out.drop(OVC_COL),
            "select k0, k1, count(*) as cnt, sum(v) as sv, "
            "max(v) as mx, min(v) as mn from t group by k0, k1",
            t=web_df,
        )

    def test_output_codes_are_valid_group_codes(self, spark, web_df):
        for g in (1, 2, 4):
            coded = attach_ovc(web_df, KEYS4, partition_on=KEYS4[:g],
                               num_partitions=4)
            assert_partitions_sorted_and_coded(
                instream_aggregate(coded, KEYS4, g, {"cnt": ("*", "count")}),
                KEYS4[:g])

    def test_rejects_bad_aggregate(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4)
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 4, {"x": ("v", "median")})
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 4, {"x": ("*", "sum")})
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 9, {"x": ("*", "count")})

    def test_rejects_aggregate_named_like_group_column(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4)
        raises_before_any_job(spark, "'k1'", lambda: instream_aggregate(
            coded, KEYS4, 2, {"k1": ("v", "max")}))

    def test_rejects_aggregate_named_ovc(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4)
        raises_before_any_job(spark, "'_ovc'", lambda: instream_aggregate(
            coded, KEYS4, 2, {OVC_COL: ("*", "count")}))

    @pytest.mark.parametrize("drop", ["k1", OVC_COL])
    def test_rejects_input_without_ovc_or_key(self, spark, web_df, drop):
        # Spark used to fail inside a task with a KeyError.
        coded = attach_ovc(web_df, KEYS4).drop(drop)
        raises_before_any_job(spark, f"'{drop}'", lambda: instream_aggregate(
            coded, KEYS4, 2, {"cnt": ("*", "count")}))

    @pytest.mark.parametrize("how", ["sum", "min", "max"])
    def test_rejects_fractional_source_before_any_job(self, spark, how):
        # The int64 cast truncated it: a sum of 1.5 and 1.5 read 2.
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 1], "v": [1.5, 1.5]}))
        coded = attach_ovc(df, ["k"], num_partitions=1)
        raises_before_any_job(spark, r"\['v'\] are missing or not integ",
                              lambda: instream_aggregate(
                                  coded, ["k"], 1, {"s": ("v", how)}))


    def test_count_of_a_column_skips_nulls(self, spark):
        # It counted rows: (1, 2), (2, 1).
        df = spark.createDataFrame([(1, 5), (1, None), (2, None)],
                                   "k long, v long")
        out = instream_aggregate(attach_ovc(df, ["k"], num_partitions=1),
                                 ["k"], 1, {"c": ("v", "count"),
                                            "n": ("*", "count")})
        assert_exact(out, "select k, count(v) as c, count(*) as n from t "
                     "group by k", t=df)

    def test_rejects_count_of_a_missing_column(self, spark):
        # It counted rows.
        df = spark.createDataFrame([(1, 5), (1, None)], "k long, v long")
        coded = attach_ovc(df, ["k"], num_partitions=1)
        raises_before_any_job(spark, "'nope'", lambda: instream_aggregate(
            coded, ["k"], 1, {"c": ("nope", "count")}))


class TestInstreamDistinct:
    def test_distinct_matches_oracle(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=8)
        out = instream_distinct(coded, KEYS4)
        assert_equivalent(
            out.drop(OVC_COL),
            "select distinct k0, k1, k2, k3 from t",
            t=web_df.select(KEYS4),
        )

    def test_distinct_with_counts(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=8)
        out = instream_distinct(coded, KEYS4, count_col="cnt")
        assert_equivalent(
            out.drop(OVC_COL),
            "select k0, k1, k2, k3, count(*) as cnt from t "
            "group by k0, k1, k2, k3",
            t=web_df.select(KEYS4),
        )

    def test_output_codes_are_valid_codes(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=4)
        for count_col in (None, "cnt"):
            assert_partitions_sorted_and_coded(
                instream_distinct(coded, KEYS4, count_col=count_col), KEYS4)

    @pytest.mark.parametrize("name", ["v", "k", OVC_COL])
    def test_rejects_count_col_naming_an_input_column(self, spark, name):
        # Spark used to fail inside a task with an obscure
        # RESULT_COLUMN_SCHEMA_MISMATCH.
        df = spark.createDataFrame(pd.DataFrame({"k": [1, 1, 2],
                                                 "v": [5, 6, 7]}))
        coded = attach_ovc(df, ["k"], num_partitions=1)
        raises_before_any_job(spark, f"'{name}'", lambda: instream_distinct(
            coded, ["k"], count_col=name))

    @pytest.mark.parametrize("drop", ["k1", OVC_COL])
    def test_rejects_input_without_ovc_or_key(self, spark, web_df, drop):
        # Spark used to fail inside a task with a KeyError.
        coded = attach_ovc(web_df.select(KEYS4), KEYS4).drop(drop)
        raises_before_any_job(spark, f"'{drop}'",
                              lambda: instream_distinct(coded, KEYS4))

    def test_no_duplicate_codes_survive(self, spark, web_df):
        coded = attach_ovc(web_df.select(KEYS4), KEYS4, num_partitions=8)
        out = instream_distinct(coded, KEYS4)
        assert out.filter(F.col(OVC_COL) == 0).count() == 0


class TestMergeJoin:
    on = ["k"]

    @pytest.fixture(scope="class")
    def lr(self, spark):
        def side(n, seed, v):
            return uniform_keys(spark, n=n, n_keys=300, seed=seed) \
                .withColumn("j", (F.col("v") * 3).cast("long")) \
                .withColumnRenamed("v", v).select(*self.on, v).cache()
        return side(800, 10, "lv"), side(600, 11, "rv")

    def join_sql(self, how):
        keys = ", ".join(f"l.{c} as {c}" for c in self.on)
        match = " and ".join(f"l.{c} = r.{c}" for c in self.on)
        return f"select {keys}, l.lv as lv, r.rv as rv " \
               f"from l {how} join r on {match}"

    def exists_sql(self, exists):
        match = " and ".join(f"l.{c} = r.{c}" for c in self.on)
        return f"select {', '.join(self.on)}, lv from l " \
               f"where {exists} (select 1 from r where {match})"

    def test_inner_join(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, self.on, "inner", num_partitions=4)
        assert_equivalent(out.drop(OVC_COL), self.join_sql("inner"),
                          l=l, r=r)

    def test_left_semi(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, self.on, "left_semi", num_partitions=4)
        assert_equivalent(out.drop(OVC_COL), self.exists_sql("exists"),
                          l=l, r=r)

    def test_left_anti(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, self.on, "left_anti", num_partitions=4)
        assert_equivalent(out.drop(OVC_COL), self.exists_sql("not exists"),
                          l=l, r=r)

    def test_left_outer(self, spark, lr):
        l, r = lr
        out = merge_join_ovc(l, r, self.on, "left_outer", num_partitions=4)
        assert_equivalent(out.drop(OVC_COL), self.join_sql("left"),
                          l=l, r=r)

    def test_rejects_ambiguous_columns(self, spark):
        df = uniform_keys(spark, n=10, n_keys=5)
        with pytest.raises(ValueError, match="ambiguous"):
            merge_join_ovc(df, df, ["k"])


    def test_rejects_reserved_column(self, spark):
        # The shuffle's side tag used to overwrite a user column so
        # named: an inner join returned _side = 0 on every row.
        l = spark.createDataFrame(
            pd.DataFrame({"k": [1, 2, 3], "_side": [7, 8, 9]}))
        with pytest.raises(ValueError, match="reserved column name"):
            merge_join_ovc(l, l.select("k"), ["k"])

    def test_runs_one_hash_shuffle_in_one_job(self, spark, lr):
        assert_one_hash_shuffle_in_one_job(
            spark, merge_join_ovc(*lr, self.on, "inner", num_partitions=4))


class TestMergeJoinTwoKeys(TestMergeJoin):
    on = ["k", "j"]


class TestIntersectDistinct:
    on = ["k"]

    @pytest.fixture(scope="class")
    def tt(self, spark):
        def side(seed):
            return uniform_keys(spark, n=1000, n_keys=400, seed=seed) \
                .withColumn("j", (F.col("v") * 3).cast("long")) \
                .select(*self.on).cache()
        return side(20), side(21)

    def intersect_sql(self):
        cols = ", ".join(self.on)
        return f"select {cols} from t1 intersect select {cols} from t2"

    @staticmethod
    def final_plan(df):
        df.collect()
        plan = df._jdf.queryExecution().executedPlan().toString()
        # Adaptive execution appends the initial plan after the final one.
        return plan.split("== Initial Plan ==")[0]

    def test_matches_sql_intersect(self, spark, tt):
        t1, t2 = tt
        out = intersect_distinct_ovc(t1, t2, self.on, num_partitions=4)
        assert_equivalent(out.drop(OVC_COL), self.intersect_sql(),
                          t1=t1, t2=t2)

    def test_partition_streams_are_sorted_and_coded(self, spark, tt):
        assert_partitions_sorted_and_coded(
            intersect_distinct_ovc(*tt, self.on, num_partitions=4), self.on)

    def test_runs_one_hash_shuffle_in_one_job(self, spark, tt):
        assert_one_hash_shuffle_in_one_job(
            spark, intersect_distinct_ovc(*tt, self.on, num_partitions=4))

    def test_runs_one_python_hop(self, spark, tt):
        # Duplicate removal runs inside the join kernel, not as a
        # second Python pass over the join's output. Every operator's
        # hop is a mapInArrow.
        coded = attach_ovc(tt[0], self.on, num_partitions=4)
        for out, hops in [
            (intersect_distinct_ovc(*tt, self.on, num_partitions=4), 1),
            (merge_join_ovc(*tt, self.on, "inner", num_partitions=4), 1),
            (coded, 1),
            (instream_distinct(coded, self.on, count_col="c"), 2),
            (instream_aggregate(coded, self.on, len(self.on),
                                {"c": ("*", "count")}), 2),
        ]:
            plan = self.final_plan(out)
            assert plan.count("MapInArrow") == hops
            assert "MapInPandas" not in plan

    def test_key_groups_split_across_arrow_batches(self, spark, tt):
        t1, t2 = tt
        match = " and ".join(f"t1.{c} = t2.{c}" for c in self.on)
        semi_sql = f"select {', '.join(self.on)} from t1 " \
                   f"where exists (select 1 from t2 where {match})"
        conf = "spark.sql.execution.arrow.maxRecordsPerBatch"
        old = spark.conf.get(conf)
        spark.conf.set(conf, "7")
        try:
            for out, sql in [
                (intersect_distinct_ovc(t1, t2, self.on, num_partitions=4),
                 self.intersect_sql()),
                (merge_join_ovc(t1, t2, self.on, "left_semi",
                                num_partitions=4), semi_sql),
            ]:
                assert_equivalent(out.drop(OVC_COL), sql, t1=t1, t2=t2)
                assert_partitions_sorted_and_coded(out, self.on)
        finally:
            spark.conf.set(conf, old)


class TestIntersectDistinctTwoKeys(TestIntersectDistinct):
    on = ["k", "j"]


class TestTypedPayloads:
    """Non-key columns pass through every operator as they came in.
    Through pandas, an int64 column holding a null was float64: 2**60 + 1
    came back as 2**60."""
    BIG = 2**60 + 1

    @pytest.fixture(scope="class")
    def lr(self, spark):
        l = spark.createDataFrame(
            [(1, self.BIG, 1.5, "a"), (2, None, None, None),
             (3, -1, 2.5, "é"), (3, -1, 2.5, "é"), (4, 7, -0.0, "")],
            "k long, lp long, ld double, ls string")
        r = spark.createDataFrame(
            [(1, None, 0.25, "r"), (2, self.BIG, None, "q"),
             (2, 3, 1e300, None), (5, 3, 1.0, "s")],
            "k long, rp long, rd double, rs string")
        return l, r

    def test_attach_ovc(self, spark, lr):
        l = lr[0]
        assert_exact(attach_ovc(l, ["k"], num_partitions=1),
                     "select k, lp, ld, ls from l", l=l)

    @pytest.mark.parametrize("count_col", [None, "c"])
    def test_instream_distinct(self, spark, lr, count_col):
        l = lr[0]
        out = instream_distinct(attach_ovc(l, ["k"], num_partitions=1),
                                ["k"], count_col=count_col)
        cols = "k, lp, ld, ls" + (", count(*) as c" if count_col else "")
        assert_exact(out, f"select {cols} from l group by k, lp, ld, ls",
                     l=l)

    @pytest.mark.parametrize("how, sql", [("inner", "join"),
                                          ("left_outer", "left join")])
    def test_merge_join(self, spark, lr, how, sql):
        l, r = lr
        out = merge_join_ovc(l, r, ["k"], how, num_partitions=2)
        assert_exact(out, "select l.k as k, lp, ld, ls, rp, rd, rs "
                     f"from l {sql} r on l.k = r.k", l=l, r=r)


class TestDefaultPartitions:
    """An omitted ``num_partitions`` is one wave of Python tasks, not
    ``spark.sql.shuffle.partitions``."""

    def test_omitted_num_partitions_is_default_parallelism(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"k": range(100)}))
        want = spark.sparkContext.defaultParallelism
        key, old = "spark.sql.shuffle.partitions", spark.conf.get(
            "spark.sql.shuffle.partitions")
        spark.conf.set(key, str(want + 3))
        try:
            for out in (attach_ovc(df, ["k"]), merge_join_ovc(df, df, ["k"]),
                        intersect_distinct_ovc(df, df, ["k"])):
                assert out.rdd.getNumPartitions() == want
        finally:
            spark.conf.set(key, old)


class TestKeyDomain:
    """Keys outside ``[0, base)`` or null cannot be coded: the executors
    must fail rather than return wrong groups."""

    def test_negative_keys_raise(self, spark):
        df = spark.createDataFrame(
            pd.DataFrame({"a": [-7, -7, -5, -5, 2]}))
        out = instream_aggregate(attach_ovc(df, ["a"], num_partitions=1),
                                 ["a"], 1, {"cnt": ("*", "count")})
        with pytest.raises(PythonException, match="outside the code domain"):
            out.collect()

    def test_null_key_raises(self, spark):
        df = spark.createDataFrame([(1,), (None,), (3,)], "a long")
        with pytest.raises(PythonException, match="null value in key"):
            attach_ovc(df, ["a"], num_partitions=1).collect()

    @pytest.mark.parametrize("how", ["sum", "min", "max"])
    def test_null_in_aggregated_column_raises(self, spark, how):
        # A null cast to int64 became -2**63: sum of [1, null, 3] was
        # -9223372036854775804.
        df = spark.createDataFrame([(1, 1), (1, None), (1, 3)], "a long, v long")
        out = instream_aggregate(attach_ovc(df, ["a"], num_partitions=1),
                                 ["a"], 1, {"s": ("v", how)})
        with pytest.raises(PythonException, match="null value in aggregated"):
            out.collect()

    def test_fractional_keys_raise_before_any_job(self, spark):
        # The int64 cast truncated them: instream_distinct returned
        # [1.2, 2.0] where DuckDB returns three rows.
        df = spark.createDataFrame(
            pd.DataFrame({"k": [1.2, 1.7, 2.0, 2.0], "j": [0, 0, 0, 0]}))
        ints = df.select(F.col("j").alias("k"))
        plans = [lambda: attach_ovc(df, ["k"], num_partitions=1),
                 lambda: merge_join_ovc(df, ints, ["k"], "left_semi"),
                 lambda: merge_join_ovc(ints, df, ["k"], "left_semi"),
                 lambda: intersect_distinct_ovc(df, ints, ["k"])]
        for plan in plans:
            raises_before_any_job(spark, r"\['k'\] are missing or not integ",
                                  plan)

    def test_merge_join_rejects_null_key(self, spark):
        l = spark.createDataFrame([(1,), (None,)], "k long")
        r = spark.createDataFrame([(1,)], "k long")
        with pytest.raises(PythonException, match="null value in key"):
            merge_join_ovc(l, r, ["k"], "left_semi",
                           num_partitions=1).collect()
