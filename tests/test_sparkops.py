"""Spark-level tests: the ``_ovc`` column, in-stream aggregation,
duplicate removal, merge joins, and intersect — all result-checked
against DuckDB via the oracle.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.oracle import assert_equivalent
from repro.sparkops.aggregate import instream_aggregate, instream_distinct
from repro.sparkops.joins import intersect_distinct_ovc, merge_join_ovc
from repro.sparkops.ovc_column import OVC_COL, attach_ovc, check_ovc
from repro.synth_data import uniform_keys, webkeys

KEYS4 = ["k0", "k1", "k2", "k3"]


@pytest.fixture(scope="module")
def web_df(spark):
    return webkeys(spark, n=5000, key_cols=4, ratio=10.0, seed=1).cache()


class TestAttachOvc:
    def test_codes_valid_per_partition(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, num_partitions=8)
        assert check_ovc(coded, KEYS4)

    def test_partition_streams_are_sorted_and_coded(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4, num_partitions=4) \
            .withColumn("pid", F.spark_partition_id()).toPandas()
        spec = OvcSpec(4)
        assert coded["pid"].nunique() > 1
        for _, pdf in coded.groupby("pid"):
            arr = pdf[KEYS4].to_numpy(dtype=np.int64)
            assert (encode_sorted_array(arr, spec) ==
                    pdf[OVC_COL].to_numpy()).all()

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
        coded = attach_ovc(web_df, KEYS4, partition_on=KEYS4[:1],
                           num_partitions=4)
        out = instream_aggregate(coded, KEYS4, 1, {"cnt": ("*", "count")})
        pdf = out.toPandas().sort_values("k0").reset_index(drop=True)
        spec1 = OvcSpec(1)
        arr = pdf[["k0"]].to_numpy(dtype=np.int64)
        # group keys are globally distinct; codes per partition valid.
        assert pdf["k0"].is_unique
        assert (pdf[OVC_COL].to_numpy() > 0).all()
        assert spec1.arity == 1 and len(arr) == len(pdf)

    def test_rejects_bad_aggregate(self, spark, web_df):
        coded = attach_ovc(web_df, KEYS4)
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 4, {"x": ("v", "median")})
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 4, {"x": ("*", "sum")})
        with pytest.raises(ValueError):
            instream_aggregate(coded, KEYS4, 9, {"x": ("*", "count")})


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

    def test_matches_sql_intersect(self, spark, tt):
        t1, t2 = tt
        out = intersect_distinct_ovc(t1, t2, self.on, num_partitions=4)
        cols = ", ".join(self.on)
        assert_equivalent(
            out.drop(OVC_COL),
            f"select {cols} from t1 intersect select {cols} from t2",
            t1=t1, t2=t2,
        )

    def test_partition_streams_are_sorted_and_coded(self, spark, tt):
        out = intersect_distinct_ovc(*tt, self.on, num_partitions=4) \
            .withColumn("pid", F.spark_partition_id()).toPandas()
        spec = OvcSpec(len(self.on))
        assert out["pid"].nunique() > 1
        for _, pdf in out.groupby("pid"):
            arr = pdf[self.on].to_numpy(dtype=np.int64)
            assert (arr[np.lexsort(arr.T[::-1])] == arr).all()
            assert (encode_sorted_array(arr, spec) ==
                    pdf[OVC_COL].to_numpy()).all()

    def test_runs_one_range_shuffle(self, spark, tt):
        out = intersect_distinct_ovc(*tt, self.on, num_partitions=4)
        out.collect()
        plan = out._jdf.queryExecution().executedPlan().toString()
        # Adaptive execution appends the initial plan after the final one.
        final = plan.split("== Initial Plan ==")[0]
        assert final.count("Exchange rangepartitioning") == 1


class TestIntersectDistinctTwoKeys(TestIntersectDistinct):
    on = ["k", "j"]


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

    def test_merge_join_rejects_null_key(self, spark):
        l = spark.createDataFrame([(1,), (None,)], "k long")
        r = spark.createDataFrame([(1,)], "k long")
        with pytest.raises(PythonException, match="null value in key"):
            merge_join_ovc(l, r, ["k"], "left_semi",
                           num_partitions=1).collect()
