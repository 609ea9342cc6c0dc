"""Sanity tests for the provided/extended generators and the oracle."""
import numpy as np
import pytest

from repro.oracle import assert_equivalent
from repro.synth_data import uniform_keys, webkeys, webkeys_pandas


class TestWebkeys:
    @pytest.mark.parametrize("ratio", [1.0, 10.0, 50.0])
    def test_ratio_controls_group_count(self, ratio):
        pdf = webkeys_pandas(n=10_000, key_cols=4, ratio=ratio, seed=3)
        n_groups = pdf[[f"k{i}" for i in range(4)]].drop_duplicates().shape[0]
        assert abs(n_groups - 10_000 / ratio) <= max(2, 0.25 * 10_000 / ratio)

    def test_deterministic_in_seed(self):
        a = webkeys_pandas(n=100, ratio=2.0, seed=5)
        b = webkeys_pandas(n=100, ratio=2.0, seed=5)
        assert (a == b).all().all()

    def test_key_domain_is_small_nonnegative(self):
        pdf = webkeys_pandas(n=1000, key_cols=3, ratio=1.0, domain=16)
        for c in ["k0", "k1", "k2"]:
            assert pdf[c].min() >= 0

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            webkeys_pandas(n=10, ratio=0.5)

    def test_spark_variant(self, spark):
        df = webkeys(spark, n=500, key_cols=3, ratio=5.0)
        assert df.columns == ["k0", "k1", "k2", "v"]
        assert df.count() == 500


class TestTpchLite:
    def test_key_generators(self, spark):
        assert uniform_keys(spark, n=100, n_keys=10).count() == 100


class TestOracle:
    def test_oracle_accepts_correct_result(self, spark):
        wk = webkeys(spark, n=1000, key_cols=2, ratio=5.0)
        got = wk.groupBy("k0").count().withColumnRenamed("count", "cnt")
        assert_equivalent(
            got, "select k0, count(*) as cnt from wk group by k0", wk=wk
        )

    def test_oracle_rejects_wrong_result(self, spark):
        wk = webkeys(spark, n=1000, key_cols=2, ratio=5.0)
        wrong = wk.limit(10).groupBy("k0").count() \
                  .withColumnRenamed("count", "cnt")
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong, "select k0, count(*) as cnt from wk group by k0",
                wk=wk,
            )

    def test_oracle_is_exact_on_int64_beside_a_null(self, spark):
        # Through pandas both sides were float64, and 2**60 == 2**60 + 1.
        t = spark.createDataFrame([(1, 2**60 + 1), (2, None)],
                                  "k long, v long")
        sql = "select k, v from t"
        assert_equivalent(t, sql, t=t)
        wrong = spark.createDataFrame([(1, 2**60), (2, None)],
                                      "k long, v long")
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, sql, t=t)

    def test_oracle_compares_doubles_within_a_tolerance(self, spark):
        t = spark.createDataFrame([(1, 0.1 + 0.2)], "k long, d double")
        assert_equivalent(t, "select k, 0.3::double as d from t", t=t)
        with pytest.raises(AssertionError):
            assert_equivalent(t, "select k, 0.31::double as d from t", t=t)
