"""Synthetic key data: the paper's Section 6 workload (``webkeys``) and
a uniform single-key table (``uniform_keys``).

Generators are deterministic in ``seed`` so the DuckDB oracle sees
identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_keys(spark: SparkSession, *, n: int, n_keys: int, seed: int = 4) -> DataFrame:
    g = _rng(seed)
    return spark.createDataFrame(
        pd.DataFrame({"k": g.integers(1, n_keys + 1, n), "v": g.random(n)})
    )


def webkeys(
    spark: SparkSession,
    *,
    n: int,
    key_cols: int = 4,
    ratio: float = 1.0,
    domain: int = 16,
    seed: int = 6,
) -> DataFrame:
    """The paper's Section 6 workload: many rows with ``key_cols``
    8-byte integer key columns, each with only a few distinct values.

    ``ratio`` is the paper's input/output group-size ratio: the rows are
    drawn from ~``n / ratio`` distinct key combinations, so grouping on
    all key columns yields groups of average size ``ratio`` (ratio=1:
    all rows distinct — approximately, by sampling without replacement).
    Columns are named ``k0..k{key_cols-1}`` plus a payload ``v``.
    """
    pdf = webkeys_pandas(n=n, key_cols=key_cols, ratio=ratio,
                         domain=domain, seed=seed)
    return spark.createDataFrame(pdf)


def webkeys_pandas(
    *, n: int, key_cols: int = 4, ratio: float = 1.0,
    domain: int = 16, seed: int = 6,
) -> pd.DataFrame:
    """pandas variant of :func:`webkeys` for driver-side algorithms."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    g = _rng(seed)
    n_groups = max(1, int(round(n / ratio)))
    # enough distinct combinations to draw n_groups distinct key tuples
    while domain**key_cols < n_groups * 2:
        domain *= 2
    # sample distinct group keys via random int codes without replacement
    codes = g.choice(domain**key_cols, size=n_groups, replace=False) \
        if domain**key_cols < 1 << 62 else g.integers(0, domain**key_cols, n_groups)
    # each group contributes ~n/n_groups rows exactly (paper: "a ratio
    # of 1 indicates all input rows are distinct"), in shuffled order
    counts = np.full(n_groups, n // n_groups)
    counts[: n - counts.sum()] += 1
    rows = g.permutation(np.repeat(codes, counts))
    data = {}
    for c in range(key_cols - 1, -1, -1):
        data[f"k{c}"] = rows % domain
        rows = rows // domain
    pdf = pd.DataFrame({f"k{c}": data[f"k{c}"] for c in range(key_cols)})
    pdf["v"] = g.integers(0, 1000, n)
    return pdf
