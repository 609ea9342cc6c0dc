"""DuckDB correctness oracle.

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``spark_df`` (the
Spark result). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark DataFrames (registered through ``.toArrow()``)
or anything DuckDB registers. Both results are read as Arrow and
compared as Python values, exact but for doubles (12 digits).
Alias every output column identically on both sides (Spark names
``count(*)`` as ``count(1)``, DuckDB as ``count_star()``) and project to
scalar columns — array/map/struct columns cannot be ordered here.
"""
import duckdb
import pyarrow as pa
from pyspark.sql import DataFrame


def _rows(table: pa.Table) -> list[tuple]:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal. A
    # double keeps 12 significant digits: summation order moves the last.
    rows = zip(*(table[n].to_pylist() for n in sorted(table.column_names)))
    rows = [tuple(float(f"{v:.12g}") if isinstance(v, float) else v
                  for v in r) for r in rows]
    return sorted(rows, key=lambda r: [(v is None, v) for v in r])


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toArrow() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetch_arrow_table()
    finally:
        con.close()
    got = spark_df.toArrow()
    assert set(expected.column_names) == set(got.column_names), (
        f"column mismatch: {sorted(got.column_names)} vs "
        f"{sorted(expected.column_names)} — alias every output column "
        "identically on both sides"
    )
    got, expected = _rows(got), _rows(expected)
    assert got == expected, (
        f"{len(got)} rows vs DuckDB's {len(expected)}; first differing: "
        f"{[(g, e) for g, e in zip(got, expected) if g != e][:3]}")
