"""``repro.arrowbuf``, the buffer-level Arrow <-> numpy conversions of
executor code: offsets, chunks, narrow and unsigned types, bitmaps at a
bit offset, and the Spark paths that carry nulls. Executor entry points
import no pandas, checked in a fresh interpreter."""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pytest
from pyspark.sql.types import LongType, StructField, StructType

from repro.arrowbuf import exact_numpy, int64_array, int64s
from repro.core.ovc import OvcSpec
from repro.oracle import assert_equivalent
from repro.sparkops.joins import merge_join_ovc
from repro.sparkops.ovc_column import OVC_COL, key_array, map_in_arrow
from repro.storage.datasource import OvcDataSource
from repro.storage.lsm import LsmForest

BIG = 2**60 + 1
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class _Frame:
    """Keeps the task ``map_in_arrow`` hands to ``mapInArrow``."""

    def mapInArrow(self, task, schema):
        self.task = task
        return self


@pytest.mark.parametrize("typ, values", [
    (pa.int8(), [-128, -1, 0, 127]),
    (pa.int16(), [-32768, 5, 32767, 0]),
    (pa.int32(), [-2**31, 7, 2**31 - 1, 0]),
    (pa.uint32(), [0, 1, 2**32 - 1, 2**31]),
    (pa.int64(), [-2**63, BIG, 2**63 - 1, 0]),
    (pa.uint64(), [0, 3, 2**63 - 1, 9]),
])
def test_int64s_of_each_integral_type(typ, values):
    arr = pa.array(values, typ)
    got = int64s(arr)
    assert got.dtype == np.int64 and got.tolist() == values
    assert int64s(arr.slice(1, 2)).tolist() == values[1:3]
    assert key_array(pa.table({"k": arr, "j": arr}), ["k", "j"]).tolist() \
        == [[v, v] for v in values]


def test_sliced_array_reads_from_its_offset():
    arr = pa.array(np.arange(20, dtype=np.int32)).slice(13, 5)
    assert arr.offset == 13
    assert int64s(arr).tolist() == [13, 14, 15, 16, 17]
    assert exact_numpy(arr).tolist() == [13, 14, 15, 16, 17]


def test_chunks_including_an_empty_one():
    col = pa.chunked_array([pa.array([1, 2]), pa.array([], pa.int64()),
                            pa.array([BIG, 4, 5]).slice(1)], pa.int64())
    assert int64s(col).tolist() == [1, 2, 4, 5]
    assert int64s(pa.chunked_array([], pa.int64())).tolist() == []
    nulls = pa.chunked_array([[None, 1], [], [BIG, None, 7]], pa.int64())
    assert exact_numpy(nulls).tolist() == [None, 1, BIG, None, 7]


def test_result_is_a_fresh_writable_array():
    arr = pa.array([1, 2, 3], pa.int64())
    got = int64s(arr)
    got[0] = 9
    assert arr.to_pylist() == [1, 2, 3]


def test_booleans_at_a_bit_offset():
    bits = [i % 3 == 0 for i in range(21)]
    arr = pa.array(bits).slice(5, 13)
    assert int64s(arr).tolist() == [int(b) for b in bits[5:18]]
    assert int64s(arr.is_valid()).tolist() == [1] * 13


def test_validity_bitmap_at_a_bit_offset():
    values = [None if i % 4 == 1 else BIG + i for i in range(30)]
    arr = pa.array(values, pa.int64())
    for start, n in [(0, 30), (3, 11), (9, 17), (29, 1), (30, 0)]:
        assert exact_numpy(arr.slice(start, n)).tolist() == \
            values[start:start + n]
    assert exact_numpy(pa.array([1, 2], pa.int64())).dtype == np.int64


def test_rejects_a_non_integral_column():
    with pytest.raises(TypeError, match="double"):
        int64s(pa.array([1.5]))


def test_int64_array_with_and_without_nulls():
    values = np.arange(11, dtype=np.int64) + BIG
    null = np.arange(11) % 5 == 2
    arr = int64_array(values, null=null)
    assert arr.null_count == 2 and arr.type == pa.int64()
    assert arr.to_pylist() == [None if m else int(v)
                               for v, m in zip(values, null)]
    assert int64_array(values, null=np.zeros(11, bool)).null_count == 0
    assert int64_array(values[::2]).to_pylist() == values[::2].tolist()
    assert len(int64_array(np.empty(0, np.int64))) == 0
    # A null index takes a null: the outer join's right side.
    right = pa.array([7, 8], pa.int64())
    idx = int64_array(np.array([-1, 1, -1]), null=np.array([1, 0, 1], bool))
    assert right.take(idx).to_pylist() == [None, 8, None]


def test_zero_row_batches_through_map_in_arrow():
    schema = StructType([StructField("k", LongType()),
                         StructField("p", LongType())])
    empty = pa.record_batch([pa.array([], pa.int64())] * 2, ["k", "p"])
    assert key_array(empty, ["k", "p"]).shape == (0, 2)

    def kernel(batches):
        for batch in batches:
            yield {"k": key_array(batch, ["k"])[:, 0], "p": batch["p"]}

    task = map_in_arrow(_Frame(), kernel, schema).task
    out = list(task(iter([empty, empty])))
    assert sum(b.num_rows for b in out) == 0
    assert all(b.schema.names == ["k", "p"] for b in out)


def test_map_in_arrow_casts_to_the_schema_type():
    schema = StructType([StructField("k", LongType()),
                         StructField("x", LongType())])

    def kernel(batches):
        for batch in batches:
            yield {"k": batch["k"], "x": np.array([3, 4])}

    task = map_in_arrow(_Frame(), kernel, schema).task
    batch = pa.record_batch([pa.array([1, 2], pa.int32())], ["k"])
    (out,) = task(iter([batch]))
    assert out.schema.types == [pa.int64(), pa.int64()]
    assert out.to_pydict() == {"k": [1, 2], "x": [3, 4]}


def test_outer_join_with_an_all_null_right_side(spark):
    l = spark.createDataFrame([(1, BIG), (2, None), (2, 5)],
                              "k long, lp long")
    r = spark.createDataFrame([(7, BIG), (9, None)], "k long, rp long")
    out = merge_join_ovc(l, r, ["k"], "left_outer", num_partitions=2)
    rows = out.collect()
    assert sorted(r.rp is None for r in rows) == [True] * 3
    assert_equivalent(out.drop(OVC_COL),
                      "select l.k as k, lp, rp from l left join r "
                      "on l.k = r.k", l=l, r=r)


def test_nullable_payload_through_an_ovc_scan(spark, tmp_path):
    forest = LsmForest(str(tmp_path / "forest"), OvcSpec(2))
    forest.ingest(np.array([[1, 0], [0, 5], [1, 0]]),
                  np.array([BIG, None, -1], dtype=object))
    forest.ingest(np.array([[2, 2]]), np.array([None], dtype=object))
    spark.dataSource.register(OvcDataSource)
    df = spark.read.format("ovc").option("path", forest.root).load()
    rows = sorted((r.k0, r.k1, r.p0) for r in df.collect())
    assert rows == [(0, 5, None), (1, 0, -1), (1, 0, BIG), (2, 2, None)]


_NO_PANDAS = textwrap.dedent("""
    import sys

    import numpy as np
    import pyarrow as pa
    from pyspark.sql.types import LongType, StructField, StructType

    from repro.arrowbuf import int64_array
    from repro.core.operators.merge_join import JoinType
    from repro.sparkops.aggregate import instream_aggregate, instream_distinct
    from repro.sparkops.joins import join_kernel
    from repro.sparkops.ovc_column import attach_ovc, key_array, map_in_arrow
    from repro.storage.datasource import OvcReader

    BIG = 2**60 + 1


    class Frame:
        \"\"\"A DataFrame of ``schema`` that keeps the task ``map_in_arrow``
        hands to ``mapInArrow``, so that it runs in this process.\"\"\"

        def __init__(self, *names):
            self.schema = StructType([StructField(n, LongType())
                                      for n in names])
            self.columns = list(names)

        def repartitionByRange(self, *args):
            return self

        sortWithinPartitions = repartitionByRange

        def mapInArrow(self, task, schema):
            self.task = task
            return self

        def run(self, *batches):
            return pa.Table.from_batches(list(self.task(iter(batches))))


    def batch(**cols):
        return pa.RecordBatch.from_arrays([
            int64_array(np.array([0 if v is None else v for v in vals]),
                        null=np.array([v is None for v in vals]))
            for vals in cols.values()], list(cols))


    reader = OvcReader(sys.argv[1])
    scanned = [b for p in reader.partitions() for b in reader.read(p)]
    keys = key_array(pa.Table.from_batches(scanned), ["k0", "k1"])
    assert keys.tolist() == [[0, 5], [1, 0], [1, 0], [2, 2]], keys
    assert scanned[0]["p0"].to_pylist() == [None, BIG, -1]

    kv = batch(k=[1, 1, 2], v=[BIG, None, 5])
    coded = attach_ovc(Frame("k", "v"), ["k"], num_partitions=1).run(kv)
    assert coded["v"].to_pylist() == [BIG, None, 5], coded
    agg = instream_aggregate(Frame("k", "v", "_ovc"), ["k"], 1, {
        "c": ("v", "count"), "m": ("k", "max")}).run(*coded.to_batches())
    assert agg.select(["k", "c", "m"]).to_pydict() == {
        "k": [1, 2], "c": [1, 1], "m": [1, 2]}, agg
    dist = instream_distinct(Frame("k", "v", "_ovc"), ["k"],
                             count_col="n").run(*coded.to_batches())
    assert dist.select(["v", "n"]).to_pydict() == {
        "v": [BIG, 5], "n": [2, 1]}, dist

    # One partition of a merge join's tagged union, sorted by (k, side).
    tagged = batch(k=[1, 1, 2, 3], lp=[BIG, None, None, None],
                   rp=[None, 6, None, 4], _side=[0, 1, 0, 1])
    kernel = join_kernel(["k"], ["lp"], ["rp"], JoinType.LEFT_OUTER, False)
    out = map_in_arrow(Frame(), kernel, Frame("k", "lp", "rp", "_ovc").schema
                       ).run(tagged)
    assert out.select(["lp", "rp"]).to_pydict() == {
        "lp": [BIG, None], "rp": [6, None]}, out
    print("pandas" in sys.modules)
""")


def test_executor_entry_points_import_no_pandas(tmp_path):
    forest = LsmForest(str(tmp_path / "forest"), OvcSpec(2))
    forest.ingest(np.array([[1, 0], [0, 5], [1, 0]]),
                  np.array([BIG, None, -1], dtype=object))
    forest.ingest(np.array([[2, 2]]), np.array([None], dtype=object))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.abspath(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NO_PANDAS, forest.root],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False", "an executor path imported pandas"
