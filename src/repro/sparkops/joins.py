"""Order-preserving merge joins and set operations in Spark: one shuffle,
one vectorized kernel.

PySpark exposes no zipPartitions for DataFrames, so the two inputs are
combined as Spark's own sort-merge join combines them: tag each side,
union, hash-partition by the join key (equal keys land in one
partition) and sort within partitions by (key, tag). Each partition
then holds both sides' rows of whole key groups in merge order, with a
key's left rows before its right rows, and one ``mapInArrow`` runs
``merge_kernel`` over it. The join needs no total order across
partitions, so there is no range-sampling job: one query is one Spark
job.

The kernel is the Section 4.7 merge join in numpy. Equal join keys are
exactly the rows with the duplicate code in the merged stream, so the
codes of the merged partition give the key groups without comparing
columns again; output codes follow the filter rule generalized to
joins (``filter_codes_vectorized``), and secondary outputs of a
multi-match carry the duplicate code.

``intersect_distinct_ovc`` folds Section 4.4 duplicate removal into
the kernel: only a key group's first left row may match, so a semi join
yields INTERSECT DISTINCT in one hash shuffle and one Python pass.

Non-key columns are carried as payloads; output column layout: key
columns, left non-key columns, right non-key columns (inner/outer
only), ``_ovc``.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.operators.filterop import filter_codes_vectorized
from repro.core.operators.merge_join import JoinType
from repro.core.ovc import OvcSpec, boundary_mask, encode_sorted_array
from repro.sparkops.ovc_column import (OVC_COL, check_integral_keys,
                                       default_partitions, key_array,
                                       map_in_arrow, whole_partition)

_TAG = "_side"
_LEFT, _RIGHT = 0, 1


def merge_kernel(
    keys: np.ndarray, tags: np.ndarray, spec: OvcSpec, join_type: JoinType,
    distinct: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge join of one merged partition.

    ``keys`` is the (n, arity) key array of both sides' rows sorted by
    (key, tag); ``tags`` is 0 for left rows and 1 for right rows.
    ``distinct`` keeps only the first left row of each key group, so a
    semi join is INTERSECT DISTINCT. Returns ``(left_idx, right_idx,
    codes)``: per output row, the position of its left row, of its
    right row (-1 for semi and anti joins and for unmatched outer
    rows), and its ascending code relative to the previous output row.
    """
    merged_codes = encode_sorted_array(keys, spec)
    starts = boundary_mask(merged_codes, spec, spec.arity)
    gstart = np.flatnonzero(starts)
    gid = np.cumsum(starts) - 1
    left = tags == _LEFT
    lcnt = np.bincount(gid[left], minlength=len(gstart))
    rcnt = np.bincount(gid, minlength=len(gstart)) - lcnt
    matched = (rcnt > 0)[gid]
    keep = left & {
        JoinType.INNER: matched,
        JoinType.LEFT_SEMI: matched,
        JoinType.LEFT_ANTI: ~matched,
        JoinType.LEFT_OUTER: True,
    }[join_type]
    if distinct:  # a group's left rows sort first: keep its first row
        keep &= starts
    # The filter rule turns the merged codes into the kept rows' codes.
    first_codes = filter_codes_vectorized(merged_codes, keep)
    kept = np.flatnonzero(keep)
    kgid = gid[kept]
    if join_type in (JoinType.LEFT_SEMI, JoinType.LEFT_ANTI):
        return kept, np.full(len(kept), -1, dtype=np.int64), first_codes
    # Each kept left row pairs with every right row of its group, which
    # sit right after the group's left rows; an unmatched outer row
    # pairs with none.
    reps = np.maximum(rcnt[kgid], 1)
    first = np.cumsum(reps) - reps
    left_idx = np.repeat(kept, reps)
    within = np.arange(len(left_idx)) - np.repeat(first, reps)
    right_idx = np.repeat(gstart[kgid] + lcnt[kgid], reps) + within
    right_idx[np.repeat(rcnt[kgid] == 0, reps)] = -1
    codes = np.full(len(left_idx), spec.duplicate_code, dtype=np.int64)
    codes[first] = first_codes
    return left_idx, right_idx, codes


def merge_join_ovc(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    how: str = "inner",
    num_partitions: int | None = None,
) -> DataFrame:
    """Merge join of two inputs on integral key columns ``on``.

    ``how``: inner, left_semi, left_anti, left_outer. Inputs need not
    be pre-sorted or carry ``_ovc``: the tagged union is hash
    co-partitioned on ``on`` and sorted within partitions here (the
    "interesting ordering" a real planner would have arranged), and
    codes are derived by the kernel. Each output partition is a sorted
    coded stream of whole key groups; there is no total order across
    partitions.
    Key columns that are not integral raise ``ValueError`` here; the
    executors raise it on a null key or one outside ``[0, 2**32)``.
    """
    return _merge_join(left, right, list(on), JoinType(how), num_partitions,
                       distinct=False)


def _merge_join(left: DataFrame, right: DataFrame, on: list[str],
                jt: JoinType, num_partitions: int | None,
                distinct: bool) -> DataFrame:
    spec = OvcSpec(len(on))
    if _TAG in left.columns or _TAG in right.columns:
        raise ValueError(f"reserved column name: {_TAG!r}")
    check_integral_keys(on, left, right)
    lcols = [c for c in left.columns if c not in on and c != OVC_COL]
    rcols = [c for c in right.columns if c not in on and c != OVC_COL]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"ambiguous non-key columns: {sorted(overlap)}")
    with_right = jt in (JoinType.INNER, JoinType.LEFT_OUTER)

    tagged = left.drop(OVC_COL).withColumn(_TAG, F.lit(_LEFT)).unionByName(
        right.drop(OVC_COL).withColumn(_TAG, F.lit(_RIGHT)),
        allowMissingColumns=True,
    )
    parts = num_partitions or default_partitions(left)
    tagged = tagged.repartition(parts, *on).sortWithinPartitions(*on, _TAG)

    out_fields = [StructField(c, LongType()) for c in on]
    out_fields += [left.schema[c] for c in lcols]
    if with_right:  # the right side is nullable in outer joins
        out_fields += [StructField(c, right.schema[c].dataType, True)
                       for c in rcols]
    out_fields.append(StructField(OVC_COL, LongType(), False))
    out_schema = StructType(out_fields)

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[dict]:
        data = whole_partition(batches)
        if not len(data):
            return
        keys = key_array(data, on)
        lidx, ridx, codes = merge_kernel(
            keys, data[_TAG].to_numpy(), spec, jt, distinct
        )
        out = {c: keys[lidx, j] for j, c in enumerate(on)}
        out.update((c, data[c].take(lidx)) for c in lcols)
        if with_right:  # a null index takes a null: unmatched outer rows
            ridx = pa.array(ridx, mask=ridx < 0)
            out.update((c, data[c].take(ridx)) for c in rcols)
        out[OVC_COL] = codes
        yield out

    return map_in_arrow(tagged, run, out_schema)


def intersect_distinct_ovc(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    num_partitions: int | None = None,
) -> DataFrame:
    """``SELECT on FROM left INTERSECT SELECT on FROM right``: a semi
    merge join that lets only the first left row of each key group
    match, so duplicates are removed in the join's own pass."""
    on = list(on)
    return _merge_join(left.select(on), right.select(on), on,
                       JoinType.LEFT_SEMI, num_partitions,
                       distinct=True)
