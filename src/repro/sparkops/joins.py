"""Order-preserving merge joins and set operations in Spark: one shuffle,
one vectorized kernel.

PySpark exposes no zipPartitions for DataFrames, so the two inputs are
combined with the standard trick for co-partitioned merges: tag each
side, union, range-partition by the join key (equal keys land in one
partition) and sort within partitions by (key, tag). Each partition
then holds both sides' rows of a key range in merge order, with a
key's left rows before its right rows, and one ``mapInPandas`` runs
``merge_kernel`` over it.

The kernel is the Section 4.7 merge join in numpy. Equal join keys are
exactly the rows with the duplicate code in the merged stream, so the
codes of the merged partition give the key groups without comparing
columns again; output codes follow the filter rule generalized to
joins (``filter_codes_vectorized``), and secondary outputs of a
multi-match carry the duplicate code.

``intersect_distinct_ovc`` is a semi join followed by in-stream
duplicate removal over the join's output codes: one range shuffle, and
each code is computed once and then consumed.

Non-key columns are carried as payloads; output column layout: key
columns, left non-key columns, right non-key columns (inner/outer
only), ``_ovc``.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.core.operators.filterop import filter_codes_vectorized
from repro.core.operators.merge_join import JoinType
from repro.core.ovc import DEFAULT_BASE, OvcSpec, encode_sorted_array
from repro.sparkops.aggregate import instream_distinct
from repro.sparkops.ovc_column import OVC_COL, key_array

_TAG = "_side"
_LEFT, _RIGHT = 0, 1


def merge_kernel(
    keys: np.ndarray, tags: np.ndarray, spec: OvcSpec, join_type: JoinType
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge join of one merged partition.

    ``keys`` is the (n, arity) key array of both sides' rows sorted by
    (key, tag); ``tags`` is 0 for left rows and 1 for right rows.
    Returns ``(left_idx, right_idx, codes)``: per output row, the
    position of its left row, of its right row (-1 for semi and anti
    joins and for unmatched outer rows), and its ascending code
    relative to the previous output row.
    """
    starts = encode_sorted_array(keys, spec) != spec.duplicate_code
    gstart = np.flatnonzero(starts)
    gid = np.cumsum(starts) - 1
    lpos = np.flatnonzero(tags == _LEFT)
    lgid = gid[lpos]
    lcnt = np.bincount(lgid, minlength=len(gstart))
    rcnt = np.bincount(gid, minlength=len(gstart)) - lcnt
    matched = rcnt[lgid] > 0
    keep = {
        JoinType.INNER: matched,
        JoinType.LEFT_SEMI: matched,
        JoinType.LEFT_ANTI: ~matched,
        JoinType.LEFT_OUTER: np.ones_like(matched),
    }[join_type]
    first_codes = filter_codes_vectorized(
        encode_sorted_array(keys[lpos], spec), keep, spec
    )
    kept, kgid = lpos[keep], lgid[keep]
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
    base: int = DEFAULT_BASE,
    num_partitions: int | None = None,
) -> DataFrame:
    """Merge join of two inputs on integral key columns ``on``.

    ``how``: inner, left_semi, left_anti, left_outer. Inputs need not
    be pre-sorted or carry ``_ovc``: the tagged union is range-
    partitioned and sorted here (the "interesting ordering" a real
    planner would have arranged), and codes are derived by the kernel.
    Key values must be non-null and in ``[0, base)``; the executors
    raise ``ValueError`` otherwise.
    """
    on = list(on)
    jt = JoinType(how)
    spec = OvcSpec(len(on), base)
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
    parts = num_partitions or int(
        left.sparkSession.conf.get("spark.sql.shuffle.partitions")
    )
    tagged = tagged.repartitionByRange(parts, *on) \
                   .sortWithinPartitions(*on, _TAG)

    out_fields = [StructField(c, LongType()) for c in on]
    for c in lcols:
        out_fields.append(left.schema[c])
    if with_right:
        for c in rcols:
            # right side is nullable in outer joins
            out_fields.append(
                StructField(c, right.schema[c].dataType, True)
            )
    out_fields.append(StructField(OVC_COL, LongType(), False))
    out_schema = StructType(out_fields)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        parts_ = list(batches)
        if not parts_:
            return
        pdf = pd.concat(parts_, ignore_index=True)
        if not len(pdf):
            return
        keys = key_array(pdf, on)
        lidx, ridx, codes = merge_kernel(
            keys, pdf[_TAG].to_numpy(), spec, jt
        )
        if not len(lidx):
            return
        data = {c: keys[lidx, j] for j, c in enumerate(on)}
        for c in lcols:
            data[c] = pdf[c].to_numpy()[lidx]
        if with_right:
            rvalid = ridx >= 0
            for c in rcols:
                vals = pd.array(pdf[c].to_numpy()[np.maximum(ridx, 0)])
                data[c] = pd.Series(vals).where(rvalid, other=pd.NA)
        data[OVC_COL] = codes
        yield pd.DataFrame(data)

    return tagged.mapInPandas(run, out_schema)


def intersect_distinct_ovc(
    left: DataFrame,
    right: DataFrame,
    on: Sequence[str],
    base: int = DEFAULT_BASE,
    num_partitions: int | None = None,
) -> DataFrame:
    """``SELECT on FROM left INTERSECT SELECT on FROM right``: a semi
    merge join whose output, still holding the left side's duplicates
    as rows with the duplicate code, feeds in-stream duplicate removal
    in the same stage."""
    on = list(on)
    semi = merge_join_ovc(left.select(on), right.select(on), on,
                          "left_semi", base, num_partitions)
    return instream_distinct(semi, on, base)
