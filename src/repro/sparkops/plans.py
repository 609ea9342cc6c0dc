"""Single-threaded Section 6 query plans (Figures 1, 2, 3).

The paper's experiments run on one execution thread; these functions
are the driver-side equivalents, built from the core substrates:

- ``fig1_instream_aggregation``: in-stream "count(*) group by" over a
  pre-sorted coded stream, boundary detection by OVC offset test vs by
  full multi-column comparison, plus numpy-vectorized variants of both
  (the compiled analogue — the paper's C++ loop is compiled code, so
  the vectorized pair is the fair wall-clock comparison and the
  row-at-a-time pair reports machine-independent counters).

- ``sort_intersect_plan`` / ``hash_intersect_plan``: the two Figure 2
  plans for ``SELECT b FROM t1 INTERSECT SELECT b FROM t2`` with a
  row-budgeted memory limit, spill accounting, and wall-clock timing.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from repro.core.external_sort import external_sort
from repro.core.operators.grouping import group_stream, group_stream_full_compare
from repro.core.operators.merge_join import intersect_distinct
from repro.core.ovc import OvcSpec, boundary_mask, encode_sorted_array
from repro.core.stats import CompareStats
from repro.hashexec.hash_agg import hash_distinct
from repro.hashexec.hash_join import hash_join
from repro.hashexec.spill import consume_spill, grace_fanout, write_spill


@dataclass
class PlanResult:
    name: str
    seconds: float
    n_out: int
    stats: CompareStats


# ---------------------------------------------------------------- Figure 1

def fig1_instream_aggregation(
    keys: np.ndarray,
    group_cols: int,
) -> dict[str, PlanResult]:
    """Run the Figure 1 experiment on pre-sorted keys (n, K).

    Returns four measurements: vectorized OVC boundary test, vectorized
    full-column compare, row-at-a-time OVC, row-at-a-time full compare.
    The sort producing the codes is NOT part of the measurement (the
    paper measures only the consumer exploiting the preceding sort).
    """
    n, k = keys.shape
    spec = OvcSpec(k)
    codes = encode_sorted_array(keys, spec)
    out: dict[str, PlanResult] = {}

    # vectorized OVC: one integer compare per row + bincount aggregation
    t0 = time.perf_counter()
    bounds = boundary_mask(codes, spec, group_cols)
    bounds[0] = True
    gid = np.cumsum(bounds) - 1
    counts = np.bincount(gid)
    t1 = time.perf_counter()
    s = CompareStats(rows_in=n, rows_out=len(counts))
    out["ovc_vectorized"] = PlanResult("ovc_vectorized", t1 - t0,
                                       len(counts), s)

    # vectorized full compare: compare all group_cols columns row-to-row
    t0 = time.perf_counter()
    g = keys[:, :group_cols]
    bounds2 = np.empty(n, dtype=bool)
    bounds2[0] = True
    np.any(g[1:] != g[:-1], axis=1, out=bounds2[1:])
    gid2 = np.cumsum(bounds2) - 1
    counts2 = np.bincount(gid2)
    t1 = time.perf_counter()
    s = CompareStats(rows_in=n, rows_out=len(counts2),
                     col_cmps=(n - 1) * group_cols)
    out["full_vectorized"] = PlanResult("full_vectorized", t1 - t0,
                                        len(counts2), s)
    assert (bounds == bounds2).all()

    # row-at-a-time variants (smaller constant-factor honesty check)
    stream = [(tuple(int(x) for x in keys[i]), int(codes[i]), None)
              for i in range(n)]
    stats_ovc = CompareStats()
    t0 = time.perf_counter()
    n_ovc = sum(1 for _ in group_stream(
        stream, spec, group_cols,
        lambda a, kk, p: a + 1, lambda kk, p: 1, stats_ovc))
    t1 = time.perf_counter()
    out["ovc_rowwise"] = PlanResult("ovc_rowwise", t1 - t0, n_ovc, stats_ovc)

    rows = [(tuple(int(x) for x in keys[i]), None) for i in range(n)]
    stats_full = CompareStats()
    t0 = time.perf_counter()
    n_full = sum(1 for _ in group_stream_full_compare(
        rows, group_cols, lambda a, kk, p: a + 1, lambda kk, p: 1,
        stats_full))
    t1 = time.perf_counter()
    out["full_rowwise"] = PlanResult("full_rowwise", t1 - t0, n_full,
                                     stats_full)
    assert n_ovc == n_full == len(counts)
    return out


# ---------------------------------------------------------------- Figure 3

def sort_intersect_plan(
    t1_keys: np.ndarray,
    t2_keys: np.ndarray,
    memory_rows: int,
    tmpdir: str,
) -> PlanResult:
    """Sort-based Figure 2 plan: two in-sort duplicate removals (run
    generation + merge, collapsing duplicates early) feeding an OVC
    merge join for the intersection. Two blocking operators; each input
    row spilled at most once."""
    spec = OvcSpec(1, 1 << 32)
    stats = CompareStats()
    t0 = time.perf_counter()
    s1 = external_sort(
        (((int(v),), None) for v in t1_keys), spec, memory_rows,
        tmpdir, stats, dedup=True, tag="t1",
    )
    s2 = external_sort(
        (((int(v),), None) for v in t2_keys), spec, memory_rows,
        tmpdir, stats, dedup=True, tag="t2",
    )
    n_out = sum(1 for _ in intersect_distinct(s1, s2, spec, stats))
    t1 = time.perf_counter()
    stats.rows_in = len(t1_keys) + len(t2_keys)
    stats.rows_out = n_out
    return PlanResult("sort_based", t1 - t0, n_out, stats)


def hash_intersect_plan(
    t1_keys: np.ndarray,
    t2_keys: np.ndarray,
    memory_rows: int,
    tmpdir: str,
) -> PlanResult:
    """Hash-based Figure 2 plan: two hash duplicate removals feeding a
    hash join. Three blocking operators; when inputs exceed memory,
    each input row is spilled twice (once in its dedup, once in the
    join)."""
    stats = CompareStats()
    t0 = time.perf_counter()
    d1 = hash_distinct(
        (((int(v),), None) for v in t1_keys), 1, memory_rows, tmpdir,
        stats, n_input_hint=len(t1_keys), tag="d1",
    )
    d2 = hash_distinct(
        (((int(v),), None) for v in t2_keys), 1, memory_rows, tmpdir,
        stats, n_input_hint=len(t2_keys), tag="d2",
    )
    # distinct outputs can still exceed memory: the join partitions
    # (spills) both deduplicated inputs.
    n_out = sum(1 for _ in hash_join(
        ((k, None) for k, _ in d1),
        ((k, None) for k, _ in d2),
        1, memory_rows, tmpdir, stats,
        n_build_hint=len(t1_keys),
    ))
    t1 = time.perf_counter()
    stats.rows_in = len(t1_keys) + len(t2_keys)
    stats.rows_out = n_out
    return PlanResult("hash_based", t1 - t0, n_out, stats)


# ------------------------------------------------- Figure 3, vectorized

def _dedup_mask(sorted_arr: np.ndarray) -> np.ndarray:
    """Keep-mask over a sorted array: drop rows equal to their
    predecessor — the vectorized form of the duplicate-code test."""
    if not len(sorted_arr):
        return np.zeros(0, dtype=bool)
    return np.concatenate(([True], sorted_arr[1:] != sorted_arr[:-1]))


def sort_intersect_plan_vec(
    t1_keys: np.ndarray,
    t2_keys: np.ndarray,
    memory_rows: int,
    tmpdir: str,
) -> PlanResult:
    """Compiled-primitive sort plan: load-sort-spill run generation with
    in-sort duplicate removal (duplicate detection = the OVC duplicate-
    code mask), one merge pass (stable sort over concatenated sorted
    runs = the R-way merge, performed by compiled code), and a
    vectorized sorted-intersect as the merge join. Spills each input
    row at most once, exactly like the row-wise plan."""
    os.makedirs(tmpdir, exist_ok=True)
    stats = CompareStats()
    t0 = time.perf_counter()

    def dedup_sort(arr: np.ndarray, tag: str) -> np.ndarray:
        if len(arr) <= memory_rows:
            s = np.sort(arr)
            return s[_dedup_mask(s)]
        paths = []
        for i, lo in enumerate(range(0, len(arr), memory_rows)):
            s = np.sort(arr[lo: lo + memory_rows])
            run = s[_dedup_mask(s)]  # in-sort early duplicate removal
            p = f"{tmpdir}/{tag}-{i}.arrow"
            write_spill(p, {"k": run}, stats)
            paths.append(p)
        merged = np.sort(np.concatenate([consume_spill(p)[0] for p in paths]),
                         kind="stable")
        return merged[_dedup_mask(merged)]

    d1 = dedup_sort(np.asarray(t1_keys, dtype=np.int64), "s1")
    d2 = dedup_sort(np.asarray(t2_keys, dtype=np.int64), "s2")
    inter = np.intersect1d(d1, d2, assume_unique=True)
    t1 = time.perf_counter()
    stats.rows_in = len(t1_keys) + len(t2_keys)
    stats.rows_out = len(inter)
    return PlanResult("sort_based_vec", t1 - t0, len(inter), stats)


def hash_intersect_plan_vec(
    t1_keys: np.ndarray,
    t2_keys: np.ndarray,
    memory_rows: int,
    tmpdir: str,
) -> PlanResult:
    """Compiled-primitive hash plan: Grace hash partitioning to disk for
    each duplicate removal (spilling every input row), then the hash
    join Grace-partitions both deduplicated inputs again (second spill
    pass) and probes with a compiled hash table (pandas isin)."""
    import pandas as pd

    os.makedirs(tmpdir, exist_ok=True)
    stats = CompareStats()
    t0 = time.perf_counter()

    def hash_parts(arr: np.ndarray, n_parts: int, tag: str) -> list[str]:
        # single-pass partitioning: stable sort rows by partition id,
        # then slice contiguous partitions (compiled, no O(N*F) scans)
        h = (arr.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(n_parts)
        stats.hash_ops += len(arr)
        stats.col_accesses += len(arr)
        order = np.argsort(h, kind="stable")
        arr_sorted = arr[order]
        counts = np.bincount(h.astype(np.int64), minlength=n_parts)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        return [write_spill(f"{tmpdir}/{tag}-{p}.arrow",
                            {"k": arr_sorted[bounds[p]: bounds[p + 1]]}, stats)
                for p in range(n_parts)]

    def dedup_hash(arr: np.ndarray, tag: str) -> np.ndarray:
        if len(arr) <= memory_rows:
            stats.hash_ops += len(arr)
            stats.col_accesses += len(arr)
            return pd.unique(arr)
        paths = hash_parts(arr, grace_fanout(memory_rows, len(arr)), tag)
        return np.concatenate([pd.unique(consume_spill(p)[0])
                               for p in paths])

    d1 = dedup_hash(np.asarray(t1_keys, dtype=np.int64), "h1")
    d2 = dedup_hash(np.asarray(t2_keys, dtype=np.int64), "h2")
    if max(len(d1), len(d2)) <= memory_rows:
        n_out = int(pd.Series(d2).isin(d1).sum())
        stats.hash_ops += len(d1) + len(d2)
        stats.col_accesses += len(d1) + len(d2)
    else:
        n_parts = grace_fanout(memory_rows, max(len(d1), len(d2)))
        p1 = hash_parts(d1, n_parts, "j1")
        p2 = hash_parts(d2, n_parts, "j2")
        n_out = 0
        for a, b in zip(p1, p2):
            n_out += int(pd.Series(consume_spill(b)[0])
                         .isin(consume_spill(a)[0]).sum())
            stats.hash_ops += 1
    t1 = time.perf_counter()
    stats.rows_in = len(t1_keys) + len(t2_keys)
    stats.rows_out = n_out
    return PlanResult("hash_based_vec", t1 - t0, n_out, stats)
