"""Supplementary: segmented sorting (Section 4.3) vs full re-sort, and
in-stream duplicate removal (Section 4.4) over the same coded stream.

A stream sorted on (A, B) must be delivered sorted on (A, C).
Segmenting on distinct A (boundaries = one OVC offset test per row) and
sorting each small segment on C beats re-sorting the whole stream on
(A, C); both variants run on the same tree-of-losers substrate.
Duplicate removal cuts the same stream on the full key (A, B).
"""
import numpy as np
import pytest

from repro.core.external_sort import sort_in_memory
from repro.core.operators.dedup import dedup_stream
from repro.core.operators.segment import segmented_sort
from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.core.stats import CompareStats

N = 50_000
N_SEGMENTS = 500


@pytest.fixture(scope="module")
def stream(rng):
    spec_in = OvcSpec(2)
    a = np.sort(rng.integers(0, N_SEGMENTS, N))
    b = rng.integers(0, 1000, N)
    keys = np.column_stack([a, b])
    keys = keys[np.lexsort(keys.T[::-1])]
    codes = encode_sorted_array(keys, spec_in)
    c = rng.integers(0, 1000, N)
    return [
        (tuple(int(x) for x in keys[i]), int(codes[i]), int(c[i]))
        for i in range(N)
    ], spec_in


@pytest.mark.parametrize("variant", ["segmented", "full_resort"])
def test_resort_a_b_to_a_c(benchmark, stream, variant):
    rows, spec_in = stream

    def run_segmented():
        stats = CompareStats()
        n = sum(1 for _ in segmented_sort(
            iter(rows), spec_in, 1, lambda k, p: (p,), 1, stats))
        return n, stats

    def run_full():
        stats = CompareStats()
        keys = [(k[0], c) for k, _, c in rows]
        n = sum(1 for _ in sort_in_memory(keys, OvcSpec(2), stats))
        return n, stats

    n, stats = benchmark.pedantic(
        run_segmented if variant == "segmented" else run_full,
        rounds=1, iterations=1,
    )
    assert n == N
    benchmark.extra_info.update(col_cmps=stats.col_cmps,
                                row_cmps=stats.row_cmps)


def test_dedup_stream(benchmark, stream):
    rows, spec_in = stream
    n = benchmark.pedantic(
        lambda: sum(1 for _ in dedup_stream(iter(rows), spec_in)),
        rounds=1, iterations=1)
    assert n == len({k for k, _, _ in rows})
    benchmark.extra_info.update(n_out=n)
