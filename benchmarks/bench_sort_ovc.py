"""Supplementary: external merge sort with vs without offset-value codes.

Same spill behaviour, same tree-of-losers structure — only the
comparison logic differs. Reported: wall clock plus column-comparison
counters (OVC bounded by N x K, plain pays a log-factor more).
"""
import numpy as np
import pytest

from repro.core.external_sort import external_sort
from repro.core.ovc import OvcSpec, compare_full, compare_update
from repro.core.stats import CompareStats

N = 100_000
MEM = 10_000
ARITY = 8


@pytest.fixture(scope="module")
def rows(rng):
    # paper Section 6 workload shape: few distinct values per column,
    # hence long shared prefixes — the regime OVC exploits.
    cols = [rng.choice([0, 1], N, p=[0.9, 0.1]) for _ in range(4)]
    cols += [rng.integers(0, 3, N) for _ in range(4)]
    keys = np.column_stack(cols)
    return [(tuple(int(x) for x in keys[i]), i) for i in range(N)]


@pytest.mark.parametrize("variant", ["ovc", "plain"])
def test_external_sort(benchmark, tmp_path, rows, variant):
    spec = OvcSpec(ARITY)
    counter = iter(range(10**6))

    def run():
        stats = CompareStats()
        d = str(tmp_path / f"{variant}{next(counter)}")
        compare = compare_update if variant == "ovc" else compare_full
        n = sum(1 for _ in external_sort(iter(rows), spec, MEM, d, stats,
                                         compare=compare))
        return n, stats

    (n, stats) = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n == N
    benchmark.extra_info.update(
        col_cmps=stats.col_cmps,
        row_cmps=stats.row_cmps,
        code_decided=stats.code_decided,
        rows_spilled=stats.rows_spilled,
    )
    if variant == "ovc":
        assert stats.col_cmps <= N * ARITY
