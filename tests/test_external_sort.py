"""Tests for run files, run generation, and external merge sort."""
import numpy as np
import pyarrow as pa
import pyarrow.ipc as ipc
import pytest

from repro.core.external_sort import (
    external_sort,
    generate_runs,
    merge_runs,
    sort_in_memory,
)
from repro.core.ovc import OvcSpec, compare_full
from repro.core.runs import memory_loads, run_rows, write_run
from repro.core.stats import CompareStats
from repro.storage.columnar import ColumnarRun

SPEC = OvcSpec(arity=3, base=100)


def random_rows(rng, n, arity=3, dom=6):
    return [
        (tuple(int(x) for x in rng.integers(0, dom, arity)), i)
        for i in range(n)
    ]


def bruteforce_codes(keys, spec):
    return [
        spec.encode_rel(None if i == 0 else keys[i - 1], keys[i])
        for i in range(len(keys))
    ]


class TestRunFiles:
    def test_roundtrip(self, tmp_path):
        rows = [((1, 2, 3), SPEC.prime((1, 2, 3)), 7),
                ((1, 2, 5), SPEC.code(2, 5), None)]
        rf = write_run(str(tmp_path / "r.arrow"), rows, SPEC)
        assert rf.n_rows == 2
        assert list(run_rows(rf)) == rows

    def test_reopen_counts_rows(self, tmp_path):
        rows = [((i, 0, 0), 0 if i else SPEC.prime((0, 0, 0)), None)
                for i in range(10)]
        path = str(tmp_path / "r.arrow")
        write_run(path, rows, SPEC)
        assert ColumnarRun(path).n_rows == 10

    def test_spill_accounting(self, tmp_path):
        stats = CompareStats()
        rows = [((i, 0, 0), SPEC.prime((i, 0, 0)), None) for i in range(5)]
        write_run(str(tmp_path / "r.arrow"), rows, SPEC, stats)
        assert stats.rows_spilled == 5

    def test_delete(self, tmp_path):
        import os

        path = str(tmp_path / "r.arrow")
        rf = write_run(path, [((1, 1, 1), SPEC.prime((1, 1, 1)), None)], SPEC)
        rf.delete()
        assert not os.path.exists(path)

    def test_spilled_sort_run_is_a_columnar_run(self, tmp_path):
        rng = np.random.default_rng(6)
        runs, _ = generate_runs(iter(random_rows(rng, 30)), SPEC, 10,
                                str(tmp_path))
        assert len(runs) == 3
        for r in runs:
            reopened = ColumnarRun(r.path)
            assert (reopened.n_rows, reopened.spec) == (10, SPEC)
            with pa.OSFile(r.path, "rb") as f:
                names = ipc.open_file(f).schema.names
            assert "_ovc" not in names and "_payload" not in names


class TestSortInMemory:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 257])
    def test_sorted_with_correct_codes(self, n):
        rng = np.random.default_rng(n)
        rows = random_rows(rng, n)
        out = list(sort_in_memory([r[0] for r in rows], SPEC,
                                  payloads=[r[1] for r in rows]))
        keys = [k for k, _, _ in out]
        assert keys == sorted(r[0] for r in rows)
        assert [c for _, c, _ in out] == bruteforce_codes(keys, SPEC)

    def test_payload_permutation_is_consistent(self):
        rng = np.random.default_rng(9)
        rows = random_rows(rng, 100)
        out = list(sort_in_memory([r[0] for r in rows], SPEC,
                                  payloads=[r[1] for r in rows]))
        for key, _, payload in out:
            assert rows[payload][0] == key

    def test_column_comparisons_bounded(self):
        rng = np.random.default_rng(1)
        rows = random_rows(rng, 500, arity=4, dom=3)
        stats = CompareStats()
        list(sort_in_memory([r[0] for r in rows], OvcSpec(4, 100), stats))
        assert stats.col_cmps <= 500 * 4


class TestMemoryLoads:
    @pytest.mark.parametrize("mem,n", [
        (m, n) for m in (1, 3)
        for n in sorted({0, m - 1, m, m + 1, 2 * m, 2 * m + 1})])
    def test_fits_iff_one_load_and_cuts_full_loads(self, mem, n):
        fits, loads = memory_loads(iter(range(n)), mem)
        loads = list(loads)
        assert fits == (n <= mem)
        assert [r for load in loads for r in load] == list(range(n))
        assert all(len(load) == mem for load in loads[:-1])
        assert all(1 <= len(load) <= mem for load in loads)

    def test_rejects_zero_memory(self):
        with pytest.raises(ValueError):
            memory_loads(iter([]), 0)


class TestGenerateRuns:
    def test_input_fits_in_memory_no_spill(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = random_rows(rng, 50)
        stats = CompareStats()
        runs, in_mem = generate_runs(iter(rows), SPEC, 100, str(tmp_path), stats)
        assert runs == [] and in_mem is not None
        assert stats.rows_spilled == 0
        assert [k for k, _, _ in in_mem] == sorted(r[0] for r in rows)

    def test_exactly_one_full_load_no_spill(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = random_rows(rng, 100)
        stats = CompareStats()
        runs, in_mem = generate_runs(iter(rows), SPEC, 100, str(tmp_path), stats)
        assert runs == [] and in_mem is not None
        assert stats.rows_spilled == 0
        assert len(list(in_mem)) == 100

    def test_large_input_spills_each_row_once(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = random_rows(rng, 250)
        stats = CompareStats()
        runs, in_mem = generate_runs(iter(rows), SPEC, 100, str(tmp_path), stats)
        assert in_mem is None
        assert len(runs) == 3
        assert stats.rows_spilled == 250  # the Figure 3 invariant
        assert sum(r.n_rows for r in runs) == 250

    def test_runs_are_sorted_with_valid_codes(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = random_rows(rng, 230)
        runs, _ = generate_runs(iter(rows), SPEC, 64, str(tmp_path))
        for r in runs:
            rows_r = list(run_rows(r))
            keys = [k for k, _, _ in rows_r]
            assert keys == sorted(keys)
            assert [c for _, c, _ in rows_r] == bruteforce_codes(keys, SPEC)

    def test_rejects_zero_memory(self, tmp_path):
        with pytest.raises(ValueError):
            generate_runs(iter([]), SPEC, 0, str(tmp_path))


class TestExternalSort:
    @pytest.mark.parametrize("n,mem", [(0, 10), (5, 10), (100, 10),
                                       (1000, 64), (777, 100)])
    def test_matches_sorted_with_codes(self, tmp_path, n, mem):
        rng = np.random.default_rng(n + mem)
        rows = random_rows(rng, n)
        out = list(external_sort(iter(rows), SPEC, mem, str(tmp_path)))
        keys = [k for k, _, _ in out]
        assert keys == sorted(r[0] for r in rows)
        assert [c for _, c, _ in out] == bruteforce_codes(keys, SPEC)

    def test_dedup_collapses_duplicates_with_counts(self, tmp_path):
        rows = [((1, 1, 1), None)] * 3 + [((0, 0, 0), None)] * 2
        out = list(external_sort(iter(rows), SPEC, 2, str(tmp_path), dedup=True))
        assert [(k, p) for k, _, p in out] == [((0, 0, 0), 2), ((1, 1, 1), 3)]

    def test_dedup_output_has_no_duplicate_codes(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = random_rows(rng, 400, arity=2, dom=3)
        spec = OvcSpec(2, 100)
        out = list(external_sort(iter(rows), spec, 64, str(tmp_path), dedup=True))
        assert all(not spec.is_duplicate(c) for _, c, _ in out)
        keys = [k for k, _, _ in out]
        assert keys == sorted(set(r[0] for r in rows))
        assert sum(p for _, _, p in out) == 400

    def test_dedup_reduces_spill_volume(self, tmp_path):
        rows = [((i % 4, 0, 0), None) for i in range(300)]
        s_dedup, s_plain = CompareStats(), CompareStats()
        list(external_sort(iter(rows), SPEC, 50, str(tmp_path / "a"), s_dedup,
                           dedup=True))
        list(external_sort(iter(rows), SPEC, 50, str(tmp_path / "b"), s_plain))
        assert s_dedup.rows_spilled < s_plain.rows_spilled

    def test_merge_runs_direct(self, tmp_path):
        rng = np.random.default_rng(11)
        all_rows = []
        runs = []
        for i in range(4):
            keys = sorted(tuple(int(x) for x in rng.integers(0, 5, 3))
                          for _ in range(30))
            codes = bruteforce_codes(keys, SPEC)
            runs.append(write_run(str(tmp_path / f"r{i}.arrow"),
                                  [(k, c, None) for k, c in zip(keys, codes)],
                                  SPEC))
            all_rows += keys
        out = list(merge_runs(runs, SPEC))
        keys = [k for k, _, _ in out]
        assert keys == sorted(all_rows)
        assert [c for _, c, _ in out] == bruteforce_codes(keys, SPEC)


def plain_sort(rows, mem, tmpdir, stats=None, arity=3):
    """The baseline: ``external_sort`` with full-key comparisons; drops
    the codes, which it does not maintain."""
    return [(k, p) for k, _, p in external_sort(
        rows, OvcSpec(arity, 100), mem, tmpdir, stats, compare=compare_full)]


class TestExternalSortPlain:
    @pytest.mark.parametrize("n,mem", [(0, 10), (50, 100), (100, 100),
                                       (345, 50)])
    def test_matches_sorted(self, tmp_path, n, mem):
        rng = np.random.default_rng(n * 7 + mem)
        rows = random_rows(rng, n)
        out = plain_sort(iter(rows), mem, str(tmp_path))
        assert [k for k, _ in out] == sorted(r[0] for r in rows)

    def test_spills_match_ovc_variant(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = random_rows(rng, 300)
        s_ovc, s_plain = CompareStats(), CompareStats()
        list(external_sort(iter(rows), SPEC, 64, str(tmp_path / "a"), s_ovc))
        plain_sort(iter(rows), 64, str(tmp_path / "b"), s_plain)
        assert s_ovc.rows_spilled == s_plain.rows_spilled == 300

    def test_ovc_needs_fewer_column_comparisons(self, tmp_path):
        rng = np.random.default_rng(14)
        rows = random_rows(rng, 600, arity=5, dom=2)
        spec = OvcSpec(5, 100)
        s_ovc, s_plain = CompareStats(), CompareStats()
        a = [k for k, _, _ in external_sort(iter(rows), spec, 100,
                                            str(tmp_path / "a"), s_ovc)]
        b = [k for k, _ in plain_sort(iter(rows), 100, str(tmp_path / "b"),
                                      s_plain, arity=5)]
        assert a == b
        assert s_ovc.col_cmps < s_plain.col_cmps

    def test_rejects_dedup(self, tmp_path):
        # dedup reads the duplicate code, which compare_full does not form
        with pytest.raises(ValueError, match="dedup"):
            list(external_sort(iter([((1, 1, 1), None)]), SPEC, 10,
                               str(tmp_path), dedup=True,
                               compare=compare_full))


class TestSortCounters:
    """Exact counters of the supplementary sort benchmark's input
    (``benchmarks/bench_sort_ovc.py``: seed 2023, 100k rows, 8 key
    columns, memory 10k rows). The OVC sort and its full-key baseline
    run one tree of losers, so they play the same matches and spill the
    same rows; only the column comparisons differ."""

    N, MEM, ARITY = 100_000, 10_000, 8

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(2023)
        n = self.N
        cols = [rng.choice([0, 1], n, p=[0.9, 0.1]) for _ in range(4)]
        cols += [rng.integers(0, 3, n) for _ in range(4)]
        keys = np.column_stack(cols)
        return [(tuple(int(x) for x in keys[i]), i) for i in range(n)]

    def test_ovc_and_plain_counters(self, tmp_path, rows):
        spec = OvcSpec(self.ARITY)
        s_ovc, s_plain = CompareStats(), CompareStats()
        out_o = [(k, p) for k, _, p in external_sort(
            iter(rows), spec, self.MEM, str(tmp_path / "a"), s_ovc)]
        out_p = [(k, p) for k, _, p in external_sort(
            iter(rows), spec, self.MEM, str(tmp_path / "b"), s_plain,
            compare=compare_full)]
        assert out_o == out_p
        assert (s_plain.row_cmps, s_plain.col_cmps, s_plain.rows_spilled,
                s_plain.code_decided) == (1_963_845, 10_686_273, 100_000, 0)
        assert (s_ovc.row_cmps, s_ovc.code_decided, s_ovc.col_cmps,
                s_ovc.rows_spilled) == (1_963_845, 1_092_304, 699_373,
                                        100_000)
