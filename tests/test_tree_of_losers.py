"""Tests for the tree-of-losers priority queue, with OVC and plain."""
import numpy as np
import pytest

from repro.core.ovc import OvcSpec, compare_full, encode_sorted_array
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree


def coded_stream(keys, spec):
    """Turn a sorted list of key tuples into an OVC-coded stream."""
    arr = np.array(keys, dtype=np.int64).reshape(len(keys), spec.arity)
    codes = encode_sorted_array(arr, spec)
    return [(tuple(k), int(c), None) for k, c in zip(keys, codes)]


def bruteforce_codes(keys, spec):
    return [
        spec.encode_rel(None if i == 0 else keys[i - 1], keys[i])
        for i in range(len(keys))
    ]


def random_sorted_streams(rng, n_streams, spec, max_len=50, dom=4):
    streams = []
    for _ in range(n_streams):
        n = int(rng.integers(0, max_len))
        keys = sorted(
            tuple(int(x) for x in rng.integers(0, dom, spec.arity))
            for _ in range(n)
        )
        streams.append(coded_stream(keys, spec) if keys else [])
    return streams


class TestOvcLoserTree:
    @pytest.mark.parametrize("n_streams", [1, 2, 3, 4, 7, 8, 16, 33])
    def test_merge_is_sorted_and_complete(self, n_streams):
        rng = np.random.default_rng(n_streams)
        spec = OvcSpec(arity=3, base=100)
        streams = random_sorted_streams(rng, n_streams, spec)
        expect = sorted(k for s in streams for k, _, _ in s)
        got = [k for k, _, _ in OvcLoserTree(streams, spec)]
        assert got == expect

    @pytest.mark.parametrize("seed", range(10))
    def test_output_codes_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        spec = OvcSpec(arity=4, base=50)
        streams = random_sorted_streams(rng, int(rng.integers(1, 9)), spec)
        out = list(OvcLoserTree(streams, spec))
        keys = [k for k, _, _ in out]
        assert [c for _, c, _ in out] == bruteforce_codes(keys, spec)

    def test_column_comparisons_bounded_by_nk(self):
        # Section 3: total column comparisons <= N * K.
        rng = np.random.default_rng(42)
        spec = OvcSpec(arity=5, base=10)
        streams = random_sorted_streams(rng, 16, spec, max_len=100, dom=3)
        n = sum(len(s) for s in streams)
        stats = CompareStats()
        list(OvcLoserTree(streams, spec, stats))
        assert stats.col_cmps <= n * spec.arity

    def test_payloads_travel_with_rows(self):
        spec = OvcSpec(arity=1, base=10)
        s1 = [((1,), spec.prime((1,)), "a"), ((3,), spec.code(0, 3), "b")]
        s2 = [((2,), spec.prime((2,)), "c")]
        out = list(OvcLoserTree([s1, s2], spec))
        assert [(k[0], p) for k, _, p in out] == [(1, "a"), (2, "c"), (3, "b")]

    def test_empty_streams(self):
        spec = OvcSpec(arity=2, base=10)
        assert list(OvcLoserTree([[], [], []], spec)) == []

    def test_single_stream_passthrough(self):
        spec = OvcSpec(arity=2, base=10)
        keys = [(1, 2), (1, 3), (2, 0)]
        s = coded_stream(keys, spec)
        assert list(OvcLoserTree([s], spec)) == s

    def test_duplicates_across_streams_get_duplicate_code(self):
        spec = OvcSpec(arity=2, base=10)
        s1 = coded_stream([(1, 1)], spec)
        s2 = coded_stream([(1, 1)], spec)
        out = list(OvcLoserTree([s1, s2], spec))
        assert [c for _, c, _ in out] == [spec.prime((1, 1)), 0]

    def test_rejects_no_streams(self):
        with pytest.raises(ValueError):
            OvcLoserTree([], OvcSpec(2, 10))


class TestPlainLoserTree:
    """The same tree with ``compare=compare_full``: the baseline."""

    @pytest.mark.parametrize("n_streams", [1, 2, 5, 8, 13])
    def test_merge_matches_sorted(self, n_streams):
        rng = np.random.default_rng(100 + n_streams)
        spec = OvcSpec(arity=3, base=10)
        streams = []
        for _ in range(n_streams):
            n = int(rng.integers(0, 40))
            keys = sorted(tuple(int(x) for x in rng.integers(0, 5, 3)) for _ in range(n))
            streams.append([(k, 0, None) for k in keys])
        expect = sorted(k for s in streams for k, _, _ in s)
        got = [k for k, _, _ in OvcLoserTree(streams, spec,
                                             compare=compare_full)]
        assert got == expect

    def test_plain_counts_more_column_comparisons_than_ovc(self):
        # The point of the paper: same merge, far fewer column touches.
        rng = np.random.default_rng(3)
        spec = OvcSpec(arity=6, base=10)
        streams = random_sorted_streams(rng, 8, spec, max_len=200, dom=2)
        s_ovc, s_plain = CompareStats(), CompareStats()
        out_o = [k for k, _, _ in OvcLoserTree(streams, spec, s_ovc)]
        out_p = [k for k, _, _ in OvcLoserTree(streams, spec, s_plain,
                                               compare=compare_full)]
        assert out_o == out_p
        assert s_ovc.col_cmps < s_plain.col_cmps

    @pytest.mark.parametrize("seed", range(5))
    def test_same_matches_as_ovc(self, seed):
        # Only the comparison differs: same winners (payloads included,
        # ties to the same side) and the same number of matches.
        rng = np.random.default_rng(200 + seed)
        spec = OvcSpec(arity=3, base=10)
        streams = [
            [(k, c, (i, j)) for j, (k, c, _) in enumerate(s)]
            for i, s in enumerate(
                random_sorted_streams(rng, int(rng.integers(1, 12)), spec,
                                      dom=3))
        ]
        s_ovc, s_plain = CompareStats(), CompareStats()
        out_o = [(k, p) for k, _, p in OvcLoserTree(streams, spec, s_ovc)]
        out_p = [(k, p) for k, _, p in OvcLoserTree(streams, spec, s_plain,
                                                    compare=compare_full)]
        assert out_o == out_p
        assert s_ovc.row_cmps == s_plain.row_cmps
        assert s_plain.code_decided == 0

    def test_fence_loses_and_tie_goes_to_a(self):
        spec = OvcSpec(arity=2, base=10)
        stats = CompareStats()
        assert compare_full(spec, None, 5, (1, 1), 7, stats) == (False, 5)
        assert compare_full(spec, (1, 1), 7, None, 5, stats) == (True, 5)
        assert compare_full(spec, (1, 1), 7, (1, 1), 3, stats) == (True, 3)
        assert compare_full(spec, (1, 2), 7, (1, 1), 3, stats) == (False, 7)
        assert stats.row_cmps == 4 and stats.col_cmps == 4
        assert stats.code_decided == 0

    def test_rejects_no_streams(self):
        with pytest.raises(ValueError):
            OvcLoserTree([], OvcSpec(2, 10), compare=compare_full)
