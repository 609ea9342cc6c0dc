"""Unit tests for repro.core.ovc — encoding, theorem, compare_update."""
import numpy as np
import pytest

from repro.core.keys import shared_prefix
from repro.core.ovc import (
    OvcSpec,
    boundary_mask,
    compare_update,
    decode_offsets,
    encode_sorted_array,
    merge_coded_runs,
)
from repro.core.stats import CompareStats

SPEC = OvcSpec(arity=4, base=100)


class TestPacking:
    def test_code_roundtrip_offsets(self):
        for off in range(SPEC.arity):
            for val in (0, 1, 50, 99):
                c = SPEC.code(off, val)
                assert SPEC.offset_of(c) == off
                assert SPEC.value_of(c) == val

    def test_duplicate_code_is_zero_ascending(self):
        assert SPEC.code(SPEC.arity, 0) == 0
        assert SPEC.is_duplicate(0)
        assert SPEC.offset_of(0) == SPEC.arity

    def test_code_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            SPEC.code(5, 0)
        with pytest.raises(ValueError):
            SPEC.code(-1, 0)

    def test_code_rejects_bad_value(self):
        with pytest.raises(ValueError):
            SPEC.code(0, 100)

    def test_late_fence_sorts_after_all_valid_codes(self):
        worst = SPEC.code(0, 99)
        assert worst < SPEC.late_fence_code

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            OvcSpec(arity=0)
        with pytest.raises(ValueError):
            OvcSpec(arity=2, base=1)


class TestOrdering:
    def test_lower_offset_sorts_later_ascending(self):
        # Section 3: higher offset (longer shared prefix) = earlier.
        later = SPEC.code(0, 5)   # differs at col 0
        earlier = SPEC.code(2, 5)  # differs at col 2
        assert earlier < later

    def test_same_offset_smaller_value_earlier(self):
        assert SPEC.code(1, 3) < SPEC.code(1, 4)

    def test_duplicate_sorts_earliest(self):
        assert 0 < SPEC.code(3, 1)


class TestTheorem:
    """ovc(A,C) == max(ovc(A,B), ovc(B,C)) over all ordered triples of a
    small exhaustive key universe (paper Section 4 theorem)."""

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_exhaustive_triples(self, arity):
        spec = OvcSpec(arity=arity, base=4)
        import itertools

        keys = sorted(itertools.product(range(3), repeat=arity))
        for a, b, c in itertools.combinations(keys, 3):
            ab = spec.encode_rel(a, b)
            bc = spec.encode_rel(b, c)
            ac = spec.encode_rel(a, c)
            assert ac == max(ab, bc), (a, b, c)

    def test_combine_many_matches_fold(self):
        spec = OvcSpec(arity=2, base=10)
        keys = [(0, 1), (0, 3), (1, 2), (1, 2), (1, 5)]
        codes = [spec.encode_rel(keys[i], keys[i + 1]) for i in range(4)]
        assert max(codes) == spec.encode_rel(keys[0], keys[4])


class TestCompareUpdate:
    def test_decided_by_code_keeps_loser_code(self):
        # Iyer's lemma: code-decided comparison leaves the loser's code.
        a, b = (5, 7, 3, 9), (5, 9, 2, 7)
        base = (5, 7, 3, 4)
        ca, cb = SPEC.encode_rel(base, a), SPEC.encode_rel(base, b)
        stats = CompareStats()
        a_wins, loser_code = compare_update(SPEC, a, ca, b, cb, stats)
        assert a_wins and loser_code == cb == SPEC.encode_rel(a, b)
        assert stats.code_decided == 1 and stats.col_cmps == 0

    def test_equal_codes_fall_back_to_columns(self):
        a, b = (5, 7, 3, 9), (5, 7, 4, 1)
        base = (5, 6, 0, 0)
        ca, cb = SPEC.encode_rel(base, a), SPEC.encode_rel(base, b)
        assert ca == cb  # both differ from base at offset 1 with value 7
        stats = CompareStats()
        a_wins, loser_code = compare_update(SPEC, a, ca, b, cb, stats)
        assert a_wins and loser_code == SPEC.encode_rel(a, b)
        assert stats.col_cmps == 1  # one column compare at offset 2

    def test_equal_keys_yield_duplicate_code(self):
        a = (5, 7, 3, 9)
        base = (5, 6, 0, 0)
        c = SPEC.encode_rel(base, a)
        a_wins, loser_code = compare_update(SPEC, a, c, tuple(a), c)
        assert a_wins and SPEC.is_duplicate(loser_code)

    def test_fence_always_loses(self):
        a = (1, 2, 3, 4)
        ca = SPEC.prime(a)
        a_wins, loser_code = compare_update(
            SPEC, a, ca, None, SPEC.late_fence_code
        )
        assert a_wins and loser_code == SPEC.late_fence_code

    def test_two_fences_tie(self):
        f = SPEC.late_fence_code
        a_wins, loser_code = compare_update(SPEC, None, f, None, f)
        assert a_wins and loser_code == f

    def test_random_pairs_agree_with_bruteforce(self):
        rng = np.random.default_rng(7)
        spec = OvcSpec(arity=3, base=16)
        for _ in range(500):
            base = tuple(rng.integers(0, 4, 3))
            a = tuple(rng.integers(0, 4, 3))
            b = tuple(rng.integers(0, 4, 3))
            base, a, b = sorted([base, a, b])[0], *sorted([a, b])
            if not (base <= a <= b):
                continue
            ca, cb = spec.encode_rel(base, a), spec.encode_rel(base, b)
            a_wins, loser_code = compare_update(spec, a, ca, b, cb)
            if a == b:
                assert a_wins and spec.is_duplicate(loser_code)
            elif a_wins:
                assert loser_code == spec.encode_rel(a, b)
            else:
                assert loser_code == spec.encode_rel(b, a)


class TestVectorized:
    def test_encode_sorted_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        spec = OvcSpec(arity=4, base=100)
        keys = rng.integers(0, 5, size=(200, 4))
        keys = keys[np.lexsort(keys.T[::-1])]
        codes = encode_sorted_array(keys, spec)
        expect = [
            spec.encode_rel(None if i == 0 else tuple(keys[i - 1]), tuple(keys[i]))
            for i in range(len(keys))
        ]
        assert codes.tolist() == expect

    def test_encode_with_prev_key_continuation(self):
        spec = OvcSpec(arity=2, base=10)
        block = np.array([[3, 4], [3, 5]])
        codes = encode_sorted_array(block, spec, prev_key=(3, 4))
        assert codes.tolist() == [0, spec.code(1, 5)]

    def test_empty_block(self):
        assert encode_sorted_array(
            np.zeros((0, 2), dtype=np.int64), OvcSpec(2, 10)
        ).tolist() == []

    def test_decode_offsets(self):
        spec = OvcSpec(arity=3, base=10)
        codes = np.array([spec.code(0, 5), spec.code(2, 1), 0])
        assert decode_offsets(codes, spec).tolist() == [0, 2, 3]

    def test_boundary_mask_prefix(self):
        spec = OvcSpec(arity=4, base=100)
        # offsets 0,1,2,3,4 -> boundaries for prefix=2 are offsets 0,1
        codes = np.array(
            [spec.code(0, 1), spec.code(1, 1), spec.code(2, 1),
             spec.code(3, 1), 0]
        )
        assert boundary_mask(codes, spec, 2).tolist() == [
            True, True, False, False, False
        ]

    def test_boundary_mask_offset_equal_prefix_not_boundary(self):
        spec = OvcSpec(arity=4, base=100)
        # regression: offset == prefix with positive value is NOT a boundary
        assert boundary_mask(
            np.array([spec.code(2, 99)]), spec, 2
        ).tolist() == [False]

    def test_encode_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            encode_sorted_array(np.zeros((3, 2), dtype=np.int64), OvcSpec(3, 10))

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_encode_rejects_keys_outside_domain(self, bad):
        with pytest.raises(ValueError, match="outside the code domain"):
            encode_sorted_array(np.array([[bad, 5]]), OvcSpec(2, 10))


class TestSharedPrefix:
    def test_basic(self):
        assert shared_prefix((1, 2, 3), (1, 2, 4)) == 2
        assert shared_prefix((1, 2, 3), (1, 2, 3)) == 3
        assert shared_prefix((0,), (1,)) == 0


class TestMergeCodedRuns:
    """``merge_coded_runs``: the vectorized merge of coded runs."""

    def test_counts_columns_from_run_code_offset(self):
        # Run A = (0,0,0), (0,0,5); run B = (0,0,3). B's row is primed,
        # so it compares 3 columns; A's second row (offset 2 in A)
        # compares only column 2. The rows that follow their own run
        # predecessor: none here, so nothing is code-decided.
        spec = OvcSpec(3, 10)
        a, b = np.array([[0, 0, 0], [0, 0, 5]]), np.array([[0, 0, 3]])
        stats = CompareStats()
        order, codes = merge_coded_runs(
            [a, b], [encode_sorted_array(x, spec) for x in (a, b)], spec,
            stats)
        assert order.tolist() == [0, 2, 1]
        assert codes.tolist() == [30, 13, 15]
        assert (stats.row_cmps, stats.code_decided,
                stats.col_cmps) == (2, 0, 4)

    def test_same_run_rows_keep_their_codes(self):
        spec = OvcSpec(2, 10)
        a, b = np.array([[0, 1], [0, 2], [0, 2]]), np.array([[5, 5]])
        stats = CompareStats()
        order, codes = merge_coded_runs(
            [a, b], [encode_sorted_array(x, spec) for x in (a, b)], spec,
            stats)
        assert order.tolist() == [0, 1, 2, 3]
        assert codes.tolist() == [20, 12, 0, 25]
        assert (stats.row_cmps, stats.code_decided,
                stats.col_cmps) == (3, 2, 1)
