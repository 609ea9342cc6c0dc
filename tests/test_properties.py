"""Hypothesis property tests for the core invariants.

These are the load-bearing guarantees of the paper:
- the theorem ovc(A,C) = max(ovc(A,B), ovc(B,C)) for arbitrary triples;
- tree-of-losers sort output == sorted(input) with codes equal to the
  brute-force predecessor encoding, and the full-key baseline comparator
  plays the same matches with the same winners;
- column-value comparisons bounded by N x K;
- every Section 4 operator's output codes equal the brute-force
  re-encoding of its output stream;
- the vectorized Spark merge-join kernel joins the same row pairs as
  the row-wise merge join, with codes equal to a fresh encoding.
"""
from collections import Counter

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.external_sort import sort_in_memory
from repro.core.operators.dedup import dedup_stream
from repro.core.operators.filterop import filter_stream
from repro.core.operators.grouping import group_stream
from repro.core.operators.merge_join import JoinType, merge_join
from repro.core.operators.project import project_stream
from repro.core.ovc import (
    OvcSpec,
    compare_full,
    compare_update,
    encode_sorted_array,
)
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree
from repro.sparkops.joins import merge_kernel
from tests.helpers import assert_valid_coded_stream, bruteforce_codes, coded

SPEC = OvcSpec(arity=3, base=64)

keys_st = st.lists(
    st.tuples(*[st.integers(0, 5)] * 3), min_size=0, max_size=60
)
nonempty_keys_st = st.lists(
    st.tuples(*[st.integers(0, 5)] * 3), min_size=1, max_size=60
)


@given(st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3))
def test_theorem_arbitrary_triples(a, b, c):
    a, b, c = sorted([a, b, c])
    spec = OvcSpec(3, 16)
    assert spec.encode_rel(a, c) == spec.combine(
        spec.encode_rel(a, b), spec.encode_rel(b, c)
    )


@given(st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3))
def test_compare_update_consistent_with_order(base, a, b):
    base, a, b = sorted([base, a, b])
    spec = OvcSpec(3, 16)
    ca, cb = spec.encode_rel(base, a), spec.encode_rel(base, b)
    a_wins, loser_code = compare_update(spec, a, ca, b, cb)
    assert a_wins == (a <= b)
    w, l = (a, b) if a_wins else (b, a)
    assert loser_code == spec.encode_rel(w, l)


@given(st.tuples(*[st.integers(0, 9)] * 3),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.integers(0, 100), st.integers(0, 100))
def test_compare_full_consistent_with_order(a, b, ca, cb):
    # Codes are ignored: any codes give the key order, ties to a, and
    # one column comparison per column up to the first difference.
    stats = CompareStats()
    a_wins, _ = compare_full(SPEC, a, ca, b, cb, stats)
    assert a_wins == (a <= b)
    first_diff = next((j for j in range(3) if a[j] != b[j]), 2)
    assert (stats.row_cmps, stats.code_decided, stats.col_cmps) == \
        (1, 0, first_diff + 1)


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_inmemory_sort_sound_and_coded(keys):
    out = list(sort_in_memory(keys, SPEC))
    got = [k for k, _, _ in out]
    assert got == sorted(keys)
    assert [c for _, c, _ in out] == bruteforce_codes(got, SPEC)


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_column_comparison_bound(keys):
    stats = CompareStats()
    list(sort_in_memory(keys, SPEC, stats))
    assert stats.col_cmps <= len(keys) * SPEC.arity


@settings(max_examples=40)
@given(st.lists(keys_st, min_size=1, max_size=6))
def test_multiway_merge_sound(streams):
    streams = [coded(sorted(s), SPEC) for s in streams]
    out = list(OvcLoserTree(streams, SPEC))
    assert_valid_coded_stream(out, SPEC)
    assert [k for k, _, _ in out] == sorted(
        k for s in streams for k, _, _ in s
    )


@settings(max_examples=40)
@given(st.lists(keys_st, min_size=1, max_size=6))
def test_multiway_merge_full_compare_plays_same_matches(streams):
    streams = [coded(sorted(s), SPEC, payloads=[(i, j) for j in range(len(s))])
               for i, s in enumerate(streams)]
    s_ovc, s_full = CompareStats(), CompareStats()
    out_o = [(k, p) for k, _, p in OvcLoserTree(streams, SPEC, s_ovc)]
    out_f = [(k, p) for k, _, p in OvcLoserTree(streams, SPEC, s_full,
                                                compare_full)]
    assert out_f == out_o
    assert s_full.row_cmps == s_ovc.row_cmps


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_inmemory_sort_full_compare_matches_ovc(keys):
    pays = list(range(len(keys)))
    s_ovc, s_full = CompareStats(), CompareStats()
    out_o = [(k, p) for k, _, p in sort_in_memory(keys, SPEC, s_ovc, pays)]
    out_f = [(k, p) for k, _, p in sort_in_memory(keys, SPEC, s_full, pays,
                                                  compare_full)]
    assert out_f == out_o
    assert [k for k, _ in out_f] == sorted(keys)
    assert s_full.row_cmps == s_ovc.row_cmps


@settings(max_examples=60)
@given(nonempty_keys_st, st.sets(st.integers(0, 59)))
def test_filter_codes(keys, keep_idx):
    keys = sorted(keys)
    stream = coded(keys, SPEC, payloads=list(range(len(keys))))
    out = list(filter_stream(stream, lambda k, p: p in keep_idx, SPEC))
    assert_valid_coded_stream(out, SPEC)


@settings(max_examples=60)
@given(nonempty_keys_st, st.integers(1, 3))
def test_project_codes(keys, keep):
    keys = sorted(keys)
    out = list(project_stream(coded(keys, SPEC), SPEC, keep))
    got = [k for k, _, _ in out]
    assert [c for _, c, _ in out] == bruteforce_codes(
        got, OvcSpec(keep, SPEC.base)
    )


@settings(max_examples=60)
@given(nonempty_keys_st)
def test_dedup_codes(keys):
    keys = sorted(keys)
    out = list(dedup_stream(coded(keys, SPEC), SPEC))
    assert [k for k, _, _ in out] == sorted(set(keys))
    assert_valid_coded_stream(out, SPEC)


@settings(max_examples=60)
@given(nonempty_keys_st, st.integers(1, 3))
def test_grouping_codes(keys, g):
    keys = sorted(keys)
    out = list(group_stream(coded(keys, SPEC), SPEC, g,
                            lambda a, k, p: a + 1, lambda k, p: 1))
    got = [k for k, _, _ in out]
    assert got == sorted({k[:g] for k in keys})
    assert [c for _, c, _ in out] == bruteforce_codes(
        got, OvcSpec(g, SPEC.base)
    )


@settings(max_examples=40)
@given(keys_st, keys_st,
       st.sampled_from(list(JoinType)))
def test_merge_join_codes(lk, rk, jt):
    lk, rk = sorted(lk), sorted(rk)
    out = list(merge_join(coded(lk, SPEC), coded(rk, SPEC), SPEC, jt))
    assert_valid_coded_stream(out, SPEC)


@st.composite
def join_sides(draw):
    """Key arity and two key lists with duplicates on both sides."""
    arity = draw(st.integers(1, 3))
    key = st.tuples(*[st.integers(0, 2)] * arity)
    return arity, draw(st.lists(key, max_size=20)), \
        draw(st.lists(key, max_size=20))


@settings(max_examples=150)
@given(join_sides(), st.sampled_from(list(JoinType)))
@example((2, [], [(0, 1), (0, 1)]), JoinType.LEFT_OUTER)
@example((2, [(0, 1), (0, 1), (1, 0)], []), JoinType.LEFT_ANTI)
def test_merge_kernel_matches_rowwise_merge_join(sides, jt):
    arity, lk, rk = sides
    spec = OvcSpec(arity, 8)
    # The merged partition as the Spark shuffle sorts it: by (key, tag).
    rows = sorted([(*k, 0) for k in lk] + [(*k, 1) for k in rk])
    merged = np.array(rows, dtype=np.int64).reshape(-1, arity + 1)
    keys, tags = merged[:, :arity], merged[:, arity]

    def side(tag):
        pos = np.flatnonzero(tags == tag).tolist()
        return coded([rows[i][:arity] for i in pos], spec, payloads=pos)

    want = Counter(
        (p, -1) if jt in (JoinType.LEFT_SEMI, JoinType.LEFT_ANTI)
        else (p[0], -1 if p[1] is None else p[1])
        for _, _, p in merge_join(side(0), side(1), spec, jt)
    )
    left_idx, right_idx, codes = merge_kernel(keys, tags, spec, jt)
    assert Counter(zip(left_idx.tolist(), right_idx.tolist())) == want
    out = keys[left_idx]
    assert out.tolist() == sorted(out.tolist())
    assert codes.tolist() == encode_sorted_array(out, spec).tolist()
