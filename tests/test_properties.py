"""Hypothesis property tests for the core invariants.

These are the load-bearing guarantees of the paper:
- the theorem ovc(A,C) = max(ovc(A,B), ovc(B,C)) for arbitrary triples;
- tree-of-losers sort output == sorted(input) with codes equal to the
  brute-force predecessor encoding, and the full-key baseline comparator
  plays the same matches with the same winners;
- column-value comparisons bounded by N x K;
- the two primitives the row-wise Section 4 operators are built from:
  ``coded_groups`` is a group-by on a key prefix, and ``OvcSpec.recode``
  is the brute-force code of the cut or widened keys, and the
  vectorized ``rebase_codes`` is ``recode`` element by element;
- every Section 4 operator's output codes equal the brute-force
  re-encoding of its output stream;
- the vectorized Spark merge-join kernel joins the same row pairs as
  the row-wise merge join, and in its duplicate-removing semi join
  returns INTERSECT DISTINCT, with codes equal to a fresh encoding;
- the normalized-key sort of an LSM ingest batch is ``np.lexsort``'s
  stable permutation for any signed int64 keys;
- the vectorized merge of coded runs gives the row-wise tree's keys and
  codes, keeps equal keys in run order, and stays within N x K column
  comparisons.
"""
from collections import Counter
from itertools import groupby

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.external_sort import sort_in_memory
from repro.core.keys import sort_order
from repro.core.operators.dedup import dedup_stream
from repro.core.operators.filterop import filter_stream
from repro.core.operators.grouping import group_stream
from repro.core.operators.merge_join import JoinType, merge_join
from repro.core.operators.project import project_stream
from repro.core.ovc import (
    OvcSpec,
    coded_groups,
    compare_full,
    compare_update,
    encode_sorted_array,
    merge_coded_runs,
    rebase_codes,
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
    assert spec.encode_rel(a, c) == max(
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


@st.composite
def sorted_keys(draw):
    """Key arity 1-4 and a sorted, possibly empty key list over the tiny
    domain 0..2."""
    arity = draw(st.integers(1, 4))
    key = st.tuples(*[st.integers(0, 2)] * arity)
    return arity, sorted(draw(st.lists(key, max_size=30)))


@settings(max_examples=200)
@given(sorted_keys(), st.data())
def test_coded_groups_is_a_group_by_on_the_prefix(sides, data):
    arity, keys = sides
    prefix = data.draw(st.integers(1, arity))
    spec = OvcSpec(arity, 4)
    stream = coded(keys, spec)
    groups = list(coded_groups(stream, spec, prefix))
    assert [row for g in groups for row in g] == stream
    assert [[k[:prefix] for k, _, _ in g] for g in groups] == \
        [list(g) for _, g in groupby(k[:prefix] for k in keys)]


@settings(max_examples=300)
@given(st.integers(1, 6), st.data())
def test_recode_is_encode_rel_on_cut_or_widened_keys(width, data):
    # Widened keys get arbitrary extra columns; a duplicate has no one
    # widened code, so widening is checked on the other rows.
    arity, keys = data.draw(sorted_keys())
    spec = OvcSpec(arity, 4)
    out = OvcSpec(width, 4)
    pad = st.tuples(*[st.integers(0, 2)] * max(width - arity, 0))
    keys = sorted(k + data.draw(pad) for k in keys)
    for i, key in enumerate(keys):
        prev = keys[i - 1] if i else None
        code = spec.encode_rel(prev and prev[:arity], key[:arity])
        if width <= arity or code != spec.duplicate_code:
            assert spec.recode(code, width) == \
                out.encode_rel(prev and prev[:width], key[:width])


@settings(max_examples=200)
@given(sorted_keys())
def test_rebase_codes_is_recode(sides):
    arity, keys = sides
    spec = OvcSpec(arity, 4)
    codes = encode_sorted_array(
        np.array(keys, dtype=np.int64).reshape(-1, arity), spec)
    for width in range(1, arity + 1):
        assert rebase_codes(codes, spec, width).tolist() == \
            [spec.recode(c, width) for c in codes.tolist()]


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


def merged_partition(arity, lk, rk):
    """The merged partition as the Spark shuffle sorts it, by (key,
    tag): its rows, key array and tags (0 left, 1 right)."""
    rows = sorted([(*k, 0) for k in lk] + [(*k, 1) for k in rk])
    merged = np.array(rows, dtype=np.int64).reshape(-1, arity + 1)
    return rows, merged[:, :arity], merged[:, arity]


@settings(max_examples=150)
@given(join_sides(), st.sampled_from(list(JoinType)))
@example((2, [], [(0, 1), (0, 1)]), JoinType.LEFT_OUTER)
@example((2, [(0, 1), (0, 1), (1, 0)], []), JoinType.LEFT_ANTI)
def test_merge_kernel_matches_rowwise_merge_join(sides, jt):
    arity, lk, rk = sides
    spec = OvcSpec(arity, 8)
    rows, keys, tags = merged_partition(arity, lk, rk)

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


@settings(max_examples=150)
@given(join_sides())
@example((1, [], [(0,), (0,)]))
@example((2, [(0, 1), (0, 1), (1, 0)], []))
@example((2, [(0, 1), (0, 1), (1, 0), (1, 0)], [(0, 1), (1, 0), (1, 0)]))
def test_merge_kernel_distinct_semi_is_intersect_distinct(sides):
    arity, lk, rk = sides
    spec = OvcSpec(arity, 8)
    _, keys, tags = merged_partition(arity, lk, rk)
    left_idx, right_idx, codes = merge_kernel(
        keys, tags, spec, JoinType.LEFT_SEMI, distinct=True
    )
    assert (tags[left_idx] == 0).all() and (right_idx == -1).all()
    out = keys[left_idx]
    assert out.tolist() == [list(k) for k in sorted(set(lk) & set(rk))]
    assert codes.tolist() == encode_sorted_array(out, spec).tolist()


INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

#: Column domains: tiny and small signed ones with many duplicates, one
#: spanning more than 2**40 (two of them, or one beside small ones, take
#: two words), the full int64 range, and its extremes (a span of
#: 2**64 - 1, which takes a 64-bit word of its own).
column_st = st.sampled_from([
    st.integers(0, 1),
    st.integers(-3, 3),
    st.integers(-(1 << 41), 1 << 41),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, -1, 0, INT64_MAX]),
])


@st.composite
def key_arrays(draw):
    n = draw(st.integers(0, 200))
    return np.column_stack([
        draw(arrays(np.int64, n, elements=draw(column_st)))
        for _ in range(draw(st.integers(1, 4)))
    ])


@settings(max_examples=300)
@given(key_arrays())
@example(np.array([[1 << 41, -(1 << 41), 1], [-(1 << 41), 1 << 41, 0],
                   [-(1 << 41), 1 << 41, 1], [0, 5, 0]]))
@example(np.array([[INT64_MAX, 1, -2], [INT64_MIN, 0, 3], [INT64_MIN, 1, 3],
                   [INT64_MAX, 0, -2], [INT64_MIN, 1, -2]]))
@example(np.array([[2, -3], [2, -3], [-1, 3], [2, -4]]))
def test_sort_order_is_lexsort(keys):
    # Mutations that fail here: dropping the bias (the -3..3 example),
    # letting a column cross into an over-full word (the two-word
    # examples), packing the last column highest, or an unstable sort.
    assert np.array_equal(sort_order(keys), np.lexsort(keys.T[::-1]))


@st.composite
def coded_runs(draw):
    """Key arity and 1-8 sorted runs (some empty) over a tiny domain, so
    keys repeat within and across runs."""
    arity = draw(st.integers(1, 4))
    key = st.tuples(*[st.integers(0, draw(st.integers(1, 3)))] * arity)
    return arity, [sorted(draw(st.lists(key, max_size=12)))
                   for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=300)
@given(coded_runs())
@example((3, [[(0, 0, 0), (0, 0, 2)], [(0, 0, 1)]]))
@example((2, [[(0, 1), (1, 0)], [(1, 0), (1, 0)], [], [(0, 1)]]))
@example((1, [[], []]))
def test_merge_coded_runs_matches_tree(runs):
    # Mutations that fail here: keeping every row's run code, telling a
    # run switch by "order[i-1] + 1 != order[i]" (adjacent rows of
    # consecutive runs), comparing from the column after the run code's
    # offset, and an unstable sort.
    arity, runs = runs
    spec = OvcSpec(arity, 4)
    arrays_ = [np.array(r, dtype=np.int64).reshape(-1, arity) for r in runs]
    codes = [encode_sorted_array(a, spec) for a in arrays_]
    stats = CompareStats()
    order, out = merge_coded_runs(arrays_, codes, spec, stats)
    keys = np.concatenate(arrays_)[order]
    tree = list(OvcLoserTree([list(zip(r, c.tolist(), [None] * len(r)))
                              for r, c in zip(runs, codes)], spec))
    assert list(map(tuple, keys.tolist())) == [k for k, _, _ in tree]
    assert out.tolist() == [c for _, c, _ in tree]
    assert out.tolist() == encode_sorted_array(keys, spec).tolist()
    # Equal keys in run order: the concatenation index rises within them.
    same = (keys[1:] == keys[:-1]).all(axis=1)
    assert (np.diff(order)[same] > 0).all()
    assert stats.col_cmps <= len(keys) * arity
