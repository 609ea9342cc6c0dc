"""Supplementary: OVC merge join of pre-sorted coded inputs vs an
in-memory hash join of the same inputs (claim 2 in the small: with the
interesting ordering already present, the merge join's comparisons are
mostly single-integer OVC compares while the hash join re-hashes every
row), and the order-preserving lookup join (Section 4.8) of the left
input into an index of the right one."""
import numpy as np
import pytest

from repro.core.operators.merge_join import JoinType, merge_join
from repro.core.operators.nested_loops import lookup_join
from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.core.stats import CompareStats
from repro.hashexec.hash_join import hash_join

N = 100_000
ARITY = 2


@pytest.fixture(scope="module")
def sides(rng):
    spec = OvcSpec(ARITY)
    out = []
    for seed_shift in (0, 1):
        keys = rng.integers(0, 300, size=(N, ARITY))
        keys = keys[np.lexsort(keys.T[::-1])]
        # dedup so the join is one-to-one-ish (intersect-style)
        mask = np.concatenate(([True], (keys[1:] != keys[:-1]).any(1)))
        keys = keys[mask]
        codes = encode_sorted_array(keys, spec)
        out.append([
            (tuple(int(x) for x in keys[i]), int(codes[i]), i)
            for i in range(len(keys))
        ])
    return out


@pytest.mark.parametrize("variant", ["merge_ovc", "hash"])
def test_join_presorted_inputs(benchmark, tmp_path, sides, variant):
    left, right = sides
    spec = OvcSpec(ARITY)

    def run_merge():
        stats = CompareStats()
        n = sum(1 for _ in merge_join(iter(left), iter(right), spec,
                                      JoinType.INNER, stats))
        return n, stats

    def run_hash():
        stats = CompareStats()
        n = sum(1 for _ in hash_join(
            ((k, p) for k, _, p in left), ((k, p) for k, _, p in right),
            ARITY, 10**9, str(tmp_path), stats, n_build_hint=len(left)))
        return n, stats

    n, stats = benchmark.pedantic(
        run_merge if variant == "merge_ovc" else run_hash,
        rounds=1, iterations=1)
    benchmark.extra_info.update(n_out=n, col_cmps=stats.col_cmps,
                                col_accesses=stats.col_accesses,
                                hash_ops=stats.hash_ops)


@pytest.mark.parametrize("join_type", ["inner", "left_semi"])
def test_lookup_join_presorted_outer(benchmark, sides, join_type):
    left, right = sides
    spec = OvcSpec(ARITY)
    # One coded inner row (arity 1) per right key.
    index = {k: [((p,), OvcSpec(1).prime((p,)), p)] for k, _, p in right}

    def run():
        return sum(1 for _ in lookup_join(
            iter(left), lambda k, p: index.get(k, ()), spec, 1, join_type))

    n = benchmark.pedantic(run, rounds=1, iterations=1)
    assert n == len(index.keys() & {k for k, _, _ in left})
    benchmark.extra_info.update(n_out=n)
