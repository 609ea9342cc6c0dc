"""Pinned outputs and counters of the row-wise Section 4 operators.

The other operator tests check that output codes are right; this one
fixes what each operator emits and counts on one seeded input: its
output rows (as a digest of their ``repr``) and the ``CompareStats``
fields ``rows_in``, ``rows_out``, ``row_cmps``, ``code_decided`` and
``col_cmps``. A rewrite of an operator must keep every one of them.
"""
import hashlib

import numpy as np

from repro.core.operators.dedup import dedup_stream
from repro.core.operators.grouping import group_stream
from repro.core.operators.merge_join import JoinType, merge_join
from repro.core.operators.nested_loops import lookup_join
from repro.core.operators.segment import segmented_sort
from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats
from tests.helpers import coded, random_sorted_keys

SEED = 2023
FIELDS = ("rows_in", "rows_out", "row_cmps", "code_decided", "col_cmps")

#: name -> (output row count, digest of the rows' repr, counters in
#: FIELDS order). ``rows_out`` counts every output row.
PINNED = {
    "merge_join.inner": (405, "3787ac3560382ccd", (250, 405, 251, 129, 6)),
    "merge_join.left_semi": (138, "a682762ee8218971", (250, 138, 251, 129, 6)),
    "merge_join.left_anti": (12, "2579bf8590f26f99", (250, 12, 251, 129, 6)),
    "merge_join.left_outer": (417, "cdd7abbbcea2921a", (250, 417, 251, 129, 6)),
    "lookup_join.inner": (109, "93cfc278c2853771", (100, 109, 0, 0, 0)),
    "lookup_join.left_outer": (156, "0c3dde1db65eec2f", (100, 156, 0, 0, 0)),
    "lookup_join.left_semi": (53, "ce034400e586d0f1", (100, 53, 0, 0, 0)),
    "lookup_join.left_anti": (47, "e2cade98dbfabdf1", (100, 47, 0, 0, 0)),
    "group_stream": (9, "75a9c7f6952fd67e", (300, 9, 0, 0, 0)),
    "dedup_stream": (25, "0d79a38ea8181b41", (300, 25, 0, 0, 0)),
    "segmented_sort": (200, "15dc45e2020ab1de", (200, 200, 1662, 943, 185)),
}


def _run(out_fn):
    stats = CompareStats()
    out = list(out_fn(stats))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()[:16]
    return len(out), digest, tuple(getattr(stats, f) for f in FIELDS)


def _outputs():
    rng = np.random.default_rng(SEED)
    spec2, spec4 = OvcSpec(2, 100), OvcSpec(4, 100)
    got = {}

    lk = random_sorted_keys(rng, 150, 2, 6)
    rk = random_sorted_keys(rng, 100, 2, 6)
    left = coded(lk, spec2, payloads=[f"l{i}" for i in range(len(lk))])
    right = coded(rk, spec2, payloads=[f"r{i}" for i in range(len(rk))])
    for jt in JoinType:
        got[f"merge_join.{jt.value}"] = _run(lambda s, jt=jt: merge_join(
            iter(left), iter(right), spec2, jt, s))

    ok = random_sorted_keys(rng, 100, 2, 5)
    index = {}
    for k in sorted(set(ok)):
        n = int(rng.integers(0, 4))
        ik = sorted((int(x),) for x in rng.integers(0, 9, n))
        index[k] = coded(ik, OvcSpec(1, 100),
                         payloads=[f"i{j}" for j in range(n)])
    outer = coded(ok, spec2, payloads=list(range(len(ok))))
    for jt in ("inner", "left_outer", "left_semi", "left_anti"):
        got[f"lookup_join.{jt}"] = _run(lambda s, jt=jt: lookup_join(
            iter(outer), lambda k, p: index.get(k, []), spec2, 1, jt, s))

    gk = random_sorted_keys(rng, 300, 4, 3)
    gp = [int(x) for x in rng.integers(0, 10, len(gk))]
    got["group_stream"] = _run(lambda s: group_stream(
        iter(coded(gk, spec4, payloads=gp)), spec4, 2,
        lambda a, k, p: a + p, lambda k, p: p, s))

    dk = random_sorted_keys(rng, 300, 2, 5)
    got["dedup_stream"] = _run(lambda s: dedup_stream(
        iter(coded(dk, spec2)), spec2, s, payload=len))

    sk = random_sorted_keys(rng, 200, 4, 3)
    sc = [int(x) for x in rng.integers(0, 5, len(sk))]
    got["segmented_sort"] = _run(lambda s: segmented_sort(
        iter(coded(sk, spec4, payloads=sc)), spec4, 1,
        lambda k, p: (p, k[3]), 2, s))
    return got


def test_rowwise_outputs_and_counters_are_pinned():
    assert _outputs() == PINNED
