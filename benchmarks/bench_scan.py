"""Supplementary: ordered columnar scans originate OVCs for free
(Section 4.10): deriving codes from RLE run boundaries vs re-encoding
from decoded values vs re-sorting from scratch; the LSM ingest sort on
normalized keys vs a K-pass ``np.lexsort``; and the merged LSM forest
scan, vectorized (``merge_coded_runs``) vs the row-wise tree of losers
(Sections 4.9–4.10)."""
import numpy as np
import pytest

from repro.core.keys import sort_order
from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.core.tree_of_losers import OvcLoserTree
from repro.storage.columnar import write_columnar_run
from repro.storage.lsm import LsmForest

N = 1_000_000
ARITY = 4


@pytest.fixture(scope="module")
def run_file(rng, tmp_path_factory):
    keys = rng.integers(0, 10, size=(N, ARITY))
    keys = keys[np.lexsort(keys.T[::-1])]
    spec = OvcSpec(ARITY)
    run = write_columnar_run(
        str(tmp_path_factory.mktemp("scan") / "big.run"), keys, spec,
        assume_sorted=True,
    )
    return run, keys, spec


def test_scan_with_free_ovc(benchmark, run_file):
    run, keys, spec = run_file
    keys2, codes, _ = benchmark(run.scan_with_ovc)
    assert (codes == encode_sorted_array(keys, spec)).all()


def test_scan_then_reencode(benchmark, run_file):
    run, keys, spec = run_file

    def fn():
        k, _ = run.read_columns()
        return encode_sorted_array(k, spec)

    codes = benchmark(fn)
    assert len(codes) == N


def test_scan_then_resort(benchmark, run_file):
    run, keys, spec = run_file

    def fn():
        k, _ = run.read_columns()
        return encode_sorted_array(k[sort_order(k)], spec)

    codes = benchmark(fn)
    assert len(codes) == N


def lexsort_columns(keys):
    return np.lexsort(keys.T[::-1])


@pytest.mark.parametrize("sort", [sort_order, lexsort_columns])
def test_ingest_sort(benchmark, rng, sort):
    # Unsorted ingest batch: one uint16 word for sort_order, K passes
    # for the lexsort it replaced; both give the same permutation.
    keys = rng.integers(0, 10, size=(N, ARITY))
    order = benchmark(sort, keys)
    assert np.array_equal(order, np.lexsort(keys.T[::-1]))


@pytest.fixture(scope="module")
def lsm_forest(tmp_path_factory):
    # The lsm workload's shape: 8 batches of 25k rows, 4 keys in [0, 8).
    rng = np.random.default_rng(7)
    forest = LsmForest(str(tmp_path_factory.mktemp("lsm") / "f"), OvcSpec(4))
    for _ in range(8):
        forest.ingest(rng.integers(0, 8, (25_000, 4)),
                      rng.integers(0, 1000, 25_000))
    return forest


def kernel_scan(forest):
    keys, codes, _ = forest.scan()
    return keys, codes


def tree_scan(forest):
    # The row-wise reference: every run's scan as a tuple stream.
    streams = []
    for run in forest.runs:
        keys, codes, _ = run.scan_with_ovc()
        streams.append(zip(map(tuple, keys.tolist()), codes.tolist(),
                           [None] * len(codes)))
    rows = list(OvcLoserTree(streams, forest.spec))
    return (np.array([k for k, _, _ in rows], dtype=np.int64),
            np.array([c for _, c, _ in rows], dtype=np.int64))


@pytest.mark.parametrize("scan", [kernel_scan, tree_scan],
                         ids=["kernel", "tree"])
def test_forest_scan(benchmark, lsm_forest, scan):
    keys, codes = benchmark(scan, lsm_forest)
    other = tree_scan if scan is kernel_scan else kernel_scan
    want_keys, want_codes = other(lsm_forest)
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(codes, want_codes)
