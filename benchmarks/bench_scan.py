"""Supplementary: ordered columnar scans originate OVCs for free
(Section 4.10): deriving codes from RLE run boundaries vs re-encoding
from decoded values vs re-sorting from scratch; and the LSM ingest sort
on normalized keys vs a K-pass ``np.lexsort``."""
import numpy as np
import pytest

from repro.core.keys import sort_order
from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.storage.columnar import write_columnar_run

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
