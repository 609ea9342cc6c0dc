"""Tests for the columnar RLE format and the LSM forest."""
import numpy as np
import pytest

from repro.core.ovc import OvcSpec, encode_sorted_array
from repro.core.stats import CompareStats
from repro.storage.columnar import (
    ColumnarRun,
    compressed_key_cells,
    write_columnar_run,
)
from repro.storage.lsm import LsmForest
from tests.helpers import bruteforce_codes

SPEC = OvcSpec(arity=3, base=100)


def sorted_keys(rng, n, arity=3, dom=5):
    keys = rng.integers(0, dom, size=(n, arity))
    return keys[np.lexsort(keys.T[::-1])].astype(np.int64)


class TestRle:
    """Key columns are stored run-end encoded at their true length."""

    def test_encode_decode_roundtrip(self, tmp_path):
        col = np.array([1, 1, 1, 2, 2, 3, 1])
        keys = np.column_stack([[0, 0, 0, 0, 0, 0, 1], col])
        run = write_columnar_run(str(tmp_path / "a.run"), keys,
                                 OvcSpec(2, 100))
        (v0, l0), (v, l) = run._read()[0]
        assert v0.tolist() == [0, 1] and l0.tolist() == [6, 1]
        assert v.tolist() == [1, 2, 3, 1] and l.tolist() == [3, 2, 1, 1]
        assert run.read_columns()[0][:, 1].tolist() == col.tolist()

    def test_empty(self, tmp_path):
        run = write_columnar_run(str(tmp_path / "a.run"),
                                 np.zeros((0, 3), np.int64), SPEC)
        runs, _ = run._read()
        assert all(len(v) == 0 and len(l) == 0 for v, l in runs)
        assert compressed_key_cells(run) == 0


class TestColumnarRun:
    def test_roundtrip_keys_and_payloads(self, tmp_path):
        rng = np.random.default_rng(0)
        keys = sorted_keys(rng, 200)
        pay = rng.integers(0, 1000, 200)
        run = write_columnar_run(str(tmp_path / "a.run"), keys, SPEC,
                                 {"p0": pay})
        k2, p2 = run.read_columns()
        assert (k2 == keys).all()
        assert (p2["p0"] == pay).all()

    def test_scan_codes_match_vectorized_encoder(self, tmp_path):
        # the RLE-derived codes equal what a sort would have produced
        rng = np.random.default_rng(1)
        keys = sorted_keys(rng, 300, dom=3)
        run = write_columnar_run(str(tmp_path / "a.run"), keys, SPEC)
        _, codes, _ = run.scan_with_ovc()
        assert codes.tolist() == encode_sorted_array(keys, SPEC).tolist()

    def test_scan_uses_no_comparisons_metadata_only(self, tmp_path):
        # structural property: leading column constant -> its RLE arrays
        # have exactly one entry; codes still correct.
        keys = np.array([[7, 0, 0], [7, 0, 1], [7, 1, 1], [7, 1, 1]])
        run = write_columnar_run(str(tmp_path / "a.run"), keys, SPEC)
        assert len(run._read()[0][0][0]) == 1
        _, codes, _ = run.scan_with_ovc()
        assert codes.tolist() == encode_sorted_array(keys, SPEC).tolist()

    def test_compression_on_sorted_data(self, tmp_path):
        rng = np.random.default_rng(2)
        keys = sorted_keys(rng, 5000, dom=4)
        run = write_columnar_run(str(tmp_path / "a.run"), keys, SPEC)
        assert compressed_key_cells(run) < 5000 * 3 / 4

    def test_files_hold_runs_not_rows(self, tmp_path):
        # No column is padded to the row count: a constant million-row
        # run takes a few hundred bytes.
        import os

        run = write_columnar_run(str(tmp_path / "a.run"),
                                 np.ones((1_000_000, 3), np.int64), SPEC)
        assert compressed_key_cells(run) == 6
        assert os.path.getsize(run.path) < 4096

    def test_rejects_unsorted(self, tmp_path):
        keys = np.array([[2, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError, match="not sorted"):
            write_columnar_run(str(tmp_path / "a.run"), keys, SPEC)

    def test_empty_run(self, tmp_path):
        run = write_columnar_run(str(tmp_path / "a.run"),
                                 np.zeros((0, 3), np.int64), SPEC)
        keys, codes, _ = run.scan_with_ovc()
        assert len(keys) == 0 and len(codes) == 0
        assert list(run.iter_rows()) == []

    def test_duplicate_rows_get_code_zero(self, tmp_path):
        keys = np.array([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        run = write_columnar_run(str(tmp_path / "a.run"), keys, SPEC)
        _, codes, _ = run.scan_with_ovc()
        assert codes.tolist()[1:] == [0, 0]

    def test_reopen_from_disk(self, tmp_path):
        keys = np.array([[1, 2, 3], [2, 0, 0]])
        write_columnar_run(str(tmp_path / "a.run"), keys, SPEC)
        run = ColumnarRun(str(tmp_path / "a.run"))
        assert run.n_rows == 2 and run.arity == 3 and run.base == 100
        k2, _ = run.read_columns()
        assert (k2 == keys).all()

    def test_iter_rows_payload(self, tmp_path):
        keys = np.array([[1, 0, 0], [2, 0, 0]])
        run = write_columnar_run(str(tmp_path / "a.run"), keys, SPEC,
                                 {"p0": np.array([10, 20])})
        rows = list(run.iter_rows())
        assert [p for _, _, p in rows] == [10, 20]
        assert [k for k, _, _ in rows] == [(1, 0, 0), (2, 0, 0)]

    def test_rejects_reserved_payload_name(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_columnar_run(str(tmp_path / "a.run"),
                               np.zeros((1, 3), np.int64), SPEC,
                               {"k0": np.array([1])})


class TestLsmForest:
    def test_ingest_and_merged_scan(self, tmp_path):
        rng = np.random.default_rng(3)
        forest = LsmForest(str(tmp_path / "f"), SPEC)
        all_keys = []
        for i in range(4):
            batch = rng.integers(0, 5, size=(100, 3))
            forest.ingest(batch)
            all_keys += [tuple(r) for r in batch]
        out = list(forest.scan())
        keys = [k for k, _, _ in out]
        assert keys == sorted(all_keys)
        assert [c for _, c, _ in out] == bruteforce_codes(keys, SPEC)

    def test_compaction_preserves_content_and_codes(self, tmp_path):
        rng = np.random.default_rng(4)
        forest = LsmForest(str(tmp_path / "f"), SPEC)
        for _ in range(3):
            forest.ingest(rng.integers(0, 4, size=(80, 3)))
        before = [(k, c) for k, c, _ in forest.scan()]
        forest.compact()
        assert len(forest.runs) == 1
        after = [(k, c) for k, c, _ in forest.scan()]
        assert after == before

    def test_merge_consumes_codes_cheaply(self, tmp_path):
        # merged scan's column comparisons bounded by N x K
        rng = np.random.default_rng(5)
        forest = LsmForest(str(tmp_path / "f"), SPEC)
        n = 0
        for _ in range(6):
            forest.ingest(rng.integers(0, 3, size=(150, 3)))
            n += 150
        stats = CompareStats()
        list(forest.scan(stats))
        assert stats.col_cmps <= n * SPEC.arity

    def test_reopen_existing_forest(self, tmp_path):
        forest = LsmForest(str(tmp_path / "f"), SPEC)
        forest.ingest(np.array([[1, 2, 3]]))
        forest2 = LsmForest(str(tmp_path / "f"), SPEC)
        assert len(forest2.runs) == 1
        assert [k for k, _, _ in forest2.scan()] == [(1, 2, 3)]
        forest2.ingest(np.array([[0, 0, 0]]))
        assert len(forest2.runs) == 2

    def test_compact_empty_raises(self, tmp_path):
        forest = LsmForest(str(tmp_path / "f"), SPEC)
        with pytest.raises(ValueError):
            forest.compact()

    def test_scan_with_payloads(self, tmp_path):
        forest = LsmForest(str(tmp_path / "f"), SPEC)
        forest.ingest(np.array([[2, 0, 0], [1, 0, 0]]), np.array([20, 10]))
        out = list(forest.scan())
        assert [(k[0], p) for k, _, p in out] == [(1, 10), (2, 20)]
