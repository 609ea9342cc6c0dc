"""Log-structured merge-forest over columnar runs (Section 4.10, Napa).

Ingest sorts a batch in memory on normalized keys (``keys.sort_order``,
the vectorized stand-in for run generation) and writes one RLE columnar
run. Compaction merges all runs through a tree-of-losers priority queue
that consumes the runs' scan-produced OVCs and emits OVCs for the merge
output — the query-processing path the paper describes for LSM forests.
A merged scan does the same without materializing.
"""
from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.core.keys import sort_order
from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree
from repro.storage.columnar import ColumnarRun, write_columnar_run


class LsmForest:
    """A forest of sorted runs in one directory."""

    def __init__(self, root: str, spec: OvcSpec) -> None:
        self.root = root
        self.spec = spec
        os.makedirs(root, exist_ok=True)
        self._next_id = 0
        self.runs: list[ColumnarRun] = []
        for name in sorted(os.listdir(root)):
            if name.endswith(".run"):
                self.runs.append(ColumnarRun(os.path.join(root, name)))
                self._next_id = max(self._next_id,
                                    int(name.split(".")[0]) + 1)

    def ingest(self, keys: np.ndarray,
               payload: np.ndarray | None = None) -> ColumnarRun:
        """Sort a batch and persist it as one new run."""
        keys = np.asarray(keys, dtype=np.int64)
        order = sort_order(keys)
        payloads = {"p0": np.asarray(payload, dtype=np.int64)[order]} \
            if payload is not None else {}
        run = write_columnar_run(
            os.path.join(self.root, f"{self._next_id:06d}.run"),
            keys[order], self.spec, payloads, assume_sorted=True,
        )
        self._next_id += 1
        self.runs.append(run)
        return run

    def scan(self, stats: CompareStats | None = None) -> Iterator[tuple]:
        """Merged scan of all runs: a sorted coded stream
        ``(key, code, payload)``; codes in merge output come from the
        tree-of-losers merge of the runs' free scan codes."""
        if not self.runs:
            return iter(())
        if len(self.runs) == 1:
            return self.runs[0].iter_rows()
        return iter(OvcLoserTree(
            [r.iter_rows() for r in self.runs], self.spec, stats
        ))

    def compact(self, stats: CompareStats | None = None) -> ColumnarRun:
        """Merge all runs into one, delete the inputs."""
        if not self.runs:
            raise ValueError("nothing to compact")
        rows = list(self.scan(stats))
        keys = np.array([k for k, _, _ in rows], dtype=np.int64).reshape(
            len(rows), self.spec.arity
        )
        pays = [p for _, _, p in rows]
        payloads = {} if all(p is None for p in pays) else \
            {"p0": np.array([-1 if p is None else p for p in pays])}
        old = self.runs
        merged = write_columnar_run(
            os.path.join(self.root, f"{self._next_id:06d}.run"),
            keys, self.spec, payloads, assume_sorted=True,
        )
        self._next_id += 1
        for r in old:
            r.delete()
        self.runs = [merged]
        return merged
