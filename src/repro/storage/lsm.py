"""Log-structured merge-forest over columnar runs (Section 4.10, Napa).

Ingest sorts a batch on normalized keys (``keys.sort_order``) and writes
one RLE columnar run. A merged scan feeds every run's arrays and free
scan codes to ``core.ovc.merge_coded_runs``, which consumes them and
emits the merge output's codes; compaction writes the scan as one run.
All runs share the forest's ``OvcSpec`` and payload columns.
"""
from __future__ import annotations

import os

import numpy as np

from repro.core.keys import sort_order
from repro.core.ovc import OvcSpec, merge_coded_runs
from repro.core.stats import CompareStats
from repro.storage.columnar import ColumnarRun, write_columnar_run


class LsmForest:
    """A forest of sorted runs in one directory."""

    def __init__(self, root: str, spec: OvcSpec) -> None:
        self.root = root
        self.spec = spec
        os.makedirs(root, exist_ok=True)
        names = sorted(n for n in os.listdir(root) if n.endswith(".run"))
        self.runs = [ColumnarRun(os.path.join(root, n)) for n in names]
        for run in self.runs:
            want = (spec, self.runs[0].payload_names)
            if (run.spec, run.payload_names) != want:
                raise ValueError(f"run {run.path} has spec and payload "
                                 f"columns {(run.spec, run.payload_names)}, "
                                 f"the forest {want}")
        self._next_id = max((int(n[:-4]) + 1 for n in names), default=0)

    def ingest(self, keys: np.ndarray,
               payload: np.ndarray | None = None) -> ColumnarRun:
        """Sort a batch and persist it as one new run."""
        names = [] if payload is None else ["p0"]
        if self.runs and self.runs[0].payload_names != names:
            raise ValueError(f"batch payload columns {names} differ from "
                             f"the forest's {self.runs[0].payload_names}")
        keys = np.asarray(keys, dtype=np.int64)
        if payload is not None and len(payload) != len(keys):
            raise ValueError(f"payload has {len(payload)} rows, "
                             f"the key batch {len(keys)}")
        order = sort_order(keys)
        payloads = {n: np.asarray(payload)[order] for n in names}
        run = write_columnar_run(
            os.path.join(self.root, f"{self._next_id:06d}.run"),
            keys[order], self.spec, payloads, assume_sorted=True,
        )
        self._next_id += 1
        self.runs.append(run)
        return run

    def scan(self, stats: CompareStats | None = None
             ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """``ColumnarRun.scan_with_ovc`` over the merged runs: equal keys
        in run order, codes relative to the previous output row."""
        if not self.runs:
            return (np.zeros((0, self.spec.arity), np.int64),
                    np.zeros(0, np.int64), {})
        keys, codes, pays = zip(*(r.scan_with_ovc() for r in self.runs))
        order, codes = merge_coded_runs(keys, codes, self.spec, stats)
        return np.concatenate(keys)[order], codes, {
            n: np.concatenate([p[n] for p in pays])[order]
            for n in self.runs[0].payload_names}

    def compact(self, stats: CompareStats | None = None) -> ColumnarRun:
        """Merge all runs into one, delete the inputs."""
        if not self.runs:
            raise ValueError("nothing to compact")
        keys, _, payloads = self.scan(stats)
        merged = write_columnar_run(
            os.path.join(self.root, f"{self._next_id:06d}.run"),
            keys, self.spec, payloads, assume_sorted=True,
        )
        self._next_id += 1
        for r in self.runs:
            r.delete()
        self.runs = [merged]
        return merged
