"""External merge sort with tree-of-losers queues and offset-value codes.

Run generation follows the paper's Section 3 formulation: fill memory
with up to M rows and merge M sorted runs of a single row each through a
tree-of-losers priority queue; the pop sequence is a sorted run whose
rows carry OVCs relative to their predecessor as a free by-product.
(Replacement selection with run numbers would double the expected run
length to 2M; see DESIGN.md for why this substitution is immaterial.)

Whether the input spills is the one rule of ``core.runs.memory_loads``:
if the input fits in one memory load, its sorted run is yielded directly
without spilling; otherwise every load goes to disk as one columnar run
(``core.runs``) and a final multiway merge (again a tree-of-losers
queue, consuming the codes the runs give back) produces the output — so
each input row is spilled exactly once, the property Figure 3 relies on.

``dedup=True`` enables in-sort duplicate removal [10]: duplicates are
collapsed (with a count payload) both during run generation and during
the merge, detected by the duplicate code alone.

``compare=compare_full`` gives the baseline sort without OVC: the same
queues, loads and spills, but every tree match compares full keys and
the output codes are not maintained (so it cannot deduplicate).
"""
from __future__ import annotations

import os
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.operators.dedup import dedup_stream
from repro.core.ovc import OvcSpec, compare_update
from repro.core.runs import memory_loads, run_rows, write_run
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree
from repro.storage.columnar import ColumnarRun


def sort_in_memory(
    keys: Sequence[tuple],
    spec: OvcSpec,
    stats: CompareStats | None = None,
    payloads: Sequence | None = None,
    compare: Callable = compare_update,
) -> Iterator[tuple]:
    """Sort one memory load by merging single-row runs; yields
    ``(key, code, payload)`` in sorted order with output OVCs."""
    if not keys:
        return iter(())
    streams = [
        [(tuple(k), spec.prime(k), payloads[i] if payloads is not None else None)]
        for i, k in enumerate(keys)
    ]
    return iter(OvcLoserTree(streams, spec, stats, compare))


def _check_dedup(dedup: bool, compare: Callable) -> None:
    if dedup and compare is not compare_update:
        raise ValueError("dedup needs the output codes of compare_update")


def generate_runs(
    rows: Iterable[tuple],
    spec: OvcSpec,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    dedup: bool = False,
    tag: str = "run",
    compare: Callable = compare_update,
) -> tuple[list[ColumnarRun], Iterator[tuple] | None]:
    """Run generation. ``rows`` yields ``(key, payload)``.

    Returns ``(run_files, in_memory_stream)``: if the whole input fits in
    one memory load (``memory_loads``), ``run_files`` is empty and the
    sorted stream is returned directly (no spill); otherwise each load
    is sorted and written as run ``{tag}-{i}.arrow``, and the second
    element is None.
    """
    _check_dedup(dedup, compare)
    fits, loads = memory_loads(rows, memory_rows)

    def sort_load(load: list[tuple]) -> Iterator[tuple]:
        stream = sort_in_memory([r[0] for r in load], spec, stats,
                                [r[1] for r in load], compare)
        return dedup_stream(stream, spec, payload=len) if dedup else stream

    if fits:
        return [], sort_load(next(loads, []))
    return [write_run(os.path.join(tmpdir, f"{tag}-{i}.arrow"),
                      sort_load(load), spec, stats)
            for i, load in enumerate(loads)], None


def merge_runs(
    runs: Sequence[ColumnarRun],
    spec: OvcSpec,
    stats: CompareStats | None = None,
    dedup: bool = False,
    compare: Callable = compare_update,
) -> Iterator[tuple]:
    """Multiway merge of spilled runs via a tree-of-losers queue,
    consuming the runs' OVCs and producing output OVCs."""
    _check_dedup(dedup, compare)
    merged = iter(OvcLoserTree([run_rows(r) for r in runs], spec, stats,
                               compare))
    # Rows read back from deduplicated runs carry counts: sum them.
    return dedup_stream(merged, spec, payload=lambda group: sum(
        map(itemgetter(2), group))) if dedup else merged


def external_sort(
    rows: Iterable[tuple],
    spec: OvcSpec,
    memory_rows: int,
    tmpdir: str,
    stats: CompareStats | None = None,
    dedup: bool = False,
    tag: str = "sort",
    compare: Callable = compare_update,
) -> Iterator[tuple]:
    """Full external sort: yields ``(key, code, payload)`` sorted with
    output OVCs. Spills each row at most once."""
    runs, in_mem = generate_runs(rows, spec, memory_rows, tmpdir, stats,
                                 dedup, tag, compare)
    if in_mem is not None:
        # generate_runs already deduplicated the in-memory stream.
        yield from in_mem
        return
    yield from merge_runs(runs, spec, stats, dedup, compare)
    for r in runs:
        r.delete()
