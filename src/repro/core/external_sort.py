"""External merge sort with tree-of-losers queues and offset-value codes.

Run generation follows the paper's Section 3 formulation: fill memory
with up to M rows and merge M sorted runs of a single row each through a
tree-of-losers priority queue; the pop sequence is a sorted run whose
rows carry OVCs relative to their predecessor as a free by-product.
(Replacement selection with run numbers would double the expected run
length to 2M; see DESIGN.md for why this substitution is immaterial.)

If the input fits in memory the single run is yielded directly without
spilling; otherwise runs go to disk and a final multiway merge (again a
tree-of-losers queue, consuming the stored codes) produces the output —
so each input row is spilled exactly once, the property Figure 3 relies
on.

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
from repro.core.runs import RunFile, write_run
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree


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
) -> tuple[list[RunFile], Iterator[tuple] | None]:
    """Run generation. ``rows`` yields ``(key, payload)``.

    Returns ``(run_files, in_memory_stream)``: if the whole input fit in
    one memory load, ``run_files`` is empty and the sorted stream is
    returned directly (no spill); otherwise all runs are on disk and the
    second element is None.
    """
    if memory_rows < 1:
        raise ValueError("memory_rows must be >= 1")
    _check_dedup(dedup, compare)
    it = iter(rows)
    runs: list[RunFile] = []
    first_load: list[tuple] | None = None
    any_input = False
    n_run = 0
    while True:
        load = []
        for _ in range(memory_rows):
            try:
                load.append(next(it))
            except StopIteration:
                break
        if not load:
            break
        any_input = True
        sorted_stream = sort_in_memory(
            [r[0] for r in load], spec, stats, [r[1] for r in load], compare
        )
        if dedup:
            sorted_stream = dedup_stream(sorted_stream, spec, payload=len)
        if not runs and first_load is None and len(load) < memory_rows:
            # whole input fit in memory: no spill at all
            return [], sorted_stream
        if first_load is not None:
            # second load arrived: spill the buffered first load now
            runs.append(write_run(os.path.join(tmpdir, f"{tag}-0.arrow"),
                                  first_load, spec, stats))
            first_load = None
        if not runs and first_load is None and len(load) == memory_rows:
            # might still be the only load; buffer it until we know
            first_load = list(sorted_stream)
            n_run += 1
            continue
        runs.append(write_run(os.path.join(tmpdir, f"{tag}-{n_run}.arrow"),
                              sorted_stream, spec, stats))
        n_run += 1
    if first_load is not None:
        # exactly one full memory load: still fits, return directly
        return [], iter(first_load)
    if not any_input:
        return [], iter(())
    return runs, None


def merge_runs(
    runs: Sequence[RunFile],
    spec: OvcSpec,
    stats: CompareStats | None = None,
    dedup: bool = False,
    compare: Callable = compare_update,
) -> Iterator[tuple]:
    """Multiway merge of spilled runs via a tree-of-losers queue,
    consuming the stored OVCs and producing output OVCs."""
    _check_dedup(dedup, compare)
    merged = iter(OvcLoserTree(list(runs), spec, stats, compare))
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
