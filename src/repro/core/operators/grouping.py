"""Section 4.5: in-stream grouping and aggregation.

In a stream sorted on the full key with OVCs, a row starts a new group
of the leading ``group_cols`` columns iff its offset is smaller than
``group_cols`` — one integer comparison per row (``coded_groups``; this
is the Figure 1 experiment). The output row of a group keeps the code
of the group's first input row, re-packed for arity ``group_cols``
(``OvcSpec.recode``); in the output no row has an offset >=
``group_cols``.

``group_stream_full_compare`` is the baseline Figure 1 compares
against: boundary detection by comparing all ``group_cols`` columns of
each row with its predecessor.

Section 4.6 (pivoting) is algorithmically identical to grouping — the
aggregate function receives the group's rows and may scatter them into
output columns — so ``pivot_stream`` simply parameterizes
``group_stream`` with a scatter aggregator.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.keys import compare_keys
from repro.core.ovc import OvcSpec, coded_groups
from repro.core.stats import CompareStats


def group_stream(
    stream: Iterable,
    spec: OvcSpec,
    group_cols: int,
    agg: Callable,
    init: Callable,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Aggregate over groups of the leading ``group_cols`` key columns.

    ``init(key, payload)`` builds a fresh accumulator from a group's
    first row; ``agg(acc, key, payload)`` folds subsequent rows. Yields
    ``(group_key, code, accumulator)`` with arity-``group_cols`` codes.
    """
    for group in coded_groups(stream, spec, group_cols):
        rows = iter(group)
        key, code, payload = next(rows)
        acc = init(key, payload)
        for k, _, p in rows:
            acc = agg(acc, k, p)
        if stats is not None:
            stats.rows_in += len(group)
            stats.rows_out += 1
        yield key[:group_cols], spec.recode(code, group_cols), acc


def group_stream_full_compare(
    stream: Iterable,
    group_cols: int,
    agg: Callable,
    init: Callable,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Baseline: same aggregation, but group boundaries found by full
    comparisons of the ``group_cols`` leading columns (counted into
    ``stats.col_cmps``). Input rows are ``(key, payload)``; output is
    ``(group_key, accumulator)``."""
    cur_key = acc = None
    for key, payload in stream:
        if stats is not None:
            stats.rows_in += 1
        if cur_key is not None and compare_keys(
            key[:group_cols], cur_key, stats
        ) == 0:
            acc = agg(acc, key, payload)
            continue
        if cur_key is not None:
            if stats is not None:
                stats.rows_out += 1
            yield cur_key, acc
        cur_key = key[:group_cols]
        acc = init(key, payload)
    if cur_key is not None:
        if stats is not None:
            stats.rows_out += 1
        yield cur_key, acc


def pivot_stream(
    stream: Iterable,
    spec: OvcSpec,
    group_cols: int,
    pivot_col: int,
    n_buckets: int,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Section 4.6: pivot ``(group, bucket, payload)`` rows into
    ``(group, [payload per bucket])`` rows — grouping with a scatter
    aggregator. ``pivot_col`` indexes the key column holding the bucket
    (e.g. month); payloads of the same bucket are summed."""

    def init(key, payload):
        row = [0] * n_buckets
        row[key[pivot_col] % n_buckets] += payload if payload else 0
        return row

    def agg(acc, key, payload):
        acc[key[pivot_col] % n_buckets] += payload if payload else 0
        return acc

    return group_stream(stream, spec, group_cols, agg, init, stats)
