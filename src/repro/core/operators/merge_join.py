"""Section 4.7: merge join (inner, semi, anti, left outer) and set
operations (intersect, difference) over sorted, OVC-coded streams.

Both inputs are sorted on the join key (the streams' key IS the join
key; non-key columns ride in the payload). The merge logic is a 2-way
tree-of-losers merge of the two inputs, which (a) needs no column
comparisons beyond those of a merge step in an external sort, and
(b) directly exposes key-equality through the duplicate code: in the
merged tagged stream, rows of one equal-key group are exactly a row
followed by rows with the duplicate code (``coded_groups`` on the full
key).

Output OVC rules (all integer arithmetic):
- each key group is one item of ``filter_stream`` whose code is the
  group's first merged code and which passes iff the group has output,
  so a group's first output row carries its code max-combined with the
  codes of the groups without output since the previous output (the
  filter rule generalized to joins — "the minimum offset among an
  output row and the recent rows that failed the predicate");
- secondary outputs of a multi-match (duplicate join keys) carry the
  duplicate code.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from repro.core.operators.filterop import filter_stream
from repro.core.ovc import OvcSpec, coded_groups
from repro.core.stats import CompareStats
from repro.core.tree_of_losers import OvcLoserTree


class JoinType(Enum):
    INNER = "inner"
    LEFT_SEMI = "left_semi"
    LEFT_ANTI = "left_anti"
    LEFT_OUTER = "left_outer"


_L, _R = 0, 1


def _tagged(stream: Iterable, tag: int) -> Iterator[tuple]:
    for key, code, payload in stream:
        yield key, code, (tag, payload)


def _join_rows(lp: list, rp: list, join_type: JoinType) -> list:
    """The output payloads of one key group with left payloads ``lp``
    and right payloads ``rp``."""
    matched = bool(lp) and bool(rp)
    if join_type is JoinType.LEFT_SEMI:
        return lp if matched else []
    if join_type is JoinType.LEFT_ANTI:
        return [] if matched else lp
    if matched:
        return [(pl, pr) for pr in rp for pl in lp]
    return [(pl, None) for pl in lp] if join_type is JoinType.LEFT_OUTER \
        else []


def merge_join(
    left: Iterable,
    right: Iterable,
    spec: OvcSpec,
    join_type: JoinType = JoinType.INNER,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Join two sorted coded streams on their (full) key.

    Yields ``(key, code, payload)``; for INNER/LEFT_OUTER the payload is
    ``(left_payload, right_payload)`` (right None for outer non-match),
    for semi/anti joins it is the left payload. Output codes follow the
    Section 4.7 rules; codes are relative to predecessors in the output.
    """
    merged = OvcLoserTree(
        [_tagged(left, _L), _tagged(right, _R)], spec, stats
    )

    def key_groups() -> Iterator[tuple]:
        # One (key, group code, output payloads) item per distinct key;
        # the group code is its first merged row's.
        for group in coded_groups(merged, spec, spec.arity):
            if stats is not None:
                stats.rows_in += len(group)
            lp, rp = [], []
            for _, _, (tag, p) in group:
                (rp if tag else lp).append(p)
            yield group[0][0], group[0][1], _join_rows(lp, rp, join_type)

    for key, code, emit in filter_stream(key_groups(), lambda _, rows: rows):
        if stats is not None:
            stats.rows_out += len(emit)
        yield key, code, emit[0]
        for payload in emit[1:]:
            yield key, spec.duplicate_code, payload


def intersect_distinct(
    left: Iterable,
    right: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """SQL INTERSECT over duplicate-free sorted inputs = left semi join
    (Section 4.7: "intersection proceeds mostly like an inner join")."""
    return merge_join(left, right, spec, JoinType.LEFT_SEMI, stats)


def difference_distinct(
    left: Iterable,
    right: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """SQL EXCEPT over duplicate-free sorted inputs = left anti join."""
    return merge_join(left, right, spec, JoinType.LEFT_ANTI, stats)
