"""Section 4.8: order-preserving nested-loops (lookup) join.

The outer input is sorted on its key with OVCs; ``lookup(key, payload)``
returns the matching inner rows as a stream sorted on the inner sort
key with OVCs (think: an index lookup returning a sorted coded list).
Output keys are ``outer_key ++ inner_key`` (arity KO + KI), and output
codes cost nothing: the first match of an outer row carries the outer
row's code (offsets < KO keep offset and value under the wider arity),
later matches carry the inner row's code with the offset incremented by
KO — numerically identical to the inner code under the output arity.

Within a group of duplicate outer keys the roles of the loops are
reversed (each inner row joins all buffered outer rows before the next
inner row) so that output order and maximal offsets are preserved.

Each group of equal outer keys (``coded_groups``) is one item of
``filter_stream`` with the group's code re-packed for the output arity
(``OvcSpec.recode``), passing iff the group has output rows: codes of
suppressed groups are max-combined into the next emitted row, as in the
merge join. Semi and anti joins output the outer key only (arity KO).
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.operators.filterop import filter_stream
from repro.core.ovc import OvcSpec, coded_groups
from repro.core.stats import CompareStats

_JOIN_TYPES = ("inner", "left_outer", "left_semi", "left_anti")


def lookup_join(
    outer: Iterable,
    lookup: Callable,
    spec_outer: OvcSpec,
    inner_arity: int,
    join_type: str = "inner",
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Order-preserving lookup join.

    ``join_type``: "inner", "left_outer", "left_semi", or "left_anti".
    Inner/outer yield ``(outer_key ++ inner_key, code, (outer_payload,
    inner_payload))`` (inner side zero-padded / None for outer
    non-matches); semi/anti yield ``(outer_key, code, outer_payload)``.
    """
    if join_type not in _JOIN_TYPES:
        raise ValueError(f"unknown join_type {join_type!r}")
    semi_like = join_type in ("left_semi", "left_anti")
    width = spec_outer.arity + (0 if semi_like else inner_arity)
    out_spec = OvcSpec(width, spec_outer.base)
    dup = out_spec.duplicate_code

    def rows(group: list, inners: list) -> list:
        """The output rows of one outer key group; the first row's code
        is a placeholder for the group code."""
        if semi_like:  # rows after a group's first carry the dup code
            keep = bool(inners) == (join_type == "left_semi")
            return group if keep else []
        okey = group[0][0]
        if not inners:
            pad = (0,) * inner_arity
            return [] if join_type == "inner" else \
                [(okey + pad, dup, (p, None)) for _, _, p in group]
        # Inner loop outermost within a duplicate-outer group ("roles
        # reversed", Section 4.8). An inner code's offset shifts by KO,
        # so numerically it is unchanged under the output arity.
        return [(okey + tuple(ikey), icode if gi == 0 else dup,
                 (opayload, ipayload))
                for ikey, icode, ipayload in inners
                for gi, (_, _, opayload) in enumerate(group)]

    def key_groups() -> Iterator[tuple]:
        for group in coded_groups(outer, spec_outer, spec_outer.arity):
            okey, code, payload = group[0]
            if stats is not None:
                stats.rows_in += len(group)
            yield okey, spec_outer.recode(code, width), \
                rows(group, list(lookup(okey, payload)))

    for _, code, out in filter_stream(key_groups(), lambda _, out: out):
        if stats is not None:
            stats.rows_out += len(out)
        key, _, payload = out[0]
        out[0] = key, code, payload
        yield from out
