"""Section 4.4: in-stream duplicate removal.

In a sorted OVC-coded stream a duplicate is exactly a row whose offset
equals the arity (duplicate code), so the groups ``coded_groups`` cuts
on the full key are the duplicate groups; emitting each group's first
row with its code unchanged is the whole operator. Since a dropped
duplicate's code is the combine-neutral element, the filter rule of
Section 4.1 degenerates to "keep the code as is".
"""
from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.ovc import OvcSpec, coded_groups
from repro.core.stats import CompareStats


def dedup_stream(
    stream: Iterable,
    spec: OvcSpec,
    stats: CompareStats | None = None,
    count_payloads: bool = False,
) -> Iterator[tuple]:
    """Drop rows with the duplicate code. With ``count_payloads`` the
    surviving row's payload is the size of its duplicate group."""
    for group in coded_groups(stream, spec, spec.arity):
        key, code, payload = group[0]
        if stats is not None:
            stats.rows_in += len(group)
            stats.rows_out += 1
        yield key, code, len(group) if count_payloads else payload
