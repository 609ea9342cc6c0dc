"""Section 4.2: projection over a sorted, OVC-coded stream.

Removing trailing sort-key columns (keeping the leading ``keep_cols``)
preserves the sort order; output codes are the input codes with the
offset clamped to the surviving prefix: a row whose first difference
lay inside the surviving prefix keeps its (re-based) code, a row whose
first difference lay in a removed column becomes a duplicate of its
predecessor (duplicate code). No column comparisons are needed.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.ovc import OvcSpec
from repro.core.stats import CompareStats


def project_stream(
    stream: Iterable,
    spec_in: OvcSpec,
    keep_cols: int,
    stats: CompareStats | None = None,
) -> Iterator[tuple]:
    """Keep the leading ``keep_cols`` key columns. Yields
    ``(key[:keep_cols], code, payload)`` under ``OvcSpec(keep_cols, base)``."""
    if not 1 <= keep_cols <= spec_in.arity:
        raise ValueError("keep_cols must be in 1..arity")
    spec_out = OvcSpec(keep_cols, spec_in.base, spec_in.descending)
    for key, code, payload in stream:
        if stats is not None:
            stats.rows_in += 1
            stats.rows_out += 1
        off = spec_in.offset_of(code)
        if off >= keep_cols:
            yield key[:keep_cols], spec_out.duplicate_code, payload
        else:
            yield key[:keep_cols], spec_out.code(off, spec_in.value_of(code)), payload
