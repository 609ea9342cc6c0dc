"""Offset-value coding: encode, compare-and-update, the max theorem.

This is the software equivalent of IBM's CFC "compare and form codeword"
instruction (paper Section 3).

The offset-value code of key value B relative to base key A (with
A <= B, arity K, column domain [0, base)) packs

    code = (K - pre(A, B)) * base + val(B, pre(A, B))        if B != A
    code = 0                                                 if B == A

so that, for two keys encoded relative to the *same* base, a single
integer comparison orders them: the smaller code sorts first. These
are the paper's ascending codes, the ones every Section 4 rule is stated
for; ``jobs/table1_ovc.py`` derives the other block of Table 1 from
them.

The fundamental results of Section 4 are implemented here:

- the theorem ``ovc(A,C) = max(ovc(A,B), ovc(B,C))``, extended to any
  number of intermediate keys by folding: codes are plain integers, so
  callers fold them with ``max`` and order them with ``<``.
- ``compare_update`` — full tournament comparison: decide by codes when
  they differ (Iyer's lemma: the loser keeps its code), fall back to
  column comparisons from the offset on, and re-encode the loser
  relative to the winner.
- ``compare_full`` — the baseline with the same signature: ignore codes
  and compare keys column by column from column 0.
- ``merge_coded_runs`` — vectorized merge of coded runs (Section 4.9).
- ``coded_groups`` and ``OvcSpec.recode`` — the row-wise group cutter
  and code re-packer every order-preserving operator is built from,
  twins of the vectorized ``boundary_mask`` and ``rebase_codes``.

The vectorized helpers are the one place outside ``OvcSpec`` that packs
and unpacks codes.

Fences: ``late_fence_code`` sorts after every valid code and stands in
for exhausted merge inputs; like F1 Query (Section 5) the fence is
folded into the same integer so no separate validity test is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.keys import compare_keys, shared_prefix, sort_order
from repro.core.stats import CompareStats

#: Default column domain: 32-bit unsigned values, so a code fits in an
#: int64 for any realistic arity (the paper's workload uses 8-byte ints
#: with "only a few distinct values").
DEFAULT_BASE = 1 << 32


@dataclass(frozen=True)
class OvcSpec:
    """Shape of a coded stream: key arity and column domain.

    ``arity`` is the number of sort-key columns; every column value must
    lie in ``[0, base)``.
    """

    arity: int
    base: int = DEFAULT_BASE

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.base < 2:
            raise ValueError("base must be >= 2")

    # --- encoding ---------------------------------------------------

    def code(self, offset: int, value: int) -> int:
        """Pack (offset, value-at-offset) into one integer code.

        ``offset == arity`` means "equal to the base key" and packs to 0.
        """
        if not 0 <= offset <= self.arity:
            raise ValueError(f"offset {offset} out of range 0..{self.arity}")
        if offset == self.arity:
            return 0
        if not 0 <= value < self.base:
            raise ValueError(f"value {value} out of domain [0, {self.base})")
        return (self.arity - offset) * self.base + value

    def boundary_code(self, prefix: int) -> int:
        """Smallest code with offset < ``prefix``: codes at or
        above it start a new group of the first ``prefix`` columns."""
        return (self.arity - prefix + 1) * self.base

    def recode(self, code: int, arity: int) -> int:
        """``code`` re-packed for a key of the first ``arity`` columns
        (fewer or more than ``self.arity``): offset and value stay, and
        an offset at or past ``arity`` becomes the duplicate code."""
        shift = (self.arity - arity) * self.base
        return code - shift if code >= shift + self.base else 0

    def check_domain(self, keys: np.ndarray) -> None:
        """Raise ``ValueError`` on a key value outside ``[0, base)``."""
        lo, hi = (int(keys.min()), int(keys.max())) if keys.size else (0, 0)
        if lo < 0 or hi >= self.base:
            raise ValueError(f"key value {lo if lo < 0 else hi} outside "
                             f"the code domain [0, {self.base})")

    def offset_of(self, code: int) -> int:
        """Recover the offset (first-difference column index) from a code."""
        return self.arity - code // self.base if code else self.arity

    def value_of(self, code: int) -> int:
        """Recover the value-at-offset from a code (0 for a duplicate)."""
        return code % self.base

    def encode_rel(self, base_key: Sequence | None, key: Sequence) -> int:
        """Brute-force ovc(base_key, key); ``base_key=None`` means the
        virtual ``-inf`` row, giving the primed offset-0 code."""
        if base_key is None:
            return self.code(0, key[0])
        p = shared_prefix(base_key, key)
        return self.code(p, key[p] if p < self.arity else 0)

    def prime(self, key: Sequence) -> int:
        """Offset-0 code for the first row of a stream (relative to -inf)."""
        return self.code(0, key[0])

    # --- fences -----------------------------------------------------

    @property
    def late_fence_code(self) -> int:
        """A code that sorts after every valid code (exhausted input)."""
        return (self.arity + 1) * self.base

    @property
    def duplicate_code(self) -> int:
        """The code of a key equal to its base (offset == arity)."""
        return 0

    def is_duplicate(self, code: int) -> bool:
        return code == self.duplicate_code


def compare_update(
    spec: OvcSpec,
    key_a: Sequence | None,
    code_a: int,
    key_b: Sequence | None,
    code_b: int,
    stats: CompareStats | None = None,
) -> tuple[bool, int]:
    """Tournament comparison of two entries coded relative to the same base.

    Returns ``(a_wins, loser_code)`` where ``loser_code`` is the loser's
    code **relative to the winner**. Ties (equal keys) are won by ``a``
    (stability) and the loser's code becomes the duplicate code.

    A ``None`` key marks a fence; fences always lose by code, which is
    the F1 trick of folding validity into the code integer.
    """
    if stats is not None:
        stats.row_cmps += 1
    if code_a != code_b:
        if stats is not None:
            stats.code_decided += 1
        # Iyer's lemma: the code that lost relative to the old base is
        # also the loser's code relative to the new winner.
        if code_a < code_b:
            return True, code_b
        return False, code_a
    # Equal codes. Fences compare equal only to fences -> arbitrary win.
    if key_a is None or key_b is None:
        return True, code_b
    if spec.is_duplicate(code_a):
        # Both equal to the shared base, hence to each other.
        return True, spec.duplicate_code
    # Both differ from the base at the same offset with the same value:
    # columns before and at the offset are equal; compare the rest.
    j = spec.offset_of(code_a) + 1
    while j < spec.arity:
        if stats is not None:
            stats.col_cmps += 1
        if key_a[j] != key_b[j]:
            break
        j += 1
    if j == spec.arity:
        return True, spec.duplicate_code
    if key_a[j] < key_b[j]:
        return True, spec.code(j, key_b[j])
    return False, spec.code(j, key_a[j])


def compare_full(
    spec: OvcSpec,
    key_a: Sequence | None,
    code_a: int,
    key_b: Sequence | None,
    code_b: int,
    stats: CompareStats | None = None,
) -> tuple[bool, int]:
    """Baseline tournament comparison without codes: every match
    compares the keys from column 0 on, which is what OVC avoids.

    Same signature and tie rule as ``compare_update`` (a fence, i.e. a
    ``None`` key, loses), but codes are ignored and not maintained: the
    loser keeps whatever code it had.
    """
    if stats is not None:
        stats.row_cmps += 1
    if key_a is None:
        return False, code_a
    if key_b is None or compare_keys(key_a, key_b, stats) <= 0:
        return True, code_b
    return False, code_a


# --- vectorized batch encode/decode (the "columnar scan" fast path) ---

def encode_sorted_array(
    keys: np.ndarray, spec: OvcSpec, prev_key: Sequence | None = None
) -> np.ndarray:
    """Vectorized OVC for a block of sorted keys.

    ``keys`` is an (n, arity) int array sorted lexicographically
    ascending. Each row is encoded relative to its predecessor; the
    first row is encoded relative to ``prev_key`` (the last row of the
    previous block) or primed at offset 0 when ``prev_key`` is None.
    Returns an (n,) int64 array of codes. This is the per-partition
    executor kernel used by ``sparkops.ovc_column.attach_ovc``.

    Raises ``ValueError`` if any key value lies outside ``[0, base)``:
    such a value would corrupt the offset packed above it in the code.
    """
    _, k = keys.shape
    if k != spec.arity:
        raise ValueError(f"key width {k} != spec arity {spec.arity}")
    if spec.arity * spec.base + (spec.base - 1) > np.iinfo(np.int64).max:
        raise ValueError("arity * base does not fit in int64")
    keys = np.asarray(keys, dtype=np.int64)
    spec.check_domain(keys)
    diff = np.empty(keys.shape, dtype=bool)
    # A virtual -inf predecessor differs from the first row at offset 0.
    diff[:1] = True if prev_key is None else keys[:1] != np.asarray(prev_key)
    diff[1:] = keys[1:] != keys[:-1]
    return _first_diff_codes(diff, keys, spec)[1]


def merge_coded_runs(
    keys: Sequence[np.ndarray], codes: Sequence[np.ndarray], spec: OvcSpec,
    stats: CompareStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted runs (``keys[r]``, ``codes[r]`` relative to the run
    predecessor, the first primed) into ``(order, codes)``: ``order``
    indexes the runs' concatenation, equal keys in run order, and codes
    are relative to the output predecessor. A row after its own run
    predecessor keeps its code (``code_decided``). At a run switch, run
    predecessor y' <= output predecessor x <= row y gives ovc(x, y) <=
    ovc(y', y), so ``col_cmps`` counts columns from that offset on only.
    """
    run = np.repeat(np.arange(len(keys)), [len(c) for c in codes])
    keys = np.concatenate(keys).reshape(-1, spec.arity)
    order = sort_order(keys)
    out = np.concatenate(codes).astype(np.int64)[order]
    switch = np.flatnonzero(np.diff(run[order])) + 1
    start = decode_offsets(out[switch], spec)
    y, x = keys[order[switch]], keys[order[switch - 1]]
    diff = (y != x) & (np.arange(spec.arity) >= start[:, None])
    offsets, out[switch] = _first_diff_codes(diff, y, spec)
    if stats is not None:
        stats.row_cmps += max(len(out) - 1, 0)
        stats.code_decided += max(len(out) - 1 - len(switch), 0)
        stats.col_cmps += int((np.minimum(offsets + 1, spec.arity)
                               - start).sum())
    return order, out


def _first_diff_codes(diff: np.ndarray, keys: np.ndarray, spec: OvcSpec
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, codes) of ``keys`` rows whose columns that differ from
    their base row are marked in ``diff``."""
    k = spec.arity
    offsets = np.where(diff.any(axis=1), diff.argmax(axis=1), k)
    return offsets, pack_codes(
        offsets, keys[np.arange(len(keys)), np.minimum(offsets, k - 1)], spec)


def pack_codes(offsets: np.ndarray, values: np.ndarray,
               spec: OvcSpec) -> np.ndarray:
    """Vectorized codes from offsets and values at the offset; an offset
    equal to the arity packs to the duplicate code 0."""
    offsets = np.asarray(offsets, dtype=np.int64)
    return np.where(offsets < spec.arity, (spec.arity - offsets) * spec.base
                    + values, 0).astype(np.int64)


def decode_offsets(codes: np.ndarray, spec: OvcSpec) -> np.ndarray:
    """Vectorized offset extraction from codes."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.where(codes > 0, spec.arity - codes // spec.base, spec.arity)


def rebase_codes(codes: np.ndarray, spec: OvcSpec, arity: int) -> np.ndarray:
    """Re-pack codes of offset < ``arity`` for the key's first ``arity``
    columns (a group's code after in-stream aggregation); the other
    codes become the duplicate code 0. ``OvcSpec.recode``, vectorized."""
    codes = np.asarray(codes, dtype=np.int64)
    shift = (spec.arity - arity) * spec.base
    return np.where(codes >= shift + spec.base, codes - shift, 0)


def boundary_mask(codes: np.ndarray, spec: OvcSpec, prefix: int) -> np.ndarray:
    """Vectorized Section 4.5 test: row starts a new group of the first
    ``prefix`` key columns iff its offset < prefix, i.e. its code is
    at least ``spec.boundary_code(prefix)`` — one integer
    compare per row."""
    return np.asarray(codes, dtype=np.int64) >= spec.boundary_code(prefix)


def coded_groups(stream: Iterable, spec: OvcSpec, prefix: int
                 ) -> Iterator[list]:
    """Cut a coded stream into lists of rows, one per group of the first
    ``prefix`` key columns (Sections 4.3-4.6): a row starts a group iff
    its offset is below ``prefix``, i.e. its code is at least
    ``spec.boundary_code(prefix)``. The first row always starts one."""
    if not 1 <= prefix <= spec.arity:
        raise ValueError(f"prefix must be in 1..{spec.arity}")
    thresh = spec.boundary_code(prefix)
    group: list = []
    for row in stream:
        if row[1] >= thresh and group:
            yield group
            group = []
        group.append(row)
    if group:
        yield group
