"""Offset-value coding: encode, compare-and-update, theorem combine.

This is the software equivalent of IBM's CFC "compare and form codeword"
instruction (paper Section 3).

An **ascending** offset-value code of key value B relative to base key A
(with A <= B, arity K, column domain [0, base)) packs

    code = (K - pre(A, B)) * base + val(B, pre(A, B))        if B != A
    code = 0                                                 if B == A

so that, for two keys encoded relative to the *same* base, a single
integer comparison orders them: the smaller code sorts earlier. A
**descending** code is ``offset * base + (base - value)``; there the
*larger* code sorts earlier (paper Table 1 shows both variants).

The fundamental results of Section 4 are implemented here:

- ``combine(a, b)`` — the theorem ``ovc(A,C) = max(ovc(A,B), ovc(B,C))``
  (ascending; ``min`` for descending), extended to any number of
  intermediate keys by ``reduce``.
- ``compare_update`` — full tournament comparison: decide by codes when
  they differ (Iyer's lemma: the loser keeps its code), fall back to
  column comparisons from the offset on, and re-encode the loser
  relative to the winner.
- ``compare_full`` — the baseline with the same signature: ignore codes
  and compare keys column by column from column 0.

Fences: ``late_fence_code`` sorts after every valid code and stands in
for exhausted merge inputs; like F1 Query (Section 5) the fence is
folded into the same integer so no separate validity test is needed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from repro.core.keys import Key, compare_keys, shared_prefix
from repro.core.stats import CompareStats

#: Default column domain: 32-bit unsigned values, so a code fits in an
#: int64 for any realistic arity (the paper's workload uses 8-byte ints
#: with "only a few distinct values").
DEFAULT_BASE = 1 << 32


@dataclass(frozen=True)
class OvcSpec:
    """Shape of a coded stream: key arity and column domain.

    ``arity`` is the number of sort-key columns; every column value must
    lie in ``[0, base)``. ``descending`` selects descending codes
    (paper Table 1, left block); ascending codes are the default and the
    workhorse everywhere else.
    """

    arity: int
    base: int = DEFAULT_BASE
    descending: bool = False

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.base < 2:
            raise ValueError("base must be >= 2")

    # --- encoding ---------------------------------------------------

    def code(self, offset: int, value: int) -> int:
        """Pack (offset, value-at-offset) into one integer code.

        ``offset == arity`` means "equal to the base key" and packs to 0
        (ascending) or ``arity * base`` (descending).
        """
        if not 0 <= offset <= self.arity:
            raise ValueError(f"offset {offset} out of range 0..{self.arity}")
        if offset == self.arity:
            return self.arity * self.base if self.descending else 0
        if not 0 <= value < self.base:
            raise ValueError(f"value {value} out of domain [0, {self.base})")
        if self.descending:
            # Descending codes need value >= 1 (paper domain 1..99), else
            # offset*base + base collides with the duplicate code.
            if value == 0:
                raise ValueError("descending codes require column values >= 1")
            return offset * self.base + (self.base - value)
        return (self.arity - offset) * self.base + value

    def offset_of(self, code: int) -> int:
        """Recover the offset (first-difference column index) from a code."""
        if self.descending:
            return code // self.base if code % self.base else self.arity
        return self.arity - code // self.base if code else self.arity

    def value_of(self, code: int) -> int:
        """Recover the value-at-offset from a code (0 for a duplicate)."""
        if self.descending:
            rem = code % self.base
            return self.base - rem if rem else 0
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
        if self.descending:
            return -1  # descending: larger sorts earlier, so -1 is last
        return (self.arity + 1) * self.base

    @property
    def duplicate_code(self) -> int:
        """The code of a key equal to its base (offset == arity)."""
        return self.code(self.arity, 0)

    def is_duplicate(self, code: int) -> bool:
        return code == self.duplicate_code

    # --- ordering / theorem -----------------------------------------

    def earlier(self, code_a: int, code_b: int) -> bool:
        """True iff, for codes relative to the same base, a sorts
        strictly earlier than b."""
        return code_a > code_b if self.descending else code_a < code_b

    def combine(self, code_a: int, code_b: int) -> int:
        """The Section 4 theorem: ovc(A,C) from ovc(A,B) and ovc(B,C).

        Ascending: max; descending: min. Extended to any number of
        intermediate keys by folding (Section 4 lemma).
        """
        return min(code_a, code_b) if self.descending else max(code_a, code_b)

    def combine_many(self, codes: Sequence[int]) -> int:
        if not codes:
            raise ValueError("combine_many needs at least one code")
        return reduce(self.combine, codes)


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
        if spec.earlier(code_a, code_b):
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
    """Vectorized ascending OVC for a block of sorted keys.

    ``keys`` is an (n, arity) int array sorted lexicographically
    ascending. Each row is encoded relative to its predecessor; the
    first row is encoded relative to ``prev_key`` (the last row of the
    previous block) or primed at offset 0 when ``prev_key`` is None.
    Returns an (n,) int64 array of codes. This is the per-partition
    executor kernel used by ``sparkops.ovc_column.attach_ovc``.

    Raises ``ValueError`` if any key value lies outside ``[0, base)``:
    such a value would corrupt the offset packed above it in the code.
    """
    if spec.descending:
        raise NotImplementedError("vectorized path implements ascending codes")
    n, k = keys.shape
    if k != spec.arity:
        raise ValueError(f"key width {k} != spec arity {spec.arity}")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if spec.arity * spec.base + (spec.base - 1) > np.iinfo(np.int64).max:
        raise ValueError("arity * base does not fit in int64")
    keys = np.asarray(keys, dtype=np.int64)
    lo, hi = int(keys.min()), int(keys.max())
    if lo < 0 or hi >= spec.base:
        raise ValueError(
            f"key value {lo if lo < 0 else hi} outside the code domain "
            f"[0, {spec.base})"
        )
    diff = np.empty((n, k), dtype=bool)
    if prev_key is None:
        diff[0, :] = True  # virtual -inf predecessor: differs at offset 0
    else:
        diff[0, :] = keys[0] != np.asarray(prev_key, dtype=np.int64)
    diff[1:, :] = keys[1:] != keys[:-1]
    any_diff = diff.any(axis=1)
    offsets = np.where(any_diff, diff.argmax(axis=1), k)
    values = np.where(
        any_diff, keys[np.arange(n), np.minimum(offsets, k - 1)], 0
    )
    return np.where(
        any_diff, (k - offsets) * spec.base + values, 0
    ).astype(np.int64)


def decode_offsets(codes: np.ndarray, spec: OvcSpec) -> np.ndarray:
    """Vectorized offset extraction from ascending codes."""
    codes = np.asarray(codes, dtype=np.int64)
    return np.where(codes > 0, spec.arity - codes // spec.base, spec.arity)


def boundary_mask(codes: np.ndarray, spec: OvcSpec, prefix: int) -> np.ndarray:
    """Vectorized Section 4.5 test: row starts a new group of the first
    ``prefix`` key columns iff its offset < prefix, i.e. its ascending
    code is at least ``(arity - prefix + 1) * base`` — one integer
    compare per row."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes >= (spec.arity - prefix + 1) * spec.base
