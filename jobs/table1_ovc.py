"""Regenerate paper Tables 1 and 2 (OVC derivation and filter).

Usage: python jobs/table1_ovc.py   (no Spark needed — pure derivation)
"""
from repro.core.operators.filterop import filter_stream
from repro.core.ovc import OvcSpec

ROWS = [
    (5, 7, 3, 9), (5, 7, 3, 12), (5, 8, 4, 6), (5, 9, 2, 7),
    (5, 9, 2, 7), (5, 9, 3, 4), (5, 9, 3, 7),
]


def descending_code(spec: OvcSpec, code: int) -> int:
    """Table 1's descending code of the row whose ascending code is
    ``code``: offset * domain + (domain - value), arity * domain for a
    duplicate. Larger descending codes sort earlier."""
    offset = spec.offset_of(code)
    if offset == spec.arity:
        return spec.arity * spec.base
    return offset * spec.base + spec.base - spec.value_of(code)


def table1() -> list[tuple]:
    """Rows of Table 1: key, (offset, domain-value, desc OVC),
    (arity-offset, value, asc OVC)."""
    spec = OvcSpec(4, 100)
    out = []
    for i, row in enumerate(ROWS):
        c = spec.encode_rel(ROWS[i - 1] if i else None, row)
        off, value = spec.offset_of(c), (spec.value_of(c) if c else None)
        out.append((
            row,
            (off, None if value is None else spec.base - value,
             descending_code(spec, c)),
            (spec.arity - off, value, c),
        ))
    return out


def table2() -> list[tuple]:
    """Rows of Table 2: the filter keeps rows 1 and 7."""
    spec = OvcSpec(4, 100)
    stream = [
        (r, spec.encode_rel(ROWS[i - 1] if i else None, r), i)
        for i, r in enumerate(ROWS)
    ]
    return [
        (k, spec.arity - spec.offset_of(c), spec.value_of(c), c)
        for k, c, _ in filter_stream(stream, lambda k, p: p in (0, 6))
    ]


def main() -> None:
    print("Table 1: offset-value codes in a sorted file or stream")
    print(f"{'row':>14} | {'off':>3} {'dom-val':>7} {'descOVC':>7} |"
          f" {'ar-off':>6} {'val':>4} {'ascOVC':>6}")
    for row, (o, dv, cd), (ao, v, ca) in table1():
        print(f"{str(row):>14} | {o:>3} {str(dv):>7} {cd:>7} |"
              f" {ao:>6} {str(v):>4} {ca:>6}")
    print("\nTable 2: offset-value codes after a filter")
    print(f"{'row':>14} | {'ar-off':>6} {'val':>4} {'ascOVC':>6}")
    for row, ao, v, c in table2():
        print(f"{str(row):>14} | {ao:>6} {v:>4} {c:>6}")


if __name__ == "__main__":
    main()
