"""Integer-side 3x3 grids: magic checks, center divisibility analysis,
primitivity reduction, and the mod-2 parity classification. A magic grid
with even center has one of the four parity patterns of PARITY_PATTERNS,
flat row-major bit tuples, and `mod2_classify` gives its index there. A
magic grid's total is always 3 times its center, and each of the four
patterns has an all-even line through the center, so `verify` checks
neither. A square-entried grid's class mod a prime q is
`ResidueGrid(q, grid.cells)`.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .errors import AllZero, BoundExceeded, OddCenter, UnexpectedPattern
from .fp import MAX_CENTER_ROOT, factorize
from .grid_ops import CENTER, LINES, rows_of

ADMISSIBLE = "admissible"
INADMISSIBLE = "inadmissible"


class IntGrid(namedtuple("IntGrid", "cells")):
    """3x3 grid of nonnegative integers, row-major."""

    __slots__ = ()

    def __new__(cls, cells: tuple[int, ...]):
        if len(cells) != 9:
            raise ValueError("a grid needs exactly 9 cells")
        if any(not isinstance(v, int) or v < 0 for v in cells):
            raise ValueError("cells must be nonnegative integers")
        return super().__new__(cls, cells)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def rows(self) -> list[list[int]]:
        return rows_of(self.cells)

    @property
    def center(self) -> int:
        return self.cells[CENTER]

    def __repr__(self):
        r = self.rows()
        return f"IntGrid({r[0]} / {r[1]} / {r[2]})"


def is_magic(g: IntGrid) -> int | None:
    """The common total of the 8 line sums, or None when they disagree."""
    sums = {sum(g.cells[i] for i in line) for line in LINES}
    return sums.pop() if len(sums) == 1 else None


def is_square_entried(g: IntGrid) -> bool:
    return all(isqrt(v) ** 2 == v for v in g.cells)


def is_distinct(g: IntGrid) -> bool:
    return len(set(g.cells)) == 9


def reduce_primitive(g: IntGrid) -> IntGrid:
    """Divide out the gcd of all cells, making the grid primitive."""
    d = gcd(*g.cells)
    if d == 0:
        raise AllZero("the all-zero grid has no primitive form")
    reduced = IntGrid(tuple(v // d for v in g.cells))
    if is_square_entried(g):
        # the gcd of nine squares is itself a square, so squareness survives
        r = isqrt(d)
        assert r * r == d and is_square_entried(reduced)
    return reduced


class CenterReport(namedtuple("CenterReport", "verdicts warning", defaults=(None,))):
    """Per-prime verdicts for a candidate center root: (prime, verdict)
    pairs, and a warning or None."""

    __slots__ = ()


def admissible_center_check(e: int) -> CenterReport:
    """Verdict per prime factor of e: a prime q = 3 (mod 4) dividing the
    center forces every entry to be divisible by q, so only 2 and primes
    q = 1 (mod 4) are admissible in a primitive grid."""
    if e < 1:
        raise ValueError(f"center root must be positive, got {e}")
    if e > MAX_CENTER_ROOT:
        raise BoundExceeded(
            f"center root {e} exceeds the factoring ceiling {MAX_CENTER_ROOT}; "
            "a root with two large prime factors is trial-divided up to the smaller one"
        )
    verdicts = tuple(
        (q, ADMISSIBLE if q == 2 or q % 4 == 1 else INADMISSIBLE)
        for q in sorted(factorize(e))
    )
    warning = None
    # nine distinct squares sum to at least 0 + 1 + 4 + ... + 64, and the nine
    # cells of a magic grid with center e^2 sum to 9e^2
    if 9 * e * e < sum(k * k for k in range(9)):
        warning = (
            f"e={e} cannot be the center root of a magic square of nine "
            "distinct squares (the total 3e^2 would be below the minimum)"
        )
    return CenterReport(verdicts, warning)


PARITY_PATTERNS = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 1, 0, 1, 0, 1, 1),
    (1, 0, 1, 0, 0, 0, 1, 0, 1),
    (0, 1, 1, 1, 0, 1, 1, 1, 0),
)


def mod2_classify(g: IntGrid) -> int:
    """Index in PARITY_PATTERNS of the parity bits of a magic grid with even
    center.

    UnexpectedPattern signals a non-magic input (or a bug upstream): magic
    grids with even center can only reduce to the four known patterns.
    """
    if g.center % 2:
        raise OddCenter(f"center {g.center} is odd")
    bits = tuple(v & 1 for v in g.cells)
    if bits not in PARITY_PATTERNS:
        raise UnexpectedPattern(
            f"parity grid {bits} is not one of the four patterns; input is not magic"
        )
    return PARITY_PATTERNS.index(bits)
