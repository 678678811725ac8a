"""Integer-side 3x3 grids: magic checks, the triple-center total, center
divisibility analysis, primitivity reduction, residue extraction, and the
mod-2 parity classification with its Klein four-group structure.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .errors import AllZero, NotMagic, OddCenter, UnexpectedPattern
from .fp import PrimeContext, factorize
from .grid_ops import CENTER, CENTER_LINES, LINES
from .residue import ResidueGrid

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
        v = self.cells
        return [list(v[0:3]), list(v[3:6]), list(v[6:9])]

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


def total_is_triple_center(g: IntGrid) -> bool:
    """Whether the magic total equals 3 times the central entry."""
    t = is_magic(g)
    if t is None:
        raise NotMagic("the total is undefined for a non-magic grid")
    return t == 3 * g.center


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


class CenterReport(namedtuple("CenterReport", "e verdicts warning", defaults=(None,))):
    """Per-prime verdicts for a candidate center root e: (prime, verdict)
    pairs, and a warning or None."""

    __slots__ = ()


def admissible_center_check(e: int) -> CenterReport:
    """Verdict per prime factor of e: a prime q = 3 (mod 4) dividing the
    center forces every entry to be divisible by q, so only 2 and primes
    q = 1 (mod 4) are admissible in a primitive grid."""
    if e < 1:
        raise ValueError(f"center root must be positive, got {e}")
    verdicts = tuple(
        (q, ADMISSIBLE if q == 2 or q % 4 == 1 else INADMISSIBLE)
        for q in sorted(factorize(e))
    )
    warning = None
    if e <= 2:
        warning = (
            f"e={e} cannot be the center root of a magic square of nine "
            "distinct squares (the total 3e^2 would be below the minimum)"
        )
    return CenterReport(e, verdicts, warning)


def residue_class_of(g: IntGrid, ctx: PrimeContext) -> ResidueGrid:
    """Cell-wise reduction mod p; defined for grids of perfect squares."""
    if not is_square_entried(g):
        raise ValueError("residue classes are defined for grids of squares")
    return ResidueGrid(ctx, [v % ctx.p for v in g.cells])


_M2_PATTERNS = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 1, 0, 1, 0, 1, 1),
    (1, 0, 1, 0, 0, 0, 1, 0, 1),
    (0, 1, 1, 1, 0, 1, 1, 1, 0),
)


class Mod2Class(namedtuple("Mod2Class", "bits")):
    """One of the four parity patterns a magic grid with even center can have."""

    __slots__ = ()

    def __new__(cls, bits: tuple[int, ...]):
        if bits not in _M2_PATTERNS:
            raise UnexpectedPattern(f"{bits} is not one of the four parity patterns")
        return super().__new__(cls, bits)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @classmethod
    def patterns(cls) -> tuple["Mod2Class", ...]:
        return tuple(cls(b) for b in _M2_PATTERNS)

    @property
    def index(self) -> int:
        return _M2_PATTERNS.index(self.bits)

    def rows(self) -> list[list[int]]:
        b = self.bits
        return [list(b[0:3]), list(b[3:6]), list(b[6:9])]

    def __xor__(self, other: "Mod2Class") -> "Mod2Class":
        return Mod2Class(tuple(a ^ b for a, b in zip(self.bits, other.bits)))


def mod2_classify(g: IntGrid) -> Mod2Class:
    """Parity pattern of a magic grid with even center.

    UnexpectedPattern signals a non-magic input (or a bug upstream): magic
    grids with even center can only reduce to the four known patterns.
    """
    if g.center % 2:
        raise OddCenter(f"center {g.center} is odd")
    bits = tuple(v & 1 for v in g.cells)
    if bits not in _M2_PATTERNS:
        raise UnexpectedPattern(
            f"parity grid {bits} is not one of the four patterns; input is not magic"
        )
    return Mod2Class(bits)


def klein_group_table() -> tuple[tuple[Mod2Class, ...], ...]:
    """Cell-wise XOR table of the four parity patterns (a Klein four-group)."""
    pats = Mod2Class.patterns()
    return tuple(tuple(a ^ b for b in pats) for a in pats)


def has_even_center_line(m: Mod2Class) -> bool:
    """Whether the central row, central column, or a main diagonal is all even."""
    return any(all(m.bits[i] == 0 for i in line) for line in CENTER_LINES)


def parametric_magic(center: int, s: int, t: int) -> IntGrid:
    """The generic 3x3 magic grid with the given center and two offsets.

    Every 3x3 magic square has this form; cells must come out nonnegative,
    so center >= |s| + |t| is required.
    """
    m = center
    return IntGrid(
        (m - s, m + s + t, m - t, m + s - t, m, m - s + t, m + t, m - s - t, m + s)
    )
