"""Zero-center magic grids over F_p: generation, classification, orbits,
the counting bound, and two brute-force enumeration oracles.

Grids store cell VALUES (each zero or a quadratic residue), never chosen
roots: root choices are non-canonical, so grid identity is value-wise.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import (
    BadPrimeForm,
    BoundExceeded,
    NonSquareCell,
    NotAMember,
    NotMagic,
    NonzeroCenter,
)
from .fp import PrimeContext, two_squares
from .grid_ops import (
    ANTI_TRANSPOSE,
    CENTER,
    CORNERS,
    FLIP_ROWS,
    LINES,
    MID_EDGES,
    ROT180,
    ROTATIONS,
    permute,
)


class ClassKind(Enum):
    TRIVIAL_CORNER = "trivial_corner"
    TRIVIAL_MIDEDGE = "trivial_midedge"
    NONTRIVIAL = "nontrivial"
    ALL_ZERO = "all_zero"


class ResidueGrid:
    """3x3 grid of squares in F_p, row-major, compared and hashed by value."""

    __slots__ = ("context", "vals")

    def __init__(self, context: PrimeContext, vals):
        vals = tuple(v % context.p for v in vals)
        if len(vals) != 9:
            raise ValueError("a grid needs exactly 9 cells")
        for v in vals:
            if not context.is_square(v):
                raise NonSquareCell(f"{v} is not a square mod {context.p}")
        self.context = context
        self.vals = vals

    def rows(self) -> list[list[int]]:
        v = self.vals
        return [list(v[0:3]), list(v[3:6]), list(v[6:9])]

    @property
    def center(self) -> int:
        return self.vals[CENTER]

    def scaled(self, s: int) -> "ResidueGrid":
        p = self.context.p
        return ResidueGrid(self.context, tuple(v * s % p for v in self.vals))

    def transformed(self, index_map) -> "ResidueGrid":
        return ResidueGrid(self.context, permute(self.vals, index_map))

    def rotated180(self) -> "ResidueGrid":
        return self.transformed(ROT180)

    def reflected_rows(self) -> "ResidueGrid":
        return self.transformed(FLIP_ROWS)

    def reflected_anti_diagonal(self) -> "ResidueGrid":
        return self.transformed(ANTI_TRANSPOSE)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueGrid)
            and other.context.p == self.context.p
            and other.vals == self.vals
        )

    def __hash__(self):
        return hash((self.context.p, self.vals))

    def __repr__(self):
        r = self.rows()
        return f"ResidueGrid(p={self.context.p}, {r[0]} / {r[1]} / {r[2]})"


class UnitTriple(namedtuple("UnitTriple", "context alpha beta gamma")):
    """(alpha, beta, gamma) in [1, p-1] with alpha^2 - beta^2 = beta^2 - gamma^2 = 1
    mod p, where p is the one context the three members belong to."""

    __slots__ = ()

    def __new__(cls, context: PrimeContext, alpha: int, beta: int, gamma: int):
        p = context.p
        a, b, g = alpha, beta, gamma
        if not all(0 < x < p for x in (a, b, g)):
            raise ValueError(f"unit-triple members must lie in [1, {p - 1}]")
        if (a * a - b * b) % p != 1 or (b * b - g * g) % p != 1:
            raise ValueError("consecutive squares must differ by exactly 1")
        return super().__new__(cls, context, alpha, beta, gamma)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def squares(self) -> tuple[int, int, int]:
        p = self.context.p
        return (self.alpha ** 2 % p, self.beta ** 2 % p, self.gamma ** 2 % p)


def line_sums(g: ResidueGrid) -> tuple[int, ...]:
    """The 8 line sums (3 rows, 3 columns, 2 main diagonals), reduced mod p."""
    p = g.context.p
    v = g.vals
    return tuple(sum(v[i] for i in line) % p for line in LINES)


def is_magic_class(g: ResidueGrid) -> bool:
    return len(set(line_sums(g))) == 1


def magic_sum(g: ResidueGrid) -> int | None:
    """The common line sum mod p, or None when the sums disagree."""
    sums = set(line_sums(g))
    return sums.pop() if len(sums) == 1 else None


def classify(g: ResidueGrid) -> ClassKind:
    """Zero-pattern classification of a magic zero-center grid.

    Corner zeros take precedence over mid-edge zeros; a grid is ALL_ZERO only
    when literally every cell vanishes.
    """
    if not is_magic_class(g):
        raise NotMagic("classification applies to magic grids only")
    if g.center != 0:
        raise NonzeroCenter("classification applies to zero-center grids only")
    if not any(g.vals):
        return ClassKind.ALL_ZERO
    if any(g.vals[i] == 0 for i in CORNERS):
        return ClassKind.TRIVIAL_CORNER
    if any(g.vals[i] == 0 for i in MID_EDGES):
        return ClassKind.TRIVIAL_MIDEDGE
    return ClassKind.NONTRIVIAL


def gen_trivial_corner(ctx: PrimeContext) -> ResidueGrid:
    """Canonical corner-zero class: 0 1 -1 / -1 0 1 / 1 -1 0.

    Needs -1 to be a square, hence p = 1 (mod 4).
    """
    if ctx.p % 4 != 1:
        raise BadPrimeForm(f"corner-zero classes need p = 1 (mod 4), got {ctx.p}")
    m1 = ctx.p - 1
    return ResidueGrid(ctx, (0, 1, m1, m1, 0, 1, 1, m1, 0))


def gen_trivial_midedge(ctx: PrimeContext) -> ResidueGrid:
    """Canonical mid-edge-zero class: 1 0 -1 / -2 0 2 / 1 0 -1.

    Needs both -1 and 2 to be squares, hence p = 1 (mod 8).
    """
    if ctx.p % 8 != 1:
        raise BadPrimeForm(
            f"mid-edge-zero classes need p = 1 (mod 8), got {ctx.p}"
            + (" (2 is a non-residue for p = 5 mod 8)" if ctx.p % 8 == 5 else "")
        )
    p = ctx.p
    return ResidueGrid(ctx, (1, 0, p - 1, p - 2, 0, 2, 1, 0, p - 1))


def consecutive_triples(ctx: PrimeContext) -> tuple[int, ...]:
    """All n with n, n+1 and n+2 nonzero quadratic residues, ascending."""
    return tuple(n for n in ctx.qr_set if ctx.is_qr(n + 1) and ctx.is_qr(n + 2))


def triple_from_member(ctx: PrimeContext, n: int) -> UnitTriple:
    """Unit triple whose squares are n+2, n+1, n (canonical roots)."""
    p = ctx.p
    n %= p
    # a zero root marks 0 or a non-residue, so this is the membership test
    a, b, g = ctx.root[(n + 2) % p], ctx.root[(n + 1) % p], ctx.root[n]
    if 0 in (a, b, g):
        raise NotAMember(f"{n} does not start a consecutive residue run mod {p}")
    return UnitTriple(ctx, a, b, g)


def gen_nontrivial(t: UnitTriple) -> ResidueGrid:
    """Grid (wb)^2 g^2 1 / a^2 0 (wa)^2 / w^2 (wg)^2 b^2 from a unit triple.

    w^2 = -1, so the cells are -b^2 g^2 1 / a^2 0 -a^2 / -1 -g^2 b^2.
    """
    ctx = t.context
    if ctx.w is None:
        raise BadPrimeForm(f"no order-4 element mod {ctx.p}; need p = 1 (mod 4)")
    a2, b2, g2 = t.squares()
    return ResidueGrid(ctx, (-b2, g2, 1, a2, 0, -a2, -1, -g2, b2))


def orbit(g: ResidueGrid) -> frozenset[ResidueGrid]:
    """All distinct grids reachable by the 4 rotations composed with scaling
    by each quadratic residue.

    Reflections are intentionally not applied; they are tracked separately
    as fixing/duality properties of the canonical classes.
    """
    if not is_magic_class(g):
        raise NotMagic("orbits are defined for magic grids")
    if g.center != 0:
        raise NonzeroCenter("orbits are defined for zero-center grids")
    ctx = g.context
    p = ctx.p
    out = set()
    for rot in ROTATIONS:
        base = permute(g.vals, rot)
        for s in ctx.qr_set:
            out.add(ResidueGrid(ctx, tuple(v * s % p for v in base)))
    return frozenset(out)


def run_count(p: int) -> int:
    """|C_p|, the number of consecutive residue runs, for a prime p = 1 (mod 4),
    in O(log p) and without a residue table.

    The runs are counted by points on the CM curve y^2 = x(x+1)(x+2) (Ireland &
    Rosen, ch. 18): with p = a^2 + b^2 and a odd, 8|C_p| = p - k - 2*eps*a,
    where k = 15 for p = 1 (mod 8), else 7, and eps = (+1 if a = 1 (mod 4)
    else -1) * (+1 if 4 | b else -1). len(consecutive_triples) is the oracle.

    p must be proved prime first: a composite gives a meaningless count, or
    NotPrime from two_squares. run_count(3277) returns 396, and 3277 = 29 * 113.
    """
    a, b = two_squares(p)
    k = 15 if p % 8 == 1 else 7
    eps = (1 if a % 4 == 1 else -1) * (1 if b % 4 == 0 else -1)
    return (p - k - 2 * eps * a) // 8


def count_bound(ctx: PrimeContext) -> int:
    """Upper bound (p-1) * (|C_p| + 2k) on the number of zero-center classes,
    with k = 2 for p = 1 (mod 8) and k = 1 for p = 5 (mod 8).

    The count is exactly half the bound: enumerate_all finds (p-1)(|C_p| + 2k)/2
    grids, all of them generated_classes, for every p = 1 (mod 4) up to 100.
    """
    if ctx.p % 4 != 1:
        raise BadPrimeForm(f"the class count bound needs p = 1 (mod 4), got {ctx.p}")
    k = 2 if ctx.p % 8 == 1 else 1
    return (ctx.p - 1) * (run_count(ctx.p) + 2 * k)


# Largest p the CLI lets enumerate_all run at: its cost grows about as p^3,
# 1.3 s at p = 401 and 17.9 s at p = 1009 (Python 3.11, 2-vCPU machine).
MAX_ORACLE_P = 500


def enumerate_all(ctx: PrimeContext, max_p: int = 100) -> frozenset[ResidueGrid]:
    """Every magic zero-center grid over squares of F_p except the all-zero
    grid, by brute force over four independent cells.

    Enumerates (a, b, c, d) over (qr_set + {0})^4 with the opposite cells
    negated, keeping grids whose top-row and left-column sums vanish. This
    is the validation oracle for the generated classes and the counting
    bound, so every survivor is re-checked against all eight sums instead of
    trusting the two filters that built it.
    """
    if ctx.p % 4 != 1:
        raise BadPrimeForm(f"zero-center enumeration needs p = 1 (mod 4), got {ctx.p}")
    if ctx.p > max_p:
        raise BoundExceeded(f"p={ctx.p} exceeds the enumeration bound {max_p}")
    p = ctx.p
    sq0 = (0, *ctx.qr_set)
    out = set()
    for a in sq0:
        for b in sq0:
            for c in sq0:
                if (a + b + c) % p:
                    continue
                for d in sq0:
                    if (a + d - c) % p:
                        continue
                    vals = (a, b, c, d, 0, -d % p, -c % p, -b % p, -a % p)
                    if not any(vals):
                        continue
                    grid = ResidueGrid(ctx, vals)
                    assert set(line_sums(grid)) == {0}
                    out.add(grid)
    result = frozenset(out)
    if p <= 13:
        # cheap enough to cross-validate against the 8-cell oracle in-line
        assert result == naive_enumerate(ctx)
    return result


def naive_enumerate(ctx: PrimeContext, max_p: int = 13) -> frozenset[ResidueGrid]:
    """Fully naive cross-check oracle: enumerate all eight non-center cells
    over squares and keep grids whose eight sums agree, using nothing but
    the sum equations themselves (no negation shortcut, no fixed total)."""
    if ctx.p > max_p:
        raise BoundExceeded(f"p={ctx.p} exceeds the naive enumeration bound {max_p}")
    p = ctx.p
    sq0 = (0, *ctx.qr_set)
    out = set()
    for a in sq0:
        for b in sq0:
            for c in sq0:
                t = (a + b + c) % p
                for d in sq0:
                    for f in sq0:
                        if (d + f) % p != t:
                            continue
                        for g in sq0:
                            if (a + d + g) % p != t or (c + g) % p != t:
                                continue
                            for h in sq0:
                                if (b + h) % p != t:
                                    continue
                                for i in sq0:
                                    if (
                                        (g + h + i) % p != t
                                        or (c + f + i) % p != t
                                        or (a + i) % p != t
                                    ):
                                        continue
                                    vals = (a, b, c, d, 0, f, g, h, i)
                                    if any(vals):
                                        out.add(ResidueGrid(ctx, vals))
    return frozenset(out)


def generated_classes(ctx: PrimeContext) -> frozenset[ResidueGrid]:
    """Union of the orbits of every canonical class: the constructive side of
    the generated-equals-enumerated comparison."""
    grids = set(orbit(gen_trivial_corner(ctx)))
    if ctx.p % 8 == 1:
        grids |= orbit(gen_trivial_midedge(ctx))
    for n in consecutive_triples(ctx):
        grids |= orbit(gen_nontrivial(triple_from_member(ctx, n)))
    return frozenset(grids)
