"""Set-level oracles and grid symmetries that only the tests read.

The commands never run these, so they live beside the tests rather than in
the package: the 8-cell enumeration mod p, the orbits of the canonical
classes, the direct enumeration of integer grids around a center, the
parametric magic grid, the Klein four-group table of the parity patterns
and their all-even center lines, and the dihedral index maps of a flat
row-major 3x3 grid.
"""

from itertools import compress
from math import isqrt

from residuum.errors import ResiduumError, UsageError
from residuum.fp import make_context
from residuum.grid_ops import CENTER, LINES
from residuum.intgrid import PARITY_PATTERNS, IntGrid
from residuum.residue import (
    ResidueGrid,
    consecutive_triples,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    magic_sum,
    triple_from_member,
)

IDENTITY = (0, 1, 2, 3, 4, 5, 6, 7, 8)
ROT90 = (6, 3, 0, 7, 4, 1, 8, 5, 2)            # clockwise quarter turn
ROT180 = (8, 7, 6, 5, 4, 3, 2, 1, 0)
ROT270 = (2, 5, 8, 1, 4, 7, 0, 3, 6)
FLIP_ROWS = (6, 7, 8, 3, 4, 5, 0, 1, 2)        # reflect about the horizontal axis
FLIP_COLS = (2, 1, 0, 5, 4, 3, 8, 7, 6)
TRANSPOSE = (0, 3, 6, 1, 4, 7, 2, 5, 8)        # reflect about the main diagonal
ANTI_TRANSPOSE = (8, 5, 2, 7, 4, 1, 6, 3, 0)   # reflect about the anti-diagonal

ROTATIONS = (IDENTITY, ROT90, ROT180, ROT270)
DIHEDRAL = ROTATIONS + (FLIP_ROWS, FLIP_COLS, TRANSPOSE, ANTI_TRANSPOSE)


def permute(cells, index_map):
    return tuple(cells[i] for i in index_map)


def orbit(g: ResidueGrid) -> frozenset[ResidueGrid]:
    """All distinct grids reachable by the 4 rotations composed with scaling
    by each quadratic residue.

    Reflections are intentionally not applied; they are tracked separately
    as fixing/duality properties of the canonical classes.
    """
    if magic_sum(g) is None:
        raise ResiduumError("orbits are defined for magic grids")
    if g.center != 0:
        raise ResiduumError("orbits are defined for zero-center grids")
    p = g.p
    squares = tuple(compress(range(p), make_context(p)))
    out = set()
    for rot in ROTATIONS:
        base = permute(g.vals, rot)
        for s in squares:
            out.add(ResidueGrid(p, tuple(v * s % p for v in base)))
    return frozenset(out)


def generated_classes(p: int) -> frozenset[ResidueGrid]:
    """Union of the orbits of every canonical class: the constructive side of
    the generated-equals-enumerated comparison."""
    grids = set(orbit(gen_trivial_corner(p)))
    if p % 8 == 1:
        grids |= orbit(gen_trivial_midedge(p))
    for n in consecutive_triples(p):
        grids |= orbit(gen_nontrivial(triple_from_member(p, n)))
    return frozenset(grids)


# Largest p naive_enumerate runs at: it walks eight cells, not four.
MAX_NAIVE_P = 13


def naive_enumerate(p: int) -> frozenset[ResidueGrid]:
    """Fully naive cross-check oracle: enumerate all eight non-center cells
    over squares and keep grids whose eight sums agree, using nothing but
    the sum equations themselves (no negation shortcut, no fixed total)."""
    if p > MAX_NAIVE_P:
        raise UsageError(f"p={p} exceeds the naive enumeration bound {MAX_NAIVE_P}")
    sq0 = (0, *compress(range(p), make_context(p)))
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
                                        out.add(ResidueGrid(p, vals))
    return frozenset(out)


def naive_center_enumeration(e: int) -> set[IntGrid]:
    """Independent oracle: every magic grid of nine distinct squares with
    center e^2 and entries bounded by 3e^2, by direct enumeration (see
    naive_magic_grids). Used to validate search completeness for small e.
    """
    if e < 1:
        raise ValueError(f"center root must be positive, got {e}")
    return naive_magic_grids(e * e, [k * k for k in range(isqrt(3 * e * e) + 1)])


def naive_magic_grids(m: int, values) -> set[IntGrid]:
    """Every magic grid of nine distinct members of `values` around the center m.

    Three corner-ish cells range freely; the rest follow from the eight sum
    equations alone, with no structural shortcuts.
    """
    in_range = set(values)
    out = set()
    for a in in_range:
        for b in in_range:
            for i in in_range:
                t = a + m + i          # main diagonal fixes the total
                c = t - a - b          # top row
                if c not in in_range:
                    continue
                g = t - c - m          # anti-diagonal
                if g not in in_range:
                    continue
                d = t - a - g          # left column
                if d not in in_range:
                    continue
                f = t - d - m          # middle row
                if f not in in_range:
                    continue
                h = t - b - m          # middle column
                if h not in in_range:
                    continue
                if g + h + i != t or c + f + i != t:
                    continue
                cells = (a, b, c, d, m, f, g, h, i)
                if len(set(cells)) == 9:
                    out.add(IntGrid(cells))
    return out


def parametric_magic(center: int, s: int, t: int) -> IntGrid:
    """The generic 3x3 magic grid with the given center and two offsets.

    Every 3x3 magic square has this form; cells must come out nonnegative,
    so center >= |s| + |t| is required.
    """
    m = center
    return IntGrid(
        (m - s, m + s + t, m - t, m + s - t, m, m - s + t, m + t, m - s - t, m + s)
    )


def klein_group_table() -> tuple[tuple[int, ...], ...]:
    """Cell-wise XOR table of the four parity patterns (a Klein four-group),
    as indices into PARITY_PATTERNS; an XOR that is no pattern raises
    ValueError, so the table exists only if the patterns are closed."""
    return tuple(
        tuple(PARITY_PATTERNS.index(tuple(x ^ y for x, y in zip(a, b))) for b in PARITY_PATTERNS)
        for a in PARITY_PATTERNS
    )


def has_even_center_line(bits: tuple[int, ...]) -> bool:
    """Whether a line through the center cell of the parity bits is all even."""
    return any(all(bits[i] == 0 for i in line) for line in LINES if CENTER in line)
