"""Zero-center magic grids over F_p: generation, classification, the
counting bound, a brute-force enumeration over four cells, and a counting
oracle from the sum equations. The orbits and the 8-cell enumeration that
check these live in the tests (tests/oracles.py).

Grids store cell VALUES (each zero or a quadratic residue), never chosen
roots: root choices are non-canonical, so grid identity is value-wise.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import compress

from .errors import ResiduumError, UsageError
from .fp import is_prime, make_context, two_squares
from .grid_ops import CENTER, CORNERS, LINES, MID_EDGES, rows_of


class ResidueGrid(namedtuple("ResidueGrid", "p vals")):
    """3x3 grid of squares in F_p, row-major, compared and hashed by value.
    It holds p alone: Euler's criterion checks its cells with no table."""

    __slots__ = ()

    def __new__(cls, p: int, vals):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        vals = tuple([v % p for v in vals])
        if len(vals) != 9:
            raise UsageError("a grid needs exactly 9 cells")
        for v in vals:
            if v and pow(v, (p - 1) // 2, p) != 1:
                raise ResiduumError(f"{v} is not a square mod {p}")
        return super().__new__(cls, p, vals)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def center(self) -> int:
        return self.vals[CENTER]

    def __repr__(self):
        r = rows_of(self.vals)
        return f"ResidueGrid(p={self.p}, {r[0]} / {r[1]} / {r[2]})"


class UnitTriple(namedtuple("UnitTriple", "p alpha beta gamma")):
    """(alpha, beta, gamma) in [1, p-1] with alpha^2 - beta^2 = beta^2 - gamma^2 = 1
    mod a prime p. Like ResidueGrid, it holds p alone, so no copy or pickle
    of it rebuilds a root table."""

    __slots__ = ()

    def __new__(cls, p: int, alpha: int, beta: int, gamma: int):
        if not is_prime(p):
            raise UsageError(f"{p} is not prime")
        a, b, g = alpha, beta, gamma
        if not all(0 < x < p for x in (a, b, g)):
            raise UsageError(f"unit-triple members must lie in [1, {p - 1}]")
        if (a * a - b * b) % p != 1 or (b * b - g * g) % p != 1:
            raise UsageError("consecutive squares must differ by exactly 1")
        return super().__new__(cls, p, alpha, beta, gamma)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def squares(self) -> tuple[int, int, int]:
        p = self.p
        return (self.alpha ** 2 % p, self.beta ** 2 % p, self.gamma ** 2 % p)


def line_sums(g: ResidueGrid) -> tuple[int, ...]:
    """The 8 line sums (3 rows, 3 columns, 2 main diagonals), reduced mod p."""
    p = g.p
    v = g.vals
    return tuple(sum(v[i] for i in line) % p for line in LINES)


def is_magic_class(g: ResidueGrid) -> bool:
    return len(set(line_sums(g))) == 1


def magic_sum(g: ResidueGrid) -> int | None:
    """The common line sum mod p, or None when the sums disagree."""
    sums = set(line_sums(g))
    return sums.pop() if len(sums) == 1 else None


def classify(g: ResidueGrid) -> str:
    """Zero-pattern classification of a magic zero-center grid: one of
    all_zero, trivial_corner, trivial_midedge and nontrivial.

    Corner zeros take precedence over mid-edge zeros; a grid is all_zero only
    when literally every cell vanishes.
    """
    if not is_magic_class(g):
        raise ResiduumError("classification applies to magic grids only")
    if g.center != 0:
        raise ResiduumError("classification applies to zero-center grids only")
    if not any(g.vals):
        return "all_zero"
    if any(g.vals[i] == 0 for i in CORNERS):
        return "trivial_corner"
    if any(g.vals[i] == 0 for i in MID_EDGES):
        return "trivial_midedge"
    return "nontrivial"


def gen_trivial_corner(p: int) -> ResidueGrid:
    """Canonical corner-zero class mod p: 0 1 -1 / -1 0 1 / 1 -1 0.

    Needs -1 to be a square, hence p = 1 (mod 4).
    """
    if p % 4 != 1:
        raise UsageError(f"corner-zero classes need p = 1 (mod 4), got {p}")
    m1 = p - 1
    return ResidueGrid(p, (0, 1, m1, m1, 0, 1, 1, m1, 0))


def gen_trivial_midedge(p: int) -> ResidueGrid:
    """Canonical mid-edge-zero class mod p: 1 0 -1 / -2 0 2 / 1 0 -1.

    Needs both -1 and 2 to be squares, hence p = 1 (mod 8).
    """
    if p % 8 != 1:
        raise UsageError(
            f"mid-edge-zero classes need p = 1 (mod 8), got {p}"
            + (" (2 is a non-residue for p = 5 mod 8)" if p % 8 == 5 else "")
        )
    return ResidueGrid(p, (1, 0, p - 1, p - 2, 0, 2, 1, 0, p - 1))


def consecutive_runs(p: int) -> Iterator[int]:
    """All n with n, n+1 and n+2 nonzero quadratic residues mod p, ascending,
    read from the root table one at a time."""
    root = make_context(p)  # a zero root marks 0 or a non-residue; n + 2 < p
    return (n for n in compress(range(p - 2), root) if root[n + 1] and root[n + 2])


def consecutive_triples(p: int) -> tuple[int, ...]:
    """All n with n, n+1 and n+2 nonzero quadratic residues mod p, ascending."""
    return tuple(consecutive_runs(p))


def triple_from_member(p: int, n: int) -> UnitTriple:
    """Unit triple whose squares are n+2, n+1, n (canonical roots)."""
    root = make_context(p)
    n %= p
    # a zero root marks 0 or a non-residue, so this is the membership test
    a, b, g = root[(n + 2) % p], root[(n + 1) % p], root[n]
    if 0 in (a, b, g):
        raise ResiduumError(f"{n} does not start a consecutive residue run mod {p}")
    return UnitTriple(p, a, b, g)


def gen_nontrivial(t: UnitTriple) -> ResidueGrid:
    """Grid (wb)^2 g^2 1 / a^2 0 (wa)^2 / w^2 (wg)^2 b^2 from a unit triple.

    w^2 = -1, so the cells are -b^2 g^2 1 / a^2 0 -a^2 / -1 -g^2 b^2.
    """
    p = t.p
    if p % 4 != 1:
        raise UsageError(f"no order-4 element mod {p}; need p = 1 (mod 4)")
    a2, b2, g2 = t.squares()
    return ResidueGrid(p, (-b2, g2, 1, a2, 0, -a2, -1, -g2, b2))


def nontrivial_fields(p: int) -> Iterator[tuple[int, ...]]:
    """The 19 fields of each nontrivial class, ascending in n over
    consecutive_runs(p): the nine cells and the nine cell roots, row-major,
    then n. Read from the root table with no grid or triple made.

    triple_from_member(p, n) has squares (n+2, n+1, n), so gen_nontrivial
    gives the cells (p-n-1, n, 1, n+2, 0, p-n-2, p-1, p-n, n+1), all in
    [0, p-1] since 1 <= n <= p-3. Each root is one table read: the root of 1
    is 1, and the root of p-1 is w, the smaller element of order 4. A zero
    root marks a non-residue, so a zero among the six other roots raises
    ResiduumError, as ResidueGrid would.
    """
    if p % 4 != 1:
        raise UsageError(f"no order-4 element mod {p}; need p = 1 (mod 4)")
    root = make_context(p)
    w = root[p - 1]
    for n in consecutive_runs(p):
        a, b, g = root[n + 2], root[n + 1], root[n]
        wb, wa, wg = root[p - n - 1], root[p - n - 2], root[p - n]
        if not (a and b and g and wa and wb and wg):
            raise ResiduumError(f"a cell of the class from n = {n} is not a square mod {p}")
        yield (p - n - 1, n, 1, n + 2, 0, p - n - 2, p - 1, p - n, n + 1,
               wb, g, 1, a, 0, wa, w, wg, b, n)


def runs_from_split(p: int, a: int, b: int) -> int:
    """|C_p|, the number of consecutive residue runs, for a prime p = 1 (mod 4)
    given as p = a^2 + b^2 with a odd and both positive; O(1).

    The runs are counted by points on the CM curve y^2 = x(x+1)(x+2) (Ireland &
    Rosen, ch. 18): 8|C_p| = p - k - 2*eps*a, where k = 15 for p = 1 (mod 8),
    else 7, and eps = (+1 if a = 1 (mod 4) else -1) * (+1 if 4 | b else -1).
    len(consecutive_triples) is the oracle.
    """
    k = 15 if p % 8 == 1 else 7
    eps = (1 if a % 4 == 1 else -1) * (1 if b % 4 == 0 else -1)
    return (p - k - 2 * eps * a) // 8


def run_count(p: int) -> int:
    """|C_p| for a prime p = 1 (mod 4), in O(log p) and without a residue
    table: runs_from_split on two_squares(p), which raises UsageError for a
    composite p."""
    return runs_from_split(p, *two_squares(p))


def count_bound(p: int, runs: int) -> int:
    """Upper bound (p-1) * (runs + 2k) on the number of zero-center classes,
    with runs = |C_p| from run_count(p), k = 2 for p = 1 (mod 8), else 1.

    The count is exactly half the bound. A magic grid with center 0 has line
    sum 0, so its opposite cells are negated, and its top-left a and top-right
    c fix it: b = -(a+c) and d = c-a. Since -1 is a square, it is a class
    exactly when a, c, a+c and c-a all lie in S_p + {0}. a = 0 gives the
    (p+1)/2 grids with c in S_p + {0}, the all-zero grid among them. Each of
    the (p-1)/2 nonzero a gives c = a*x with x-1, x and x+1 in S_p + {0}: x-1
    in C_p, x = 0, and x = +-1 exactly when 2 is a square, so |C_p| + 2k - 1
    values of x. Summed without the all-zero grid, the count is
    (p-1)/2 * (|C_p| + 2k). test_bound_holds checks that enumerate_all finds
    exactly this many grids for every p = 1 (mod 4) up to 100, and that
    classes_from_sum_equations counts exactly this many for every such p
    below 2000; test_generated_equals_enumerated checks that those grids are
    the orbits of the canonical classes.
    """
    if p % 4 != 1:
        raise UsageError(f"the class count bound needs p = 1 (mod 4), got {p}")
    k = 2 if p % 8 == 1 else 1
    return (p - 1) * (runs + 2 * k)


# Largest p enumerate_all runs at: its cost grows about as p^3, 1.3 s at
# p = 401 and 17.9 s at p = 1009 (Python 3.11, 2-vCPU machine).
MAX_ORACLE_P = 500
# Largest p classes_from_sum_equations runs at: its cost grows about as
# p^2/64 word operations, 0.03 s at p = 10009 and 2.0 s at p = 99989.
MAX_COUNT_P = 100_000


def enumerate_all(p: int) -> frozenset[ResidueGrid]:
    """Every magic zero-center grid over squares of F_p except the all-zero
    grid, by brute force over four independent cells.

    Enumerates (a, b, c, d) over (S_p + {0})^4, S_p the nonzero residues,
    with the opposite cells negated, keeping grids whose top-row and
    left-column sums vanish. This is the validation oracle for the generated
    classes and the counting bound, so every survivor is re-checked against
    all eight sums instead of trusting the two filters that built it.
    """
    if p % 4 != 1:
        raise UsageError(f"zero-center enumeration needs p = 1 (mod 4), got {p}")
    if p > MAX_ORACLE_P:
        raise UsageError(f"p={p} exceeds the enumeration bound {MAX_ORACLE_P}")
    sq0 = (0, *compress(range(p), make_context(p)))
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
                    grid = ResidueGrid(p, vals)
                    assert set(line_sums(grid)) == {0}
                    out.add(grid)
    return frozenset(out)


def classes_from_sum_equations(p: int) -> int:
    """The zero-center classes mod p, counted from the sum equations alone. A
    grid with line sum 0 has opposite cells negated, so its top-left a and
    top-right c fix it; since -1 is a square, it is a class exactly when a,
    c, a+c and c-a all lie in S_p + {0}. With S_p + {0} as the bits of
    `mask`, the c for one a are the bits of mask & rot(mask, a) &
    rot(mask, -a). The all-zero grid is not counted."""
    if p % 4 != 1:
        raise UsageError(f"the zero-center class count needs p = 1 (mod 4), got {p}")
    if p > MAX_COUNT_P:
        raise UsageError(f"p={p} exceeds the count bound {MAX_COUNT_P}")
    full = (1 << p) - 1
    mask = 0
    for x in range(p):
        mask |= 1 << (x * x % p)

    def rot(m: int, k: int) -> int:
        # bit c of the result is bit (c + k) mod p of m
        k %= p
        return (m >> k | m << (p - k)) & full

    count = sum(
        (mask & rot(mask, a) & rot(mask, -a)).bit_count() for a in range(p) if mask >> a & 1
    )
    return count - 1
