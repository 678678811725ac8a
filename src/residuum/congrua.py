"""Integer arithmetic progressions of three squares (congrua), their
reduction mod p into unit triples, and the modular coverage report.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .errors import NotCovered, UsageError
from .fp import is_prime, make_context
from .residue import UnitTriple, consecutive_runs, triple_from_member

# Primes served from their first consecutive run, the two that neither
# progression reaches: 37 meets neither residue criterion, and 41 divides 41,
# the middle term of the (5,4) progression (49, 41, 31), and is 17 (mod 24).
TABLE_ROUTE_PRIMES = (37, 41)


class SquareProgression(namedtuple("SquareProgression", "x y z")):
    """x^2, y^2, z^2 in arithmetic progression with common difference d."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int):
        if not (x > y > z >= 1):
            raise UsageError(f"need x > y > z >= 1, got ({x}, {y}, {z})")
        if x * x - y * y != y * y - z * z:
            raise UsageError("squares are not in arithmetic progression")
        return super().__new__(cls, x, y, z)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def d(self) -> int:
        return self.x * self.x - self.y * self.y


def congruum_triple(m: int, n: int) -> SquareProgression:
    """Parametric progression with difference 4mn(m^2 - n^2).

    It is primitive exactly when m > n are coprime and of opposite parity;
    other inputs are accepted.
    """
    if n < 1 or m <= n:
        raise UsageError(f"need m > n >= 1, got m={m}, n={n}")
    return SquareProgression(
        x=m * m - n * n + 2 * m * n,
        y=m * m + n * n,
        z=abs(m * m - n * n - 2 * m * n),
    )


def ap_to_unit_triple(prog: SquareProgression, p: int) -> UnitTriple:
    """Scale an integer progression by the inverse root of its difference and
    reduce mod p, yielding a unit triple (so gamma^2 starts a consecutive
    residue run)."""
    root = make_context(p)
    if p % 4 != 1:
        raise UsageError(f"unit triples need p = 1 (mod 4), got {p}")
    if (prog.x * prog.y * prog.z) % p == 0:
        raise NotCovered(f"{p} divides a term of ({prog.x}, {prog.y}, {prog.z})")
    r = root[prog.d % p]  # 0 for a non-residue, and for 0
    if not r:
        raise NotCovered(f"{prog.d} is not a nonzero square mod {p}")
    r_inv = pow(r, -1, p)
    return UnitTriple(p, prog.x * r_inv % p, prog.y * r_inv % p, prog.z * r_inv % p)


# The progressions the two residue criteria reduce mod p.
MOD20_PROGRESSION = congruum_triple(5, 4)  # 49^2, 41^2, 31^2; difference 720
MOD24_PROGRESSION = congruum_triple(2, 1)  # 7^2, 5^2, 1^2; difference 24


def construct_mod20(p: int) -> UnitTriple:
    """Unit triple for p = 1 or 9 (mod 20), via MOD20_PROGRESSION.

    41 satisfies the residue condition but divides the middle term 41, so it
    raises NotCovered; `construct` serves it from its first consecutive run.
    """
    if p % 20 not in (1, 9):
        raise NotCovered(f"{p} is not 1 or 9 (mod 20)")
    return ap_to_unit_triple(MOD20_PROGRESSION, p)


def construct_mod24(p: int) -> UnitTriple:
    """Unit triple for p = 1 or 5 (mod 24), p != 5, via MOD24_PROGRESSION.
    The triple constructor asserts the unit relations, so a successful
    return is itself the verification."""
    if p == 5:
        raise NotCovered("5 divides a term of (7, 5, 1); no construction exists")
    if p % 24 not in (1, 5):
        raise NotCovered(f"{p} is not 1 or 5 (mod 24)")
    # p | 7*5*1 is impossible here: 7 = 3 (mod 4) and 5 was excluded above
    return ap_to_unit_triple(MOD24_PROGRESSION, p)


def construct(p: int) -> tuple[str, SquareProgression | None, UnitTriple]:
    """The route to a unit triple mod p, the progression it reduces (None on
    the table route) and the triple: the first consecutive run for 37 and 41,
    else mod20 where it applies, else mod24. Raises NotCovered when no
    route reaches p."""
    if p in TABLE_ROUTE_PRIMES:
        return "table", None, triple_from_member(p, next(consecutive_runs(p)))
    if p % 20 in (1, 9):
        return "mod20", MOD20_PROGRESSION, construct_mod20(p)
    return "mod24", MOD24_PROGRESSION, construct_mod24(p)


def coverage_status(p: int) -> str:
    """The word for which construction (if any) reaches p, as output prints
    it; see `_classify_prime`. Proves p prime first, by Miller-Rabin
    (`fp.is_prime`), a few modular powers.
    """
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return _classify_prime(p)


def _classify_prime(p: int) -> str:
    """`coverage_status` for a p the caller has already proved prime: one of
    excluded_5_13_17, covered_both, covered_mod20, covered_mod24,
    small_case_table and uncovered_but_nonempty.

    Precedence: the empty-run exclusions, then the residue criteria (both
    before either alone), then the table-route primes. Any other p has
    runs: the CM curve y^2 = x(x+1)(x+2) gives 8|C_p| = p - k - 2*eps*a with
    p = a^2 + b^2, k <= 15 and eps = +-1 (Ireland & Rosen, ch. 18), and
    |a| < sqrt(p) makes that positive for p >= 29; 5, 13 and 17 are excluded.
    Needs no residue table and no primality trial: O(1).
    """
    if p % 4 != 1:
        raise UsageError(f"coverage is defined for p = 1 (mod 4), got {p}")
    if p in (5, 13, 17):
        return "excluded_5_13_17"
    m20 = p % 20 in (1, 9)
    m24 = p % 24 in (1, 5)
    if m20 and m24:
        return "covered_both"
    if m20:
        return "covered_mod20"
    if m24:
        return "covered_mod24"
    if p in TABLE_ROUTE_PRIMES:
        return "small_case_table"
    return "uncovered_but_nonempty"


# Largest m the exploratory sweep reaches: eligible_params(m) has about
# 0.2 * m^2 pairs, and `construct 113 --sweep-max-m 1000` took 4.9 s,
# 138 MB and printed 13.5 MB (Python 3.11, 2-vCPU machine).
MAX_SWEEP_M = 500


def eligible_params(m_max: int = 10) -> list[tuple[int, int]]:
    """Coprime opposite-parity (m, n) pairs with n < m <= m_max, for m_max
    up to MAX_SWEEP_M."""
    if m_max > MAX_SWEEP_M:
        raise UsageError(
            f"m_max {m_max} exceeds the sweep ceiling {MAX_SWEEP_M}; "
            "the sweep tries about 0.2 * m^2 progressions"
        )
    return [
        (m, n)
        for m in range(2, m_max + 1)
        for n in range(1, m)
        if gcd(m, n) == 1 and (m - n) % 2 == 1
    ]


def sweep_congrua(p: int, pairs) -> list[tuple[int, int, UnitTriple]]:
    """Try the primitive progression of each (m, n) of `pairs`, as
    `eligible_params` lists them, against F_p and return the (m, n, triple)
    combinations that map in. Purely exploratory: success here proves
    nothing beyond the individual prime."""
    out = []
    for m, n in pairs:
        try:
            t = ap_to_unit_triple(congruum_triple(m, n), p)
        except NotCovered:
            continue
        out.append((m, n, t))
    return out
