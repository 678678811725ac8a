"""Independent arithmetic for checking residuum's outputs.

Nothing here imports residuum: every check recomputes its answer with its
own code (a sieve, Euler's criterion, factorisation by a smallest-prime-factor
table), so a wrong program cannot vouch for itself.
"""

from __future__ import annotations

from math import comb, isqrt

# The three primes the generic constructions miss and residuum serves from
# stored run tables (29 and 41 collide with the (5,4) progression's terms,
# 37 meets neither residue criterion).
SMALL_CASE_PRIMES = (29, 37, 41)

# Centers with at least this many pair decompositions dominate search cost.
HEAVY_K = 7

LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for q in range(2, isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [k for k, f in enumerate(flags) if f]


def primes_1_mod_4(n: int) -> list[int]:
    return [p for p in primes_up_to(n) if p % 4 == 1]


def is_qr(n: int, p: int) -> bool:
    """Nonzero quadratic residue mod an odd prime p, by Euler's criterion."""
    n %= p
    return n != 0 and pow(n, (p - 1) // 2, p) == 1


def is_square_mod(n: int, p: int) -> bool:
    return n % p == 0 or is_qr(n, p)


def run_starts(p: int) -> list[int]:
    """All n with n, n+1, n+2 nonzero quadratic residues mod p, ascending."""
    flags = [False] + [is_qr(n, p) for n in range(1, p)]
    return [n for n in range(1, p) if flags[n] and flags[(n + 1) % p] and flags[(n + 2) % p]]


def class_count_k(p: int) -> int:
    """The k of the bound (p-1)(|C_p| + 2k): 2 for p = 1 (mod 8), else 1."""
    return 2 if p % 8 == 1 else 1


def coverage(p: int) -> str:
    """Which construction reaches a prime p = 1 (mod 4): the mod-20 and mod-24
    residue rules, the three excluded primes and the small-case tables."""
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
    if p in SMALL_CASE_PRIMES:
        return "small_case_table"
    return "uncovered_but_nonempty"


CONSTRUCTIBLE = ("covered_both", "covered_mod20", "covered_mod24", "small_case_table")


def smallest_factors(n: int) -> list[int]:
    """spf[m] is the smallest prime factor of m, for 2 <= m <= n."""
    spf = list(range(n + 1))
    for q in range(2, isqrt(n) + 1):
        if spf[q] == q:
            for m in range(q * q, n + 1, q):
                if spf[m] == m:
                    spf[m] = q
    return spf


def factor(m: int, spf: list[int]) -> dict[int, int]:
    out: dict[int, int] = {}
    while m > 1:
        q = spf[m]
        out[q] = out.get(q, 0) + 1
        m //= q
    return out


class CenterTable:
    """Per center root e: whether the primitive-only prune drops it, and k, its
    number of unordered pairs x < e < y with x^2 + y^2 = 2e^2.

    k follows from the factorisation alone: 2e^2 has prod(2a+1) positive
    ordered representations over the primes q = 1 (mod 4) with q^a || e, one
    of which is (e, e).
    """

    def __init__(self, e_max: int):
        spf = smallest_factors(e_max)
        self.pruned = [False] * (e_max + 1)
        self.k = [0] * (e_max + 1)
        for e in range(1, e_max + 1):
            f = factor(e, spf)
            self.pruned[e] = any(q % 4 == 3 for q in f)
            reps = 1
            for q, a in f.items():
                if q % 4 == 1:
                    reps *= 2 * a + 1
            self.k[e] = (reps - 1) // 2

    def scanned(self, a: int, b: int) -> list[int]:
        return [e for e in range(a, b + 1) if not self.pruned[e]]

    def pruned_count(self, a: int, b: int) -> int:
        return sum(self.pruned[a : b + 1])

    def heavy_mix(self, a: int, b: int) -> dict[int, int]:
        mix: dict[int, int] = {}
        for e in self.scanned(a, b):
            if self.k[e] >= HEAVY_K:
                mix[self.k[e]] = mix.get(self.k[e], 0) + 1
        return mix

    def quads(self, a: int, b: int) -> int:
        """Sum of C(k,4) over scanned centers: the 4-pair choices the search assembles."""
        return sum(comb(self.k[e], 4) for e in self.scanned(a, b))


def is_magic_int(cells) -> int | None:
    sums = {sum(cells[i] for i in line) for line in LINES}
    return sums.pop() if len(sums) == 1 else None


def is_square_int(v: int) -> bool:
    return v >= 0 and isqrt(v) ** 2 == v
