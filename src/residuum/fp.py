"""Prime fields F_p and the quadratic-residue machinery built on them.

Everything is exact integer arithmetic. An element of F_p is a plain int in
[0, p-1], passed beside its prime p; the inverse of a nonzero a is
pow(a, -1, p). The one table kept per prime is its root table, which
make_context(p) builds, memoizes and returns read-only, so it is safe to share
between threads. All operations are pure.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, chain, compress, cycle, dropwhile, islice
from math import isqrt

from .errors import ResiduumError, UsageError

# A root table holds 4 bytes per element of F_p, about 4 MB per 10**6 of p,
# and make_context builds it in O(p) time, so larger moduli are refused
# before any work is done.
MAX_CONTEXT_P = 10**7

# Largest center root that `search_msos` scans and `admissible_center_check`
# factors. is_prime proves a prime e or prime cofactor at once, but
# `prime_factors` still walks up to the smaller factor of a semiprime:
# 0.3-0.4 s for 9999973 * 9999991 near 10**14 (Python 3.11, 2-vCPU machine),
# and that walk grows as sqrt(e).
MAX_CENTER_ROOT = 10**14

# `factorize_block` sieves by the primes below this bound and hands a
# center's cofactor past it to `prime_factors`, so a block of centers near
# MAX_CENTER_ROOT pays for 6542 sieving primes, not the 664,579 below
# sqrt(MAX_CENTER_ROOT).
BLOCK_SIEVE_BOUND = 2**16
# `factorize_block` sieves a block this many centers at a time, so that at
# most this many factorisations, about 1 MB, exist at once.
SIEVE_SEGMENT = 2**12

# Most worker processes `search_msos` may start: a process pool forks all of
# its workers at the first task, so a larger count is refused before any start.
# It lives here so that `cli` reads it without importing `search`.
MAX_WORKERS = 64


# (a, psi) for the first 13 primes a: psi is the least odd composite that is
# a strong probable prime to every base up to a, so Miller-Rabin to those
# bases is exact below it (Sorenson & Webster, Math. Comp. 86 (2017) 985-1003).
_MR_ROUNDS = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
    (41, 3317044064679887385961981),
)


def is_prime(n: int) -> bool:
    """Exact, by deterministic Miller-Rabin, for every n below about
    3.3 * 10**24. n is first divided by the 13 bases 2..41, then tested as a
    strong probable prime to each base in turn until n is below that base's
    psi: two rounds below 1.37 * 10**6, seven near 10**14, each one modular
    power and at most log2(n) squarings. A composite mostly fails the first
    round. An n that passes all 13 rounds and is not below the last psi is
    not proven, and raises UsageError."""
    if n < 2:
        return False
    for a, _ in _MR_ROUNDS:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a, psi in _MR_ROUNDS:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    raise UsageError(
        f"{n} passes Miller-Rabin to the first 13 prime bases, which proves a "
        f"prime only below {psi}"
    )


# steps from 1 through the residues mod 30 prime to 30: 1, 7, 11, ..., 29, 31
_WHEEL_GAPS = (6, 4, 2, 4, 2, 4, 6, 2)


def prime_factors(n: int, least: int = 2) -> Iterator[int]:
    """Prime factors of n >= 1, ascending and with multiplicity, for an n with
    no prime factor below least. Lazy, so a caller that stops early skips the
    rest of the work.

    Trial division by 2, 3 and 5 and then the numbers prime to 30, 8 in each
    30, from least on. The walk stops at a divisor f with f^2 > n, or once
    is_prime proves what is left of n; the proof runs only while the walk
    still has such an f to try, once at the start and once after each factor.
    So a prime or a prime cofactor costs one Miller-Rabin test, and a
    semiprime with two factors near 10**7 the full walk, about 2.7 * 10**6
    divisions. UsageError comes from is_prime for a cofactor of about
    3.3 * 10**24 or more that it cannot prove.
    """
    start = max(least, 7)
    wheel = accumulate(cycle(_WHEEL_GAPS), initial=start - start % 30 + 1)
    if not is_prime(n):
        for f in chain((q for q in (2, 3, 5) if q >= least), dropwhile(start.__gt__, wheel)):
            if f * f > n:
                break
            if n % f:
                continue
            while n % f == 0:
                yield f
                n //= f
            if f * f <= n and is_prime(n):
                break
    if n > 1:
        yield n


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, ascending, from
    prime_factors. A prime near 10**14 takes about 0.1 ms; the slowest n below
    10**14 are semiprimes with two factors near 10**7, 0.3-0.4 s."""
    return dict(Counter(prime_factors(n)))


@lru_cache(maxsize=None)
def _sieving_primes(bound: int) -> tuple[int, ...]:
    """The primes below bound, sieved once per process for each bound."""
    return tuple(primes_up_to(bound - 1))


def factorize_block(block: range) -> Iterator[dict[int, int]]:
    """factorize(e) for each e of a block of consecutive integers >= 1, in
    order, from a segmented sieve of the block (Bays & Hudson, BIT 17 (1977)
    121-127). The block is sieved SIEVE_SEGMENT numbers at a time, each
    segment when the one before is used up, so a long block never holds all
    its factorisations at once; UsageError comes at the call.

    Each prime q up to sqrt(max e) and below BLOCK_SIEVE_BOUND visits only
    its multiples in a segment and divides each by q while it can, so a
    segment of n costs about n log log n divisions and a step per sieving
    prime. The sieving primes are those below the power of two above
    sqrt(max e), so a process sieves them at most 16 times. What is left of
    e has no prime factor up to the sieve's limit s; below (s + 1)^2 it is 1
    or a prime, and above it, which happens only for e above 2**32, it goes
    to prime_factors from s + 1.
    """
    if block and (block[0] < 1 or block.step != 1):
        raise UsageError(f"need a block of consecutive integers >= 1, got {block}")
    segments = (block[i : i + SIEVE_SEGMENT] for i in range(0, len(block), SIEVE_SEGMENT))
    return chain.from_iterable(map(_sieve_segment, segments))


def _sieve_segment(segment: range) -> list[dict[int, int]]:
    """factorize(e) for each e of a nonempty segment; see factorize_block."""
    lo, n = segment[0], len(segment)
    rest = list(segment)
    factors = [{} for _ in segment]
    root = isqrt(segment[-1])
    limit = min(root, BLOCK_SIEVE_BOUND - 1)  # every prime up to it is sieved
    for q in _sieving_primes(min(1 << root.bit_length(), BLOCK_SIEVE_BOUND)):
        if q > limit:
            break
        for i in range(-lo % q, n, q):
            r, k = rest[i] // q, 1
            while r % q == 0:
                r //= q
                k += 1
            rest[i] = r
            factors[i][q] = k
    for f, r in zip(factors, rest):
        if r == 1:
            continue
        if r <= limit * (limit + 2):  # below (limit + 1)^2, so prime
            f[r] = 1
            continue
        for p in prime_factors(r, limit + 1):
            f[p] = f.get(p, 0) + 1
    return factors


def _prime_flags(n: int) -> bytearray:
    """Sieve of Eratosthenes for n >= 1: flags[k] is 1 when k is prime, else
    0, for 0 <= k <= n. One byte per k."""
    flags = bytearray(2) + b"\x01" * (n - 1)
    for q in range(2, isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return flags


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    return list(compress(range(n + 1), _prime_flags(n)))


def two_square_splits(n: int) -> Iterator[tuple[int, int, int]]:
    """(p, a, b) for every prime p = 1 (mod 4) up to n, ascending, with
    p = a^2 + b^2, a odd and b even, both positive: the pair two_squares(p)
    gives, for every such p at once.

    One walk over odd a and even b with a^2 + b^2 <= n, about pi*n/16 pairs,
    writes a at index m // 4 of each sum m; the sieve then picks the primes
    and b is read back as sqrt(p - a^2). By Fermat a prime p = 1 (mod 4) is
    such a sum in exactly one way, so its entry is its split; a composite
    may be a sum (25 = 3^2 + 4^2) or several, and the sieve drops it. The
    sieve takes a byte per n while it runs; its flags for 1, 5, 9, ...
    and the entries, a < 2^16, then take 0.75 bytes per n.
    """
    if n < 5:
        return
    prime = _prime_flags(n)[1::4]  # prime[i] for 4i + 1, the only ones read
    split = array("H", [0]) * (n // 4 + 1)
    squares = [c * c for c in range(isqrt(n // 4) + 1)]
    for a in range(1, isqrt(n - 4) + 1, 2):
        base = (a * a) >> 2  # (a^2 + (2c)^2) // 4 = base + c^2 for odd a
        for c2 in islice(squares, 1, isqrt((n - a * a) >> 2) + 1):
            split[base + c2] = a
    for p in compress(range(1, n + 1, 4), prime):
        a = split[p >> 2]
        yield p, a, isqrt(p - a * a)


def two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, a odd and both positive, for a prime
    p = 1 (mod 4). Hermite-Serret (Cohen, A Course in Computational Algebraic
    Number Theory, 1.5): Euclid on p and sqrt(-1) mod p stops at the first
    remainder below sqrt(p), which is one of the two; O(log p) steps.

    sqrt(-1) is c^((p - 1)/4) for the least non-residue c: its square is
    c^((p - 1)/2), which is -1 by Euler's criterion (Brillhart, Math. Comp.
    26 (1972)). p is proved prime by is_prime first, so a composite raises
    UsageError, the Euler pseudoprimes to base 2 (3277 = 29 * 113) among
    them, and a non-residue exists.
    """
    if p % 4 != 1:
        raise UsageError(f"two squares need p = 1 (mod 4), got {p}")
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    c = 2
    while legendre(c, p) != -1:
        c += 1
    x, y = p, pow(c, (p - 1) // 4, p)
    while y * y > p:
        x, y = y, x % y
    z = isqrt(p - y * y)
    return (y, z) if y % 2 else (z, y)


@lru_cache(maxsize=1)
def make_context(p: int) -> memoryview:
    """The root table of a prime modulus p, read-only, memoized for the most
    recently used p alone, since no command reads two tables; UsageError
    above MAX_CONTEXT_P and for anything else not prime.

    root[a] is the smaller square root of a, in [1, p//2], for a nonzero
    quadratic residue a, and 0 for 0 and every non-residue, so membership and
    roots are index reads: compress(range(p), root) is the residues,
    ascending, root[p - 1] the smaller element of order 4 for p = 1 (mod 4)
    and root[2] the smaller square root of 2 for p = +-1 (mod 8). One pass
    over x = 1..p//2 fills it. A write to it raises TypeError, so no caller
    changes what later calls read.
    """
    if p > MAX_CONTEXT_P:
        raise UsageError(
            f"p={p} exceeds the context ceiling {MAX_CONTEXT_P}; "
            "a context holds a root table of p entries"
        )
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    root = array("I", [0]) * p
    for x in range(1, p // 2 + 1):
        root[x * x % p] = x
    return memoryview(root).toreadonly()


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod an odd prime p via Euler's criterion:
    0, 1 or -1. Reads no table."""
    if p == 2:
        raise UsageError("the quadratic character needs an odd prime modulus")
    a %= p
    if a == 0:
        return 0
    return -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1


def sqrt_mod(p: int, a: int) -> int:
    """Canonical (smaller) square root of a mod p, read from the root table
    of make_context(p); ResiduumError when none exists."""
    root = make_context(p)
    a %= p
    r = root[a]
    if r == 0 and a != 0:
        raise ResiduumError(f"{a} is not a square mod {p}")
    return r
