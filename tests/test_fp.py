import random
import tracemalloc
from collections import Counter
from itertools import chain, compress, count, islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuum import fp
from residuum.cli import run_analyze
from residuum.errors import BadPrimeForm, BoundExceeded, NonResidue, NotPrime
from residuum.fp import (
    BLOCK_SIEVE_BOUND,
    MAX_CENTER_ROOT,
    MAX_CONTEXT_P,
    SIEVE_SEGMENT,
    factorize,
    factorize_block,
    is_prime,
    legendre,
    make_context,
    prime_factors,
    primes_up_to,
    sqrt_mod,
    two_square_splits,
    two_squares,
)

ODD_PRIMES_1000 = [p for p in primes_up_to(1000) if p > 2]


def brute_qr_set(p):
    return tuple(sorted({n * n % p for n in range(1, p)}))


def residues(p):
    """The nonzero residues mod p, ascending, read from p's root table."""
    return tuple(compress(range(p), make_context(p)))


def trial_factors(n):
    """Prime factors of n >= 1, ascending and with multiplicity, by trial
    division over 2 and the odd numbers up to the square root of what is
    left: the reference for fp's divider, about sqrt(n)/2 steps for n prime."""
    for f in chain((2,), count(3, 2)):
        if f * f > n:
            break
        while n % f == 0:
            yield f
            n //= f
    if n > 1:
        yield n


def test_primes_up_to_matches_trial_division():
    assert primes_up_to(10**5) == [n for n in range(2, 10**5 + 1) if next(trial_factors(n)) == n]
    assert primes_up_to(1) == []


def test_is_prime_matches_the_sieve():
    assert [n for n in range(10**6) if is_prime(n)] == primes_up_to(10**6 - 1)
    assert not any(map(is_prime, range(-5, 2)))


# psi_k, the least odd composite that is a strong probable prime to each of
# the first k prime bases, for k = 1..12 (psi_8 = psi_7, psi_10 = psi_11 =
# psi_9): each passes its first k bases and fails Miller-Rabin to all 13
STRONG_PSEUDOPRIMES = [
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
]
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_rejects_the_strong_pseudoprimes(n):
    assert is_prime(n) is False


def test_is_prime_refuses_what_it_cannot_prove():
    # psi_13 = 1287836182261 * 2575672364521 passes all 13 bases
    assert 1287836182261 * 2575672364521 == PSI_13
    with pytest.raises(BoundExceeded, match="Miller-Rabin"):
        is_prime(PSI_13)
    with pytest.raises(BoundExceeded):
        is_prime(2**89 - 1)  # prime, past psi_13
    assert is_prime(PSI_13 + 2) is False  # divisible by 3
    assert is_prime(2**61 - 1) is True


def test_is_prime_proves_a_proth_prime_below_psi_13():
    # Proth: N = k * 2^m + 1 with k < 2^m is prime when 3^((N-1)/2) = -1
    # mod N, so N needs all 13 rounds and an independent proof
    n = 313 * 2**70 + 1
    assert STRONG_PSEUDOPRIMES[-1] < n < PSI_13 and pow(3, (n - 1) // 2, n) == n - 1
    assert is_prime(n) is True


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**9))
def test_factorize_multiplies_back(n):
    f = factorize(n)
    assert prod(q**k for q, k in f.items()) == n
    assert list(f) == sorted(f)
    for q in f:
        assert q >= 2 and all(q % d for d in range(2, isqrt(q) + 1)), q


@pytest.fixture(scope="module")
def factored():
    # made when first asked for, not at import, so that a divider that loops
    # hangs only the tests that factor, not every test of this file
    return [factorize(e) for e in range(1, 10**5 + 1)]


@pytest.mark.parametrize("width", [1, 7, 8, 31, 1000, 10**5])
def test_factorize_block_matches_factorize(width, factored):
    # every e in [1, 10**5], cut into blocks of `width` after a first block
    # of `offset`, so blocks start at many residues of the small primes; a
    # block of 10**5 is sieved in segments
    assert SIEVE_SEGMENT < 10**5
    for offset in (0,) if width == 1 else (0, 3, 5):
        starts = [1, *range(1 + offset, 10**5 + 1, width)]
        got = []
        for lo, hi in zip(starts, starts[1:] + [10**5 + 1]):
            got += factorize_block(range(lo, hi))
        assert got == factored, offset
        # ascending, as factorize gives them
        assert all(list(f) == sorted(f) for f in got)


@pytest.mark.parametrize(
    "block", [range(10**12, 10**12 + 100), range(MAX_CENTER_ROOT - 99, MAX_CENTER_ROOT + 1)]
)
def test_factorize_block_matches_factorize_on_large_centers(block):
    # against the odd-number divider, which shares no code with fp's; the top
    # window holds the primes 10**14 - 29 and 10**14 - 27, and
    # 10**14 - 11 = 2460707 * 40638727
    want = [dict(Counter(trial_factors(e))) for e in block]
    got = list(factorize_block(block))
    assert got == want
    assert [factorize(e) for e in block] == want
    assert all(list(f) == sorted(f) for f in got)


def test_prime_factors_walks_from_least():
    # every start of the wheel, each against an n with no prime factor below
    # least; islice bounds the walk, so a divider that loops fails here
    primes = primes_up_to(1000)
    for least in range(2, 101):
        p, q, r, *_ = (x for x in primes if x >= least)
        for n in (1, p, p * p, p * q, p**3 * r, q * r * 99991, 10**9 + 7, p * (10**9 + 7)):
            assert list(islice(prime_factors(n, least), 64)) == list(trial_factors(n)), (least, n)


@pytest.mark.parametrize("e", [65537**2, 65537 * 65539, 2 * 65537 * 65539])
def test_factorize_block_splits_what_the_sieve_leaves(e):
    # above 2**32 the sieve stops short of sqrt(e), and these e keep a
    # composite cofactor with no prime factor below BLOCK_SIEVE_BOUND
    assert e >= BLOCK_SIEVE_BOUND**2
    for block in (range(e, e + 1), range(e - 40, e + 60)):
        want = [dict(Counter(trial_factors(n))) for n in block]
        assert list(factorize_block(block)) == want
        assert [factorize(n) for n in block] == want


def test_factorize_block_refuses_what_is_not_a_block():
    assert list(factorize_block(range(5, 5))) == []
    # refused at the call, before any segment is sieved
    for block in (range(0, 10), range(1, 10, 2)):
        with pytest.raises(ValueError):
            factorize_block(block)


def test_composite_with_huge_cofactor_stops_at_small_factor():
    # trial-dividing the Mersenne prime 2**61 - 1 would take hours
    assert is_prime(2 * (2**61 - 1)) is False


@pytest.mark.parametrize("n", [0, 1, 4, 12, 91, 561, 1000003 * 2, MAX_CONTEXT_P])
def test_composites_rejected(n):
    with pytest.raises(NotPrime):
        make_context(n)


@pytest.mark.parametrize("p", [MAX_CONTEXT_P + 1, 1000000009, 2**61 - 1])
def test_context_ceiling_refused_before_primality(p, monkeypatch):
    def trial(n):
        raise AssertionError("primality tested above the ceiling")

    monkeypatch.setattr(fp, "is_prime", trial)
    with pytest.raises(BoundExceeded, match="context ceiling"):
        make_context(p)


def test_context_holds_only_its_root_table():
    # 4 bytes per element of F_p, built without a temporary of the same size
    # and past the cache, which would keep it; the residues are derived from
    # the table when read
    p = 1000003
    tracemalloc.start()
    try:
        root = make_context.__wrapped__(p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 5 * p and peak <= 5 * p
    assert len(root) == p and root.nbytes == 4 * p and root.readonly


def test_context_cache_is_bounded():
    maxsize = make_context.cache_parameters()["maxsize"]
    assert maxsize is not None
    primes = primes_up_to(10**4)[: maxsize + 8]
    first = make_context(primes[0])
    for p in primes[1:]:
        make_context(p)
    assert make_context.cache_info().currsize <= maxsize
    rebuilt = make_context(primes[0])
    assert rebuilt is not first  # evicted, least recently used
    assert rebuilt == first


def test_a_second_primes_table_evicts_the_first():
    # no command reads two tables, so the cache keeps the latest one alone
    first = make_context(10007)
    assert make_context(10007) is first
    make_context(10009)
    assert make_context.cache_info().currsize == 1
    rebuilt = make_context(10007)
    assert rebuilt is not first and rebuilt == first


def test_two_squares_matches_brute_search():
    for p in primes_up_to(10**4):
        if p % 4 != 1:
            continue
        a = next(a for a in range(1, p, 2) if isqrt(p - a * a) ** 2 == p - a * a)
        assert two_squares(p) == (a, isqrt(p - a * a)), p
    for p in (2, 3, 7, 10007):
        with pytest.raises(BadPrimeForm):
            two_squares(p)
    # every composite n = 1 (mod 4) below 10**5 is refused, the Euler
    # pseudoprimes to base 2, which pass Euler's criterion, among them
    primes = set(primes_up_to(10**5))
    for n in (1, 3277, 29341, 49141, 80581, 88357, *range(5, 10**5, 4)):
        if n in primes:
            continue
        with pytest.raises(NotPrime):
            two_squares(n)


def test_two_squares_of_large_primes():
    # the 200 largest primes p = 1 (mod 4) below 10**14 and below 10**12; by
    # Fermat p has one split with a odd and b even, so the sum check is exact
    for top in (10**14, 10**12):
        primes = islice((n for n in range(top - 3, 0, -4) if is_prime(n)), 200)
        for p in primes:
            a, b = two_squares(p)
            assert a * a + b * b == p and a % 2 == 1 and b % 2 == 0 and a > 0 and b > 0, p


def test_two_square_splits_match_two_squares():
    n = 2 * 10**5
    splits = list(two_square_splits(n))
    assert splits == [(p, *two_squares(p)) for p in primes_up_to(n) if p % 4 == 1]
    # composite sums of two squares get no entry, the Euler pseudoprimes
    # among them
    assert {p for p, _, _ in splits}.isdisjoint({25, 65, 3277, 29341, 49141, 80581, 88357})
    for n in range(-3, 200):
        assert list(two_square_splits(n)) == [
            (p, *two_squares(p)) for p in primes_up_to(n) if p % 4 == 1
        ], n


def test_qr_tables_small():
    assert residues(5) == (1, 4)
    assert residues(13) == (1, 3, 4, 9, 10, 12)
    for p in (5, 13, 17, 29, 37, 101):
        assert residues(p) == brute_qr_set(p)


def test_root_table_matches_powers_of_a_generator():
    # every residue of every prime below 10**4: the residues are exactly the
    # even powers g^(2i) of a generator g of F_p^*, found by factoring p - 1
    # with trial_factors, so neither step reads a table; and a root r of a
    # must satisfy r*r = a with 1 <= r <= p//2, which of the two roots r and
    # p - r only the smaller meets
    for p in primes_up_to(10**4):
        root = make_context(p)
        half = p // 2
        factors = set(trial_factors(p - 1))
        g = next(g for g in count(1) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
        qr = [False] * p
        x = 1
        for _ in range(half):
            qr[x] = True
            x = x * g * g % p
        assert residues(p) == tuple(compress(range(p), qr)), p
        wrong = [
            a
            for a, (r, q) in enumerate(zip(root, qr))
            if not (1 <= r <= half and r * r % p == a if q else r == 0)
        ]
        assert wrong == [], p
        for a in compress(range(1, p), (not q for q in qr[1:])):
            try:  # pytest.raises would cost more than the rest of the test
                sqrt_mod(p, a)
            except NonResidue:
                continue
            pytest.fail(f"non-residue {a} mod {p} got a root")


def test_no_order4_element_for_3_mod_4():
    assert run_analyze(7, 0).results["w"] is None
    assert run_analyze(43, 0).results["w"] is None
    assert make_context(7)[6] == make_context(43)[42] == 0


def test_w_is_canonical_smaller_root():
    # independent scan for both square roots of -1 mod 29
    candidates = [x for x in range(29) if x * x % 29 == 28]
    assert candidates == [12, 17]
    assert make_context(29)[28] == run_analyze(29, 0).results["w"] == min(candidates)


def test_p2_degenerate_context():
    assert list(make_context(2)) == [0, 1]
    results = run_analyze(2, 0).results
    assert list(results["qr_set"]) == [1]
    assert results["w"] is None
    assert results["tau"] == 0


def test_legendre_examples():
    assert legendre(2, 17) == 1
    assert legendre(0, 13) == 0
    assert legendre(26, 13) == 0
    assert legendre(2, 13) == -1
    assert legendre(-1, 13) == 1


def test_legendre_needs_odd_prime():
    with pytest.raises(BadPrimeForm):
        legendre(1, 2)


def test_legendre_agrees_with_table_everywhere():
    for p in ODD_PRIMES_1000:
        root = make_context(p)
        for a in range(p):
            expected = 0 if a == 0 else (1 if root[a] else -1)
            assert legendre(a, p) == expected


def test_qr_set_sizes():
    for p in ODD_PRIMES_1000:
        assert len(residues(p)) == (p - 1) // 2


def test_qr_set_group_structure():
    rng = random.Random(20260809)
    for p in ODD_PRIMES_1000:
        root = make_context(p)
        res = residues(p)
        nonres = [a for a in range(1, p) if not root[a]]
        if p <= 250:
            pairs_r = [(x, y) for x in res for y in res]
            pairs_n = [(x, y) for x in nonres for y in nonres]
        else:
            pairs_r = [(rng.choice(res), rng.choice(res)) for _ in range(500)]
            pairs_n = [(rng.choice(nonres), rng.choice(nonres)) for _ in range(500)]
        assert all(root[x * y % p] for x, y in pairs_r)
        assert all(root[x * y % p] for x, y in pairs_n)


def test_w_tau_existence_criteria():
    for p in primes_up_to(1000):
        results = run_analyze(p, 0).results
        w, tau = results["w"], results["tau"]
        assert (w is not None) == (p % 4 == 1)
        assert (tau is not None) == (p == 2 or p % 8 in (1, 7))
        if w is not None:
            assert w * w % p == p - 1
            assert 0 < w <= p - w
        if tau is not None:
            assert tau * tau % p == 2 % p
            assert 0 <= tau <= p - tau


def test_sqrt_examples():
    assert sqrt_mod(61, 5) == 26
    assert sqrt_mod(29, 0) == 0
    assert sqrt_mod(29, 6) == 8
    assert sqrt_mod(29, 6 + 29 * 7) == 8


def test_sqrt_rejects_nonresidue():
    with pytest.raises(NonResidue):
        sqrt_mod(13, 2)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([p for p in primes_up_to(3000) if p > 2]),
    n=st.integers(min_value=0, max_value=10**9),
)
def test_sqrt_roundtrip_and_canonical(p, n):
    r = sqrt_mod(p, n * n)
    assert r * r % p == n * n % p
    assert 0 <= r <= p - r
