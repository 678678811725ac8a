from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuum.congrua import (
    MAX_SWEEP_M,
    SquareProgression,
    TABLE_ROUTE_PRIMES,
    ap_to_unit_triple,
    congruum_triple,
    construct,
    construct_mod20,
    construct_mod24,
    coverage_status,
    eligible_params,
    sweep_congrua,
)
from residuum.errors import NotCovered, UsageError
from residuum.fp import MAX_CONTEXT_P, legendre, primes_up_to, sqrt_mod
from residuum.residue import (
    consecutive_triples,
    enumerate_all,
    nontrivial_fields,
    run_count,
    triple_from_member,
)


def primitive(prog: SquareProgression) -> bool:
    return gcd(prog.x, prog.y, prog.z) == 1


def test_congruum_examples():
    assert congruum_triple(2, 1) == congruum_triple(2, 1)
    p21 = congruum_triple(2, 1)
    assert (p21.x, p21.y, p21.z, p21.d) == (7, 5, 1, 24)
    p54 = congruum_triple(5, 4)
    assert (p54.x, p54.y, p54.z, p54.d) == (49, 41, 31, 720)
    p32 = congruum_triple(3, 2)
    assert (p32.x, p32.y, p32.z, p32.d) == (17, 13, 7, 120)
    assert 289 - 169 == 169 - 49 == 120


def test_congruum_bad_parameters():
    with pytest.raises(UsageError, match="^need m > n >= 1, got m=1, n=1$"):
        congruum_triple(1, 1)
    with pytest.raises(UsageError, match="^need m > n >= 1, got m=3, n=0$"):
        congruum_triple(3, 0)
    with pytest.raises(UsageError, match="^need m > n >= 1, got m=2, n=5$"):
        congruum_triple(2, 5)


def test_congruum_primitive_flag():
    assert primitive(congruum_triple(2, 1))
    assert not primitive(congruum_triple(4, 2))  # shared factor
    assert not primitive(congruum_triple(3, 1))  # same parity


def test_progression_derives_difference_and_primitivity():
    even = SquareProgression(34, 26, 14)  # twice (17, 13, 7)
    assert even.d == 480
    assert primitive(even) is False
    assert primitive(SquareProgression(17, 13, 7)) is True
    with pytest.raises(UsageError, match="not in arithmetic progression"):
        SquareProgression(34, 26, 15)
    with pytest.raises(UsageError, match="need x > y > z"):
        SquareProgression(7, 7, 1)


def test_primitive_is_the_parameter_rule():
    # gcd(x, y, z) == 1 exactly when m > n are coprime of opposite parity
    for m in range(2, 200):
        for n in range(1, m):
            expected = gcd(m, n) == 1 and (m - n) % 2 == 1
            assert primitive(congruum_triple(m, n)) is expected, (m, n)


@settings(max_examples=400, deadline=None)
@given(m=st.integers(2, 20), n=st.integers(1, 19))
def test_congruum_progression_exact(m, n):
    if n >= m:
        return
    prog = congruum_triple(m, n)
    assert prog.x ** 2 - prog.y ** 2 == prog.d
    assert prog.y ** 2 - prog.z ** 2 == prog.d
    assert prog.x > prog.y > prog.z >= 1


def test_ap_to_unit_triple_f61():
    t = ap_to_unit_triple(congruum_triple(5, 4), 61)
    assert t.squares() == (49, 48, 47)


def test_ap_to_unit_triple_f97():
    t = ap_to_unit_triple(congruum_triple(2, 1), 97)
    assert (t.alpha**2 - t.beta**2) % 97 == 1
    assert (t.beta**2 - t.gamma**2) % 97 == 1
    assert t.squares()[2] in consecutive_triples(97)


def test_ap_to_unit_triple_f13_rejects():
    # 13 divides none of 49, 41, 31; 720 = 5 (mod 13) and Euler says non-residue
    assert (49 * 41 * 31) % 13 != 0
    assert legendre(720, 13) == -1
    with pytest.raises(NotCovered, match="^720 is not a nonzero square mod 13$"):
        ap_to_unit_triple(congruum_triple(5, 4), 13)


def test_ap_to_unit_triple_divides_term():
    with pytest.raises(NotCovered, match="^41 divides a term of"):
        ap_to_unit_triple(congruum_triple(5, 4), 41)


def test_ap_to_unit_triple_needs_1_mod_4():
    with pytest.raises(UsageError, match=r"need p = 1 \(mod 4\), got 7$"):
        ap_to_unit_triple(congruum_triple(2, 1), 7)


def test_construct_mod20():
    assert construct_mod20(61).squares() == (49, 48, 47)
    t29 = construct_mod20(29)
    assert t29.squares() == (7, 6, 5)
    assert 5 in consecutive_triples(29)
    with pytest.raises(NotCovered, match=r"not 1 or 9 \(mod 20\)"):
        construct_mod20(37)  # 37 = 17 (mod 20)


def test_construct_mod20_refuses_41_and_construct_serves_it_from_table():
    # 41 divides 41, the middle term of (49, 41, 31)
    with pytest.raises(NotCovered, match="^41 divides a term of"):
        construct_mod20(41)
    route, prog, t = construct(41)
    assert (route, prog) == ("table", None)
    assert t.squares()[2] == 8


def test_construct_mod24():
    t = construct_mod24(73)
    assert (t.alpha**2 - t.beta**2) % 73 == 1
    with pytest.raises(NotCovered, match="^5 divides a term of"):
        construct_mod24(5)
    # 29 = 5 (mod 24): confirm 24 is a residue first, then construct
    assert legendre(24, 29) == 1
    t29 = construct_mod24(29)
    assert t29.squares()[2] in consecutive_triples(29)
    with pytest.raises(NotCovered, match=r"not 1 or 5 \(mod 24\)"):
        construct_mod24(13)  # 13 (mod 24)


# every function that reads a root table, called with the p it takes
READS_A_TABLE = {
    "sqrt_mod": lambda p: sqrt_mod(p, 4),
    "consecutive_triples": consecutive_triples,
    "triple_from_member": lambda p: triple_from_member(p, 4),
    "nontrivial_fields": lambda p: next(nontrivial_fields(p)),
    "enumerate_all": enumerate_all,
    "ap_to_unit_triple": lambda p: ap_to_unit_triple(congruum_triple(2, 1), p),
    "construct_mod20": construct_mod20,
    "construct_mod24": construct_mod24,
    "construct": construct,
    "sweep_congrua": sweep_congrua,
}


@pytest.mark.parametrize(
    "p, cause",
    # both = 1 (mod 4), 9 (mod 20) and 1 (mod 24), so each reaches its table
    [(49, "^49 is not prime$"), (MAX_CONTEXT_P + 9, f"^p={MAX_CONTEXT_P + 9} exceeds the ")],
    ids=["composite", "past the ceiling"],
)
def test_functions_that_take_p_refuse_a_modulus_without_a_table(p, cause):
    for name, call in READS_A_TABLE.items():
        with pytest.raises(UsageError, match=cause):
            call(p)
            pytest.fail(f"{name}({p}) returned")


def test_difference_residue_matches_reduced_form():
    # 720 = 5 * 12^2, so its character equals that of 5 wherever p > 3
    for p in primes_up_to(500):
        if p <= 5:
            continue
        assert legendre(720, p) == legendre(5, p)


def test_five_is_residue_iff_pm1_mod_10():
    for p in primes_up_to(1000):
        if p < 7:
            continue
        assert (legendre(5, p) == 1) == (p % 10 in (1, 9))


def test_coverage_examples():
    assert coverage_status(113) == "uncovered_but_nonempty"
    assert coverage_status(13) == "excluded_5_13_17"
    assert coverage_status(61) == "covered_mod20"
    assert coverage_status(29) == "covered_both"
    assert coverage_status(41) == "covered_mod20"
    assert coverage_status(37) == "small_case_table"
    assert coverage_status(73) == "covered_mod24"
    with pytest.raises(UsageError, match="^coverage is defined for p = 1"):
        coverage_status(7)


def test_coverage_statuses_partition():
    for p in primes_up_to(500):
        if p % 4 != 1:
            continue
        status = coverage_status(p)
        if p in (5, 13, 17):
            assert status == "excluded_5_13_17"
        elif p % 20 in (1, 9) and p % 24 in (1, 5):
            assert status == "covered_both"
        elif p % 20 in (1, 9):
            assert status == "covered_mod20"
        elif p % 24 in (1, 5):
            assert status == "covered_mod24"
        elif p in TABLE_ROUTE_PRIMES:
            assert status == "small_case_table"
        else:
            assert status == "uncovered_but_nonempty"


def test_run_sets_follow_the_curve_count_and_hasse_bound():
    # coverage_status reports uncovered_but_nonempty without counting runs,
    # and table takes |C_p| from run_count's closed form
    # 8|C_p| = p - k - 2*eps*a; the direct count is its oracle here. |a| <
    # sqrt(p) gives the lower bound that makes C_p nonempty for every p >= 29,
    # past the range checked here.
    for p in primes_up_to(10**4):
        if p % 4 != 1:
            continue
        runs = len(consecutive_triples(p))
        assert run_count(p) == runs, p
        assert (runs > 0) == (p >= 29), p
        deficit = p - 15 - 8 * runs  # 8|C_p| >= p - 15 - 2*sqrt(p)
        assert deficit <= 0 or deficit * deficit <= 4 * p, p
    # the Euler pseudoprimes to base 2 below 10**5, 3277 = 29 * 113 first
    for n in (3277, 29341, 49141, 80581, 88357):
        with pytest.raises(UsageError, match=f"^{n} is not prime$"):
            run_count(n)


def test_constructions_cover_what_they_claim():
    for p in primes_up_to(500):
        if p % 4 != 1:
            continue
        runs = set(consecutive_triples(p))
        if p == 41:
            with pytest.raises(NotCovered, match="^41 divides a term of"):
                construct_mod20(p)
            assert construct(p)[2].squares()[2] in runs
        elif p % 20 in (1, 9):
            assert construct_mod20(p).squares()[2] in runs
        if p % 24 in (1, 5) and p != 5:
            assert construct_mod24(p).squares()[2] in runs


def test_construct_takes_one_route_per_prime():
    # every prime p = 1 (mod 4) below 10^4: the route agrees with the
    # coverage report, and its triple starts a run of C_p; the table route
    # prints the whole run set, so those of 37 and 41 are pinned here
    table_runs = {37: (9, 10, 25, 26), 41: (8, 31)}
    for p in primes_up_to(10**4):
        if p % 4 != 1:
            continue
        status = coverage_status(p)
        if status in ("excluded_5_13_17", "uncovered_but_nonempty"):
            with pytest.raises(NotCovered):
                construct(p)
            continue
        route, prog, triple = construct(p)
        if p in table_runs:
            assert (route, prog) == ("table", None), p
            assert consecutive_triples(p) == table_runs[p], p
        elif status in ("covered_mod20", "covered_both"):
            assert route == "mod20", p
        else:
            assert status == "covered_mod24" and route == "mod24", p
        assert triple.squares()[2] in consecutive_triples(p), p
        if prog is not None:
            assert triple == ap_to_unit_triple(prog, p), p


def test_uncovered_list_matches_expected():
    uncovered = [
        p
        for p in primes_up_to(499)
        if p % 4 == 1
        and p > 17
        and coverage_status(p) == "uncovered_but_nonempty"
    ]
    assert uncovered == [113, 137, 157, 233, 257, 277, 353, 373, 397]


def test_sweep_congrua_finds_candidates_for_uncovered_prime():
    found = sweep_congrua(113)
    assert found, "some small progression should map into F_113"
    runs = set(consecutive_triples(113))
    for m, n, t in found:
        assert gcd(m, n) == 1 and (m - n) % 2 == 1
        assert t.squares()[2] in runs
    # the (3,2) progression (17, 13, 7; difference 120) reaches every prime
    # below 500 that the residue criteria miss
    uncovered = [
        p for p in primes_up_to(500)
        if p % 4 == 1 and coverage_status(p) == "uncovered_but_nonempty"
    ]
    assert len(uncovered) == 9
    assert congruum_triple(3, 2) == SquareProgression(17, 13, 7)
    for p in uncovered:
        assert (3, 2) in {(m, n) for m, n, _ in sweep_congrua(p)}, p


def test_sweep_refuses_m_above_its_ceiling():
    # the pairs grow as m^2: at m = 4000 there are 3.2 million of them
    assert len(eligible_params(MAX_SWEEP_M)) == 50_765
    for m_max in (MAX_SWEEP_M + 1, 4000):
        with pytest.raises(UsageError, match="exceeds the sweep ceiling"):
            eligible_params(m_max)
        with pytest.raises(UsageError, match="exceeds the sweep ceiling"):
            sweep_congrua(113, m_max)
