import json

import pytest

from residuum.cli import run_analyze
from residuum.errors import (
    BadPrimeForm,
    BoundExceeded,
    NonSquareCell,
    NotAMember,
    NotMagic,
    NonzeroCenter,
)
from residuum.fp import _sqrt_int, legendre, make_context, primes_up_to
from residuum.residue import (
    ClassKind,
    ResidueGrid,
    UnitTriple,
    classify,
    consecutive_triples,
    count_bound,
    enumerate_all,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    generated_classes,
    is_magic_class,
    line_sums,
    magic_sum,
    naive_enumerate,
    orbit,
    run_count,
    triple_from_member,
)

F29 = make_context(29)
F13 = make_context(13)


@pytest.fixture
def grid_f29():
    # reduce the squared entries 9^2 11^2 1^2 / 6^2 0 14^2 / w^2 16^2 8^2 mod 29
    w = F29.w
    cells = [9**2, 11**2, 1**2, 6**2, 0, 14**2, w**2, 16**2, 8**2]
    return ResidueGrid(F29, [v % 29 for v in cells])


def test_f29_grid_values(grid_f29):
    assert grid_f29.rows() == [[23, 5, 1], [7, 0, 22], [28, 24, 6]]


def test_is_magic_class_examples(grid_f29):
    assert is_magic_class(grid_f29)
    assert magic_sum(grid_f29) == 0
    zero = ResidueGrid(F13, [0] * 9)
    assert is_magic_class(zero) and magic_sum(zero) == 0
    bad = ResidueGrid(F13, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert not is_magic_class(bad)
    assert magic_sum(bad) is None


def test_line_sums_order():
    g = ResidueGrid(F13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    assert line_sums(g) == (0,) * 8


def test_cells_must_be_squares():
    with pytest.raises(NonSquareCell, match="^2 is not a square mod 13$"):
        ResidueGrid(F13, [2, 0, 0, 0, 0, 0, 0, 0, 0])  # 2 is not a square mod 13
    with pytest.raises(NonSquareCell, match="^5 is not a square mod 13$"):
        ResidueGrid(F13, [0, 0, 0, 0, 0, 0, 0, 0, -8])  # reduced before the check
    with pytest.raises(ValueError, match="exactly 9 cells"):
        ResidueGrid(F13, [0] * 8)


def test_classify_examples(grid_f29):
    assert classify(grid_f29) is ClassKind.NONTRIVIAL
    corner = ResidueGrid(F13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    assert classify(corner) is ClassKind.TRIVIAL_CORNER
    assert classify(ResidueGrid(F13, [0] * 9)) is ClassKind.ALL_ZERO


def test_classify_preconditions():
    with pytest.raises(NotMagic):
        classify(ResidueGrid(F13, [1, 0, 0, 0, 0, 0, 0, 0, 0]))
    # magic but center nonzero: constant grid of a square
    with pytest.raises(NonzeroCenter):
        classify(ResidueGrid(F13, [1] * 9))


def test_gen_trivial_corner():
    assert gen_trivial_corner(F13).rows() == [[0, 1, 12], [12, 0, 1], [1, 12, 0]]
    assert gen_trivial_corner(make_context(5)).rows() == [[0, 1, 4], [4, 0, 1], [1, 4, 0]]
    with pytest.raises(BadPrimeForm):
        gen_trivial_corner(make_context(7))
    g = gen_trivial_corner(F29)
    assert is_magic_class(g) and classify(g) is ClassKind.TRIVIAL_CORNER


def test_gen_trivial_midedge():
    assert gen_trivial_midedge(make_context(17)).rows() == [[1, 0, 16], [15, 0, 2], [1, 0, 16]]
    assert gen_trivial_midedge(make_context(41)).rows() == [[1, 0, 40], [39, 0, 2], [1, 0, 40]]
    with pytest.raises(BadPrimeForm):
        gen_trivial_midedge(F13)  # 13 = 5 (mod 8)
    with pytest.raises(BadPrimeForm):
        gen_trivial_midedge(make_context(7))
    g = gen_trivial_midedge(make_context(17))
    assert is_magic_class(g) and classify(g) is ClassKind.TRIVIAL_MIDEDGE


def test_consecutive_triples_examples():
    assert consecutive_triples(F29) == (4, 5, 22, 23)
    assert consecutive_triples(make_context(17)) == ()
    assert consecutive_triples(make_context(41)) == (8, 31)
    # explicitly including p = 13, whose run set is empty like 2, 5 and 17
    for p in (2, 5, 13, 17):
        assert consecutive_triples(make_context(p)) == ()
    assert consecutive_triples(make_context(37)) == (9, 10, 25, 26)


def test_consecutive_triples_match_the_definition():
    # three nonzero residues in a row by Euler's criterion, without the table
    assert consecutive_triples(make_context(3)) == ()
    for p in primes_up_to(1000)[2:]:
        expected = tuple(
            n for n in range(1, p) if all(legendre(n + i, p) == 1 for i in range(3))
        )
        assert consecutive_triples(make_context(p)) == expected, p


def test_triple_from_member():
    t = triple_from_member(F29, 5)
    assert t.squares() == (7, 6, 5)
    t = triple_from_member(F29, 4)
    assert t.squares() == (6, 5, 4)
    with pytest.raises(NotAMember):
        triple_from_member(F29, 1)  # 2 is not a residue mod 29


def test_triple_roots_are_canonical():
    t = triple_from_member(F29, 5)
    for x in (t.alpha, t.beta, t.gamma):
        assert 0 < x <= 29 - x


def test_unit_triple_invariants_enforced():
    ctx = F29
    with pytest.raises(ValueError):
        UnitTriple(ctx, 1, 1, 1)
    with pytest.raises(ValueError):
        UnitTriple(ctx, 6, 8, 0)
    t = triple_from_member(ctx, 5)
    assert UnitTriple(ctx, t.alpha, t.beta, t.gamma) == t
    # members outside [1, p-1] are refused, even where the relations hold mod p
    for out_of_range in (0, 29):
        with pytest.raises(ValueError, match="must lie in"):
            UnitTriple(ctx, t.alpha, t.beta, out_of_range)
    with pytest.raises(ValueError, match="must lie in"):
        UnitTriple(ctx, t.alpha + 29, t.beta, t.gamma)


def test_gen_nontrivial_needs_an_order_4_element():
    # 3, 4, 5 are consecutive residues mod 11, but -1 is not a square
    t = triple_from_member(make_context(11), 3)
    assert t.squares() == (5, 4, 3)
    with pytest.raises(BadPrimeForm):
        gen_nontrivial(t)


def test_gen_nontrivial_f29(grid_f29):
    t = triple_from_member(F29, 5)
    assert gen_nontrivial(t) == grid_f29
    g4 = gen_nontrivial(triple_from_member(F29, 4))
    assert g4.vals[1] == 4  # cell (0,1) is gamma^2 = n
    g37 = gen_nontrivial(triple_from_member(make_context(37), 9))
    assert is_magic_class(g37) and magic_sum(g37) == 0
    assert classify(g37) is ClassKind.NONTRIVIAL


def slow_class_entry(ctx, n):
    """One nontrivial_classes entry of analyze, independent of the context's
    root table: roots by Tonelli-Shanks after Euler's criterion, the w*b
    products on ints mod p, and one Tonelli-Shanks root per cell."""
    p = ctx.p

    def sqrt_ts(v):
        assert legendre(v, p) == 1
        return _sqrt_int(v, p)

    w = sqrt_ts(-1)
    a, b, g = sqrt_ts(n + 2), sqrt_ts(n + 1), sqrt_ts(n)
    cells = [
        (w * b) ** 2, g * g, 1,
        a * a, 0, (w * a) ** 2,
        w * w, (w * g) ** 2, b * b,
    ]
    vals = [c % p for c in cells]
    roots = [_sqrt_int(v, p) for v in vals]
    rows = [vals[0:3], vals[3:6], vals[6:9]]
    return {"member": n, "grid": {"cells": rows, "roots": [roots[0:3], roots[3:6], roots[6:9]]}}


def test_analyze_classes_match_the_field_element_path():
    for p in primes_up_to(2000):
        if p % 4 != 1:
            continue
        ctx = make_context(p)
        members = [
            n for n in range(1, p - 2)
            if all(legendre(n + i, p) == 1 for i in range(3))
        ]
        got = json.loads(run_analyze(p, 0).to_json())["results"]["nontrivial_classes"]
        assert got == [slow_class_entry(ctx, n) for n in members], p


def test_orbit_all_zero_is_fixed():
    zero = ResidueGrid(F13, [0] * 9)
    assert orbit(zero) == frozenset({zero})


def test_orbit_f5_explicit_expansion():
    # independent expansion: rotate by hand-rolled index shuffles, scale by 1 and 4
    ctx = make_context(5)
    base = [[0, 1, 4], [4, 0, 1], [1, 4, 0]]

    def rot_cw(rows):
        return [
            [rows[2][0], rows[1][0], rows[0][0]],
            [rows[2][1], rows[1][1], rows[0][1]],
            [rows[2][2], rows[1][2], rows[0][2]],
        ]

    expected = set()
    rows = base
    for _ in range(4):
        for s in (1, 4):
            expected.add(tuple(v * s % 5 for row in rows for v in row))
        rows = rot_cw(rows)
    got = orbit(gen_trivial_corner(ctx))
    assert {g.vals for g in got} == expected
    assert len(got) <= 8
    assert len(got) == len(expected)


def test_orbit_members_stay_magic():
    for g in orbit(gen_nontrivial(triple_from_member(F29, 5))):
        assert is_magic_class(g) and magic_sum(g) == 0


def test_orbit_contains_own_half_turn(grid_f29):
    assert grid_f29.rotated180() in orbit(grid_f29)


def test_orbit_preconditions():
    with pytest.raises(NonzeroCenter):
        orbit(ResidueGrid(F13, [1] * 9))
    with pytest.raises(NotMagic):
        orbit(ResidueGrid(F13, [1, 0, 0, 0, 0, 0, 0, 0, 0]))


def test_count_bound_examples():
    assert count_bound(29, run_count(29)) == 28 * (4 + 2) == 168
    assert count_bound(13, run_count(13)) == 12 * (0 + 2) == 24
    assert count_bound(41, run_count(41)) == 40 * (2 + 4) == 240
    with pytest.raises(BadPrimeForm):
        count_bound(7, 0)


def test_enumerate_all_small_primes(grid_f29):
    found13 = enumerate_all(F13)
    assert found13
    assert all(classify(g) is ClassKind.TRIVIAL_CORNER for g in found13)
    assert grid_f29 in enumerate_all(F29)
    found5 = enumerate_all(make_context(5))
    assert len(found5) <= count_bound(5, run_count(5)) == 8
    assert found5 == naive_enumerate(make_context(5))


def test_enumerate_all_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_all(make_context(509))
    with pytest.raises(BoundExceeded):
        naive_enumerate(make_context(17))
    with pytest.raises(BadPrimeForm):
        enumerate_all(make_context(7))


def test_enumerate_members_are_honest():
    for p in (5, 13, 17, 29):
        ctx = make_context(p)
        for g in enumerate_all(ctx):
            assert is_magic_class(g) and magic_sum(g) == 0
            assert all(ctx.is_square(v) for v in g.vals)
            assert any(g.vals)


P_1_MOD_4_TO_100 = [p for p in primes_up_to(100) if p % 4 == 1]


def test_generated_equals_enumerated():
    for p in P_1_MOD_4_TO_100:
        ctx = make_context(p)
        assert generated_classes(ctx) == enumerate_all(ctx), p


def classes_from_sum_equations(p: int) -> int:
    """The zero-center classes mod p, counted from the sum equations alone. A
    grid with line sum 0 has opposite cells negated, so its top-left a and
    top-right c fix it; since -1 is a square, it is a class exactly when a,
    c, a+c and c-a all lie in S_p + {0}. With S_p + {0} as the bits of
    `mask`, the c for one a are the bits of mask & rot(mask, a) &
    rot(mask, -a). The all-zero grid is not counted."""
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


def test_bound_holds():
    # and holds exactly twice over: by the oracle for every prime it reaches,
    # and by the sum equations for every prime below 2000
    for p in P_1_MOD_4_TO_100:
        ctx = make_context(p)
        assert 2 * len(enumerate_all(ctx)) == count_bound(p, run_count(p)), p
    primes = [p for p in primes_up_to(2000) if p % 4 == 1]
    assert len(primes) == 147
    for p in primes:
        assert 2 * classes_from_sum_equations(p) == count_bound(p, run_count(p)), p


def test_naive_matches_reduced_oracle():
    for p in (5, 13):
        ctx = make_context(p)
        assert naive_enumerate(ctx) == enumerate_all(ctx)


def test_run_set_symmetry():
    # n in C_p iff -(n+2) in C_p, for every 1 (mod 4) prime up to 100
    from residuum.fp import primes_up_to

    for p in primes_up_to(100):
        if p % 4 != 1:
            continue
        ctx = make_context(p)
        cset = set(consecutive_triples(ctx))
        assert cset == {(-(n + 2)) % p for n in cset}


def test_trivial_classes_fixed_by_reflections():
    for p in (5, 13, 17, 29, 37, 41):
        ctx = make_context(p)
        corner = gen_trivial_corner(ctx)
        assert corner.reflected_anti_diagonal() == corner
        if p % 8 == 1:
            midedge = gen_trivial_midedge(ctx)
            assert midedge.reflected_rows() == midedge


def test_nontrivial_stabilizer_half_turn_is_w2_scaling():
    for p in (29, 37, 41):
        ctx = make_context(p)
        w2 = (p - 1) % p
        for n in consecutive_triples(ctx):
            g = gen_nontrivial(triple_from_member(ctx, n))
            assert g.rotated180() == g.scaled(w2)


def test_w_reflection_duality():
    for p in (29, 37, 41):
        ctx = make_context(p)
        w = ctx.w
        for n in consecutive_triples(ctx):
            t = triple_from_member(ctx, n)
            dual = UnitTriple(ctx, w * t.gamma % p, w * t.beta % p, w * t.alpha % p)
            assert gen_nontrivial(dual) == gen_nontrivial(t).reflected_anti_diagonal()


def test_grid_equality_is_value_wise():
    a = ResidueGrid(F13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    b = ResidueGrid(F13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    assert a == b and hash(a) == hash(b)
    assert a != ResidueGrid(make_context(17), [0, 1, 16, 16, 0, 1, 1, 16, 0])
