import json
from array import array

import pytest

from residuum import residue
from residuum.cli import run_analyze
from residuum.errors import ResiduumError, UsageError
from residuum.fp import legendre, make_context, primes_up_to
from residuum.grid_ops import rows_of
from residuum.residue import (
    ResidueGrid,
    UnitTriple,
    classes_from_sum_equations,
    classify,
    consecutive_triples,
    count_bound,
    enumerate_all,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    magic_sum,
    nontrivial_fields,
    run_count,
    triple_from_member,
)

from oracles import (
    ANTI_TRANSPOSE,
    FLIP_ROWS,
    ROT180,
    generated_classes,
    naive_enumerate,
    orbit,
    permute,
)


@pytest.fixture
def grid_f29():
    # reduce the squared entries 9^2 11^2 1^2 / 6^2 0 14^2 / w^2 16^2 8^2 mod 29
    w = make_context(29)[28]  # the smaller root of -1
    cells = [9**2, 11**2, 1**2, 6**2, 0, 14**2, w**2, 16**2, 8**2]
    return ResidueGrid(29, [v % 29 for v in cells])


def test_f29_grid_values(grid_f29):
    assert rows_of(grid_f29.vals) == [[23, 5, 1], [7, 0, 22], [28, 24, 6]]


def test_magic_sum_examples(grid_f29):
    assert magic_sum(grid_f29) == 0
    zero = ResidueGrid(13, [0] * 9)
    assert magic_sum(zero) == 0
    assert magic_sum(ResidueGrid(13, [1] * 9)) == 3
    bad = ResidueGrid(13, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert magic_sum(bad) is None


def test_cells_must_be_squares():
    with pytest.raises(ResiduumError, match="^2 is not a square mod 13$"):
        ResidueGrid(13, [2, 0, 0, 0, 0, 0, 0, 0, 0])  # 2 is not a square mod 13
    with pytest.raises(ResiduumError, match="^5 is not a square mod 13$"):
        ResidueGrid(13, [0, 0, 0, 0, 0, 0, 0, 0, -8])  # reduced before the check
    with pytest.raises(UsageError, match="exactly 9 cells"):
        ResidueGrid(13, [0] * 8)


def test_modulus_must_be_prime():
    # Euler's criterion reads nothing but p, so p is proven prime first
    with pytest.raises(UsageError, match="^15 is not prime$"):
        ResidueGrid(15, [0] * 9)


def test_classify_examples(grid_f29):
    assert classify(grid_f29) == "nontrivial"
    corner = ResidueGrid(13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    assert classify(corner) == "trivial_corner"
    assert classify(ResidueGrid(13, [0] * 9)) == "all_zero"


def test_classify_preconditions():
    with pytest.raises(ResiduumError, match="magic grids only"):
        classify(ResidueGrid(13, [1, 0, 0, 0, 0, 0, 0, 0, 0]))
    # magic but center nonzero: constant grid of a square
    with pytest.raises(ResiduumError, match="zero-center grids only"):
        classify(ResidueGrid(13, [1] * 9))


def test_gen_trivial_corner():
    assert rows_of(gen_trivial_corner(13).vals) == [[0, 1, 12], [12, 0, 1], [1, 12, 0]]
    assert rows_of(gen_trivial_corner(5).vals) == [[0, 1, 4], [4, 0, 1], [1, 4, 0]]
    with pytest.raises(UsageError, match=r"^corner-zero classes need p = 1 \(mod 4\)"):
        gen_trivial_corner(7)
    g = gen_trivial_corner(29)
    assert magic_sum(g) == 0 and classify(g) == "trivial_corner"


def test_gen_trivial_midedge():
    assert rows_of(gen_trivial_midedge(17).vals) == [[1, 0, 16], [15, 0, 2], [1, 0, 16]]
    assert rows_of(gen_trivial_midedge(41).vals) == [[1, 0, 40], [39, 0, 2], [1, 0, 40]]
    with pytest.raises(UsageError, match="2 is a non-residue for p = 5 mod 8"):
        gen_trivial_midedge(13)  # 13 = 5 (mod 8)
    with pytest.raises(UsageError, match=r"need p = 1 \(mod 8\), got 7$"):
        gen_trivial_midedge(7)
    g = gen_trivial_midedge(17)
    assert magic_sum(g) == 0 and classify(g) == "trivial_midedge"


def test_consecutive_triples_examples():
    assert consecutive_triples(29) == (4, 5, 22, 23)
    assert consecutive_triples(17) == ()
    assert consecutive_triples(41) == (8, 31)
    # explicitly including p = 13, whose run set is empty like 2, 5 and 17
    for p in (2, 5, 13, 17):
        assert consecutive_triples(p) == ()
    assert consecutive_triples(37) == (9, 10, 25, 26)


def test_a_write_to_a_cached_table_raises_and_changes_no_answer():
    root = make_context(29)
    try:
        with pytest.raises(TypeError):
            root[5] = 0
        assert consecutive_triples(29) == (4, 5, 22, 23)
        assert make_context(29) is root and root[5] == 11
    finally:
        make_context.cache_clear()  # so a table that took the write is not read again


def test_consecutive_triples_match_the_definition():
    # three nonzero residues in a row by Euler's criterion, without the table
    assert consecutive_triples(3) == ()
    for p in primes_up_to(1000)[2:]:
        expected = tuple(
            n for n in range(1, p) if all(legendre(n + i, p) == 1 for i in range(3))
        )
        assert consecutive_triples(p) == expected, p


def test_triple_from_member():
    t = triple_from_member(29, 5)
    assert t.squares() == (7, 6, 5)
    t = triple_from_member(29, 4)
    assert t.squares() == (6, 5, 4)
    with pytest.raises(ResiduumError, match="^1 does not start a consecutive residue run mod 29$"):
        triple_from_member(29, 1)  # 2 is not a residue mod 29


def test_triple_roots_are_canonical():
    t = triple_from_member(29, 5)
    for x in (t.alpha, t.beta, t.gamma):
        assert 0 < x <= 29 - x


def test_unit_triple_invariants_enforced():
    p = 29
    with pytest.raises(UsageError, match="must differ by exactly 1"):
        UnitTriple(p, 1, 1, 1)
    with pytest.raises(UsageError, match="must lie in"):
        UnitTriple(p, 6, 8, 0)
    t = triple_from_member(29, 5)
    assert UnitTriple(p, t.alpha, t.beta, t.gamma) == t
    # members outside [1, p-1] are refused, even where the relations hold mod p
    for out_of_range in (0, 29):
        with pytest.raises(UsageError, match="must lie in"):
            UnitTriple(p, t.alpha, t.beta, out_of_range)
    with pytest.raises(UsageError, match="must lie in"):
        UnitTriple(p, t.alpha + 29, t.beta, t.gamma)


def test_unit_triple_modulus_must_be_prime():
    # the triple holds p alone, so p is proven prime first, as in ResidueGrid
    with pytest.raises(UsageError, match="^15 is not prime$"):
        UnitTriple(15, 1, 1, 1)


def test_gen_nontrivial_needs_an_order_4_element():
    # 3, 4, 5 are consecutive residues mod 11, but -1 is not a square
    t = triple_from_member(11, 3)
    assert t.squares() == (5, 4, 3)
    with pytest.raises(UsageError, match="^no order-4 element mod 11"):
        gen_nontrivial(t)
    with pytest.raises(UsageError, match="^no order-4 element mod 11"):
        next(nontrivial_fields(11))


def test_gen_nontrivial_f29(grid_f29):
    t = triple_from_member(29, 5)
    assert gen_nontrivial(t) == grid_f29
    g4 = gen_nontrivial(triple_from_member(29, 4))
    assert g4.vals[1] == 4  # cell (0,1) is gamma^2 = n
    g37 = gen_nontrivial(triple_from_member(37, 9))
    assert magic_sum(g37) == 0
    assert classify(g37) == "nontrivial"


def slow_class_entry(p, root, n):
    """One nontrivial_classes entry of analyze mod p, independent of the
    context's root table: `root` maps each square mod p to its smaller root,
    residuosity is Euler's criterion, and the w*b products are ints mod p."""

    def sqrt_checked(v):
        assert legendre(v, p) == 1
        return root[v % p]

    w = sqrt_checked(-1)
    a, b, g = sqrt_checked(n + 2), sqrt_checked(n + 1), sqrt_checked(n)
    cells = [
        (w * b) ** 2, g * g, 1,
        a * a, 0, (w * a) ** 2,
        w * w, (w * g) ** 2, b * b,
    ]
    vals = [c % p for c in cells]
    roots = [root[v] for v in vals]
    rows = [vals[0:3], vals[3:6], vals[6:9]]
    return {"member": n, "grid": {"cells": rows, "roots": [roots[0:3], roots[3:6], roots[6:9]]}}


def test_analyze_classes_match_the_field_element_path():
    for p in primes_up_to(2000):
        if p % 4 != 1:
            continue
        # the smaller root by definition: x*x for x = 0..p//2 meets each
        # square once
        root = {x * x % p: x for x in range(p // 2 + 1)}
        members = [
            n for n in range(1, p - 2)
            if all(legendre(n + i, p) == 1 for i in range(3))
        ]
        got = json.loads(run_analyze(p, 0).to_json())["results"]["nontrivial_classes"]
        assert got == [slow_class_entry(p, root, n) for n in members], p


def test_orbit_all_zero_is_fixed():
    zero = ResidueGrid(13, [0] * 9)
    assert orbit(zero) == frozenset({zero})


def test_orbit_f5_explicit_expansion():
    # independent expansion: rotate by hand-rolled index shuffles, scale by 1 and 4
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
    got = orbit(gen_trivial_corner(5))
    assert {g.vals for g in got} == expected
    assert len(got) <= 8
    assert len(got) == len(expected)


def test_orbit_members_stay_magic():
    for g in orbit(gen_nontrivial(triple_from_member(29, 5))):
        assert magic_sum(g) == 0


def test_orbit_contains_own_half_turn(grid_f29):
    assert ResidueGrid(29, permute(grid_f29.vals, ROT180)) in orbit(grid_f29)


def test_orbit_preconditions():
    with pytest.raises(ResiduumError, match="zero-center grids"):
        orbit(ResidueGrid(13, [1] * 9))
    with pytest.raises(ResiduumError, match="magic grids"):
        orbit(ResidueGrid(13, [1, 0, 0, 0, 0, 0, 0, 0, 0]))


def test_count_bound_examples():
    assert count_bound(29, run_count(29)) == 28 * (4 + 2) == 168
    assert count_bound(13, run_count(13)) == 12 * (0 + 2) == 24
    assert count_bound(41, run_count(41)) == 40 * (2 + 4) == 240
    with pytest.raises(UsageError, match=r"^the class count bound needs p = 1 \(mod 4\)"):
        count_bound(7, 0)


def test_enumerate_all_small_primes(grid_f29):
    found13 = enumerate_all(13)
    assert found13
    assert all(classify(g) == "trivial_corner" for g in found13)
    assert grid_f29 in enumerate_all(29)
    found5 = enumerate_all(5)
    assert len(found5) <= count_bound(5, run_count(5)) == 8
    assert found5 == naive_enumerate(5)


def test_enumerate_all_bounds():
    with pytest.raises(UsageError, match="exceeds the enumeration bound"):
        enumerate_all(509)
    with pytest.raises(UsageError, match="exceeds the naive enumeration bound"):
        naive_enumerate(17)
    with pytest.raises(UsageError, match=r"^zero-center enumeration needs p = 1 \(mod 4\)"):
        enumerate_all(7)
    with pytest.raises(UsageError, match="exceeds the count bound"):
        classes_from_sum_equations(100049)
    with pytest.raises(UsageError, match=r"^the zero-center class count needs p = 1 \(mod 4\)"):
        classes_from_sum_equations(7)


def test_enumerate_members_are_honest():
    for p in (5, 13, 17, 29):
        root = make_context(p)
        for g in enumerate_all(p):
            assert magic_sum(g) == 0
            assert all(v == 0 or root[v] for v in g.vals)
            assert any(g.vals)


P_1_MOD_4_TO_100 = [p for p in primes_up_to(100) if p % 4 == 1]


def test_generated_equals_enumerated():
    for p in P_1_MOD_4_TO_100:
        assert generated_classes(p) == enumerate_all(p), p


def test_sum_equation_count_equals_the_enumeration():
    primes = [p for p in primes_up_to(200) if p % 4 == 1]
    assert len(primes) == 21
    for p in primes:
        assert classes_from_sum_equations(p) == len(enumerate_all(p)), p


def test_bound_holds():
    # and holds exactly twice over: by the oracle for every prime it reaches,
    # and by the sum equations for every prime below 2000
    for p in P_1_MOD_4_TO_100:
        assert 2 * len(enumerate_all(p)) == count_bound(p, run_count(p)), p
    primes = [p for p in primes_up_to(2000) if p % 4 == 1]
    assert len(primes) == 147
    for p in primes:
        assert 2 * classes_from_sum_equations(p) == count_bound(p, run_count(p)), p


def test_nontrivial_fields_equal_the_generated_grids():
    # for every run of every p = 1 (mod 4) below 5000
    primes = [p for p in primes_up_to(5000) if p % 4 == 1]
    classes = 0
    for p in primes:
        root = make_context(p)
        expected = []
        for n in consecutive_triples(p):
            g = gen_nontrivial(triple_from_member(p, n))
            expected.append((*g.vals, *[root[v] for v in g.vals], n))
        assert list(nontrivial_fields(p)) == expected, p
        classes += len(expected)
    assert classes == 95362


def test_nontrivial_fields_check_every_root(monkeypatch):
    # a table that has lost the root of -(4+1), -(4+2) or -4 mod 29, so that
    # the class from n = 4, the first run, has a cell that is not a square
    for cell in (24, 23, 25):
        damaged = array("I", make_context(29))
        damaged[cell] = 0
        monkeypatch.setattr(residue, "make_context", lambda p: damaged)
        with pytest.raises(ResiduumError, match="from n = 4 "):
            list(nontrivial_fields(29))


def test_naive_matches_reduced_oracle():
    for p in (5, 13):
        assert naive_enumerate(p) == enumerate_all(p)


def test_run_set_symmetry():
    # n in C_p iff -(n+2) in C_p, for every 1 (mod 4) prime up to 100
    from residuum.fp import primes_up_to

    for p in primes_up_to(100):
        if p % 4 != 1:
            continue
        cset = set(consecutive_triples(p))
        assert cset == {(-(n + 2)) % p for n in cset}


def test_trivial_classes_fixed_by_reflections():
    for p in (5, 13, 17, 29, 37, 41):
        corner = gen_trivial_corner(p)
        assert ResidueGrid(p, permute(corner.vals, ANTI_TRANSPOSE)) == corner
        if p % 8 == 1:
            midedge = gen_trivial_midedge(p)
            assert ResidueGrid(p, permute(midedge.vals, FLIP_ROWS)) == midedge


def test_nontrivial_stabilizer_half_turn_is_w2_scaling():
    for p in (29, 37, 41):
        w2 = (p - 1) % p
        for n in consecutive_triples(p):
            g = gen_nontrivial(triple_from_member(p, n))
            half_turn = ResidueGrid(p, permute(g.vals, ROT180))
            assert half_turn == ResidueGrid(p, [v * w2 for v in g.vals])


def test_w_reflection_duality():
    for p in (29, 37, 41):
        w = make_context(p)[p - 1]  # the smaller root of -1
        for n in consecutive_triples(p):
            t = triple_from_member(p, n)
            dual = UnitTriple(p, w * t.gamma % p, w * t.beta % p, w * t.alpha % p)
            reflected = ResidueGrid(p, permute(gen_nontrivial(t).vals, ANTI_TRANSPOSE))
            assert gen_nontrivial(dual) == reflected


def test_grid_equality_is_value_wise():
    a = ResidueGrid(13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    b = ResidueGrid(13, [0, 1, 12, 12, 0, 1, 1, 12, 0])
    assert a == b and hash(a) == hash(b)
    assert a != ResidueGrid(17, [0, 1, 16, 16, 0, 1, 1, 16, 0])
