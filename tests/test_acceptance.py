"""End-to-end acceptance suite.

One test per criterion, each asserting its stated tolerance (exact values
throughout, plus wall-clock ceilings where required) and printing a PASS
line on success. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from itertools import compress

import pytest

from residuum.cli import main
from residuum.congrua import (
    construct,
    construct_mod20,
    construct_mod24,
    coverage_status,
)
from residuum.errors import NotCovered
from residuum.fp import make_context, primes_up_to
from residuum.intgrid import PARITY_PATTERNS, IntGrid, is_magic
from residuum.residue import (
    ResidueGrid,
    consecutive_triples,
    count_bound,
    enumerate_all,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    magic_sum,
    run_count,
    triple_from_member,
)
from residuum.search import _assemble, search_msos

from oracles import (
    ANTI_TRANSPOSE,
    DIHEDRAL,
    FLIP_ROWS,
    ROT180,
    generated_classes,
    has_even_center_line,
    klein_group_table,
    naive_center_enumeration,
    naive_magic_grids,
    naive_enumerate,
    parametric_magic,
    permute,
)

EXPECTED_QR_SETS = {
    5: (1, 4),
    13: (1, 3, 4, 9, 10, 12),
    17: (1, 2, 4, 8, 9, 13, 15, 16),
    29: (1, 4, 5, 6, 7, 9, 13, 16, 20, 22, 23, 24, 25, 28),
    37: (1, 3, 4, 7, 9, 10, 11, 12, 16, 21, 25, 26, 27, 28, 30, 33, 34, 36),
}

EXPECTED_RUN_SETS = {
    5: (),
    13: (),
    17: (),
    29: (4, 5, 22, 23),
    37: (9, 10, 25, 26),
    41: (8, 31),
}

EXPECTED_UNCOVERED = [113, 137, 157, 233, 257, 277, 353, 373, 397]


def _ok(num: int, label: str) -> None:
    print(f"PASS criterion {num:02d}: {label}")


def test_criterion_01_qr_set_regression():
    start = time.perf_counter()
    for p, expected in EXPECTED_QR_SETS.items():
        assert tuple(compress(range(p), make_context(p))) == expected, p
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(1, f"quadratic residue sets for p in 5..37 match exactly ({elapsed:.3f}s)")


def test_criterion_02_run_set_regression():
    start = time.perf_counter()
    for p, expected in EXPECTED_RUN_SETS.items():
        got = consecutive_triples(p)
        assert got == expected, p
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok(2, f"consecutive-run sets for p in 5..41 match exactly ({elapsed:.3f}s)")


def test_criterion_03_f29_nontrivial_grid():
    grid = gen_nontrivial(triple_from_member(29, 5))
    w = make_context(29)[28]  # the smaller root of -1
    expected = [v % 29 for v in (9**2, 11**2, 1**2, 6**2, 0, 14**2, w**2, 16**2, 8**2)]
    assert list(grid.vals) == expected
    assert magic_sum(grid) == 0
    _ok(3, "the F_29 nontrivial class reproduces the squared-entry grid, magic sum 0")


def test_criterion_04_bound_and_generated_equal_oracle():
    start = time.perf_counter()
    for p in (5, 13, 17, 29, 37, 41):
        oracle = enumerate_all(p)
        assert len(oracle) <= count_bound(p, run_count(p)), p
        assert generated_classes(p) == oracle, p
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(4, f"oracle counts within bound and orbits equal the oracle ({elapsed:.2f}s)")


def test_criterion_05_naive_oracle_cross_validation():
    start = time.perf_counter()
    for p in (5, 13):
        assert naive_enumerate(p) == enumerate_all(p), p
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(5, f"8-cell naive enumeration equals the 4-cell oracle for p=5,13 ({elapsed:.2f}s)")


def test_criterion_06_worked_example_f61(capsys):
    code = main(["construct", "61", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    r = json.loads(out)["results"]
    chain = r["chain"]
    assert chain["x_sq_mod_p"] == 22
    assert chain["y_sq_mod_p"] == 34
    assert chain["z_sq_mod_p"] == 46
    assert chain["d_mod_p"] == 49 and chain["d_root"] == 7
    assert chain["root_inverse"] == 35
    assert r["triple"]["squares"] == [49, 48, 47]
    root = make_context(61)
    assert all(root[v] for v in (47, 48, 49))
    assert 47 in consecutive_triples(61)
    _ok(6, "construct 61 shows 22/34/46, root 7, inverse 35, squares (49,48,47)")


def test_criterion_07_construction_sweep_to_500():
    start = time.perf_counter()
    checked = 0
    for p in primes_up_to(500):
        if p % 4 != 1:
            continue
        runs = set(consecutive_triples(p))
        if p == 41:
            # 41 divides 41, the middle term of (49, 41, 31); construct
            # serves it from its first run
            with pytest.raises(NotCovered, match="^41 divides a term of"):
                construct_mod20(p)
            assert construct(p)[2].squares()[2] in runs, p
            checked += 1
        elif p % 20 in (1, 9):
            assert construct_mod20(p).squares()[2] in runs, p
            checked += 1
        if p % 24 in (1, 5) and p != 5:
            assert construct_mod24(p).squares()[2] in runs, p
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 0
    assert elapsed < 5.0
    _ok(7, f"{checked} constructions up to 500 all landed in their run sets ({elapsed:.2f}s)")


def test_criterion_08_uncovered_primes_list():
    uncovered = [
        p
        for p in primes_up_to(499)
        if p % 4 == 1
        and p > 17
        and coverage_status(p) == "uncovered_but_nonempty"
    ]
    assert uncovered == EXPECTED_UNCOVERED
    for p in uncovered:
        assert consecutive_triples(p), p
    _ok(8, "uncovered primes below 500 are exactly the expected nine, all with runs")


def test_criterion_09_klein_four_group():
    table = klein_group_table()  # closure: an XOR that is no pattern raises
    assert {entry for row in table for entry in row} == set(range(len(PARITY_PATTERNS)))
    for i, bits in enumerate(PARITY_PATTERNS):
        assert table[i][i] == 0  # self-inverse
        assert table[0][i] == i and table[i][0] == i  # identity
        assert has_even_center_line(bits)
    _ok(9, "the four parity patterns form a Klein four-group with an even center line")


def test_criterion_10_property_suites():
    # total = 3 * center on 10^4 generated magic grids
    rng = random.Random(1730)
    for _ in range(10_000):
        s = rng.randrange(-10**6, 10**6)
        t = rng.randrange(-10**6, 10**6)
        center = abs(s) + abs(t) + rng.randrange(0, 10**6)
        grid = parametric_magic(center, s, t)
        assert is_magic(grid) == 3 * center

    # reflection fixing and the half-turn stabilizer for every generated class
    for p in primes_up_to(100):
        if p % 4 != 1:
            continue
        corner = gen_trivial_corner(p)
        assert ResidueGrid(p, permute(corner.vals, ANTI_TRANSPOSE)) == corner
        if p % 8 == 1:
            midedge = gen_trivial_midedge(p)
            assert ResidueGrid(p, permute(midedge.vals, FLIP_ROWS)) == midedge
        for n in consecutive_triples(p):
            g = gen_nontrivial(triple_from_member(p, n))
            half_turn = ResidueGrid(p, permute(g.vals, ROT180))
            assert half_turn == ResidueGrid(p, [v * (p - 1) for v in g.vals])  # w^2 = -1

    # run-set symmetry n <-> -(n+2) for every 1 (mod 4) prime up to 500
    for p in primes_up_to(500):
        if p % 4 != 1:
            continue
        cset = set(consecutive_triples(p))
        assert cset == {(-(n + 2)) % p for n in cset}
    _ok(10, "triple-center total, reflection/stabilizer and run symmetry suites hold")


def test_criterion_11_search_is_hit_free():
    start = time.perf_counter()
    report = search_msos(1, 200, primitive_only=True)
    assert report.hits == () and report.candidates_tested > 0
    # both sides are empty up to 15, so a positive control: the Lo Shu
    _, hits, _ = _assemble(5, [1, 2, 3, 4], 8)
    lo_shu = {IntGrid(permute(cells, s)) for cells in hits for s in DIHEDRAL}
    assert naive_magic_grids(5, range(1, 10)) == lo_shu and len(lo_shu) == 8
    for e in range(1, 16):
        naive = naive_center_enumeration(e)
        assembled = set(search_msos(e, e, primitive_only=False).hits)
        assert assembled == naive, e
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _ok(11, f"search over e in [1,200] found no hits; completeness holds to e=15 ({elapsed:.2f}s)")
