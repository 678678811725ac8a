import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from residuum import intgrid
from residuum.errors import ResiduumError, UsageError
from residuum.fp import MAX_CENTER_ROOT
from residuum.grid_ops import rows_of
from residuum.intgrid import (
    ADMISSIBLE,
    INADMISSIBLE,
    PARITY_PATTERNS,
    IntGrid,
    admissible_center_check,
    factorize,
    is_distinct,
    is_magic,
    is_square_entried,
    mod2_classify,
    reduce_primitive,
)
from residuum.residue import ResidueGrid, is_magic_class, magic_sum

from oracles import has_even_center_line, klein_group_table, parametric_magic

LOSHU = IntGrid((4, 9, 2, 3, 5, 7, 8, 1, 6))
SQUARES = IntGrid((1, 4, 9, 16, 25, 36, 49, 64, 81))


def test_is_magic_examples():
    assert is_magic(LOSHU) == 15
    assert is_magic(IntGrid((1,) * 9)) == 3
    assert is_magic(IntGrid((1, 2, 3, 4, 5, 6, 7, 8, 9))) is None
    assert is_magic(SQUARES) is None


def test_is_square_entried():
    assert is_square_entried(SQUARES)
    assert not is_square_entried(LOSHU)
    assert is_square_entried(IntGrid((0,) * 9))


def test_is_distinct():
    assert is_distinct(SQUARES)
    assert not is_distinct(IntGrid((1,) * 9))


def test_reduce_primitive():
    scaled = IntGrid(tuple(4 * v for v in SQUARES.cells))
    assert reduce_primitive(scaled) == SQUARES
    assert reduce_primitive(SQUARES) == SQUARES
    scaled36 = IntGrid(tuple(36 * v for v in SQUARES.cells))
    assert reduce_primitive(scaled36) == SQUARES
    with pytest.raises(ResiduumError, match="all-zero grid"):
        reduce_primitive(IntGrid((0,) * 9))


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 50), seed=st.integers(0, 2**30))
def test_reduce_primitive_idempotent(k, seed):
    rng = random.Random(seed)
    cells = tuple(k * rng.randrange(0, 100) for _ in range(9))
    if not any(cells):
        return
    reduced = reduce_primitive(IntGrid(cells))
    assert reduce_primitive(reduced) == reduced
    g = 0
    for v in reduced.cells:
        g = __import__("math").gcd(g, v)
    assert g == 1


def test_factorize():
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_admissible_center_check_examples():
    assert admissible_center_check(21).verdicts == ((3, INADMISSIBLE), (7, INADMISSIBLE))
    assert admissible_center_check(65).verdicts == ((5, ADMISSIBLE), (13, ADMISSIBLE))
    assert admissible_center_check(1).verdicts == ()
    assert admissible_center_check(10).verdicts == ((2, ADMISSIBLE), (5, ADMISSIBLE))


def test_center_warning_holds_exactly_below_the_least_sum_of_nine_squares():
    # the nine cells of a magic grid with center e^2 sum to 9e^2, and nine
    # distinct squares sum to at least the nine least squares
    least = sum(k * k for k in range(9))
    assert least == 204
    warned = [e for e in range(1, 50) if admissible_center_check(e).warning is not None]
    assert warned == [e for e in range(1, 50) if 9 * e * e < least] == [1, 2, 3, 4]


def test_admissible_center_check_refuses_above_the_factoring_ceiling(monkeypatch):
    assert admissible_center_check(MAX_CENTER_ROOT).verdicts == ((2, ADMISSIBLE), (5, ADMISSIBLE))

    def factored(e):
        raise AssertionError(f"factoring of {e} began")

    # refused before any factoring, with the ceiling's message: 2**89 - 1 is
    # a prime past psi_13, which is_prime would refuse with its own
    monkeypatch.setattr(intgrid, "factorize", factored)
    for e in (MAX_CENTER_ROOT + 1, 2**89 - 1):
        with pytest.raises(UsageError, match="factoring ceiling"):
            admissible_center_check(e)


def test_residue_class_examples():
    assert rows_of(ResidueGrid(5, SQUARES.cells).vals) == [[1, 4, 4], [1, 0, 1], [4, 4, 1]]
    assert set(ResidueGrid(2, SQUARES.cells).vals) <= {0, 1}


def test_residue_class_of_magic_grid_is_magic_mod_center_prime():
    # scaled three-square progressions give square-entried magic grids
    from residuum.congrua import congruum_triple

    for m, n in ((2, 1), (3, 2), (5, 4)):
        prog = congruum_triple(m, n)
        for k in (1, 2, 3):
            grid = IntGrid(
                tuple(
                    k * k * v
                    for v in parametric_magic(prog.y ** 2, 0, prog.d).cells
                )
            )
            assert is_magic(grid) is not None
            assert is_square_entried(grid)
            for q in factorize(prog.y * k):
                if q % 4 != 1:
                    continue
                rg = ResidueGrid(q, grid.cells)
                assert is_magic_class(rg) and magic_sum(rg) == 0


def test_mod2_classify_examples():
    assert mod2_classify(parametric_magic(100, 0, 24)) == 0  # all cells even
    assert mod2_classify(IntGrid((0,) * 9)) == 0
    with pytest.raises(ResiduumError, match="^center 5 is odd$"):
        mod2_classify(LOSHU)
    with pytest.raises(ResiduumError, match="is not one of the four patterns"):
        mod2_classify(IntGrid((1, 0, 0, 0, 0, 0, 0, 0, 0)))


def test_mod2_patterns_match_cases():
    assert PARITY_PATTERNS[1] == (1, 1, 0, 1, 0, 1, 0, 1, 1)
    # even center, odd row offset, even column offset lands on that pattern
    grid = parametric_magic(10, 1, 2)
    assert is_magic(grid) == 30
    assert mod2_classify(grid) == 1


def test_mod2_classify_on_every_even_center_parity_grid():
    # all 256 grids of 0/1 cells with an even center: the four patterns give
    # their own index, and every other grid is refused
    indices = {}
    for n in range(512):
        bits = tuple(n >> i & 1 for i in range(9))
        if bits[4]:
            continue
        try:
            indices[bits] = mod2_classify(IntGrid(bits))
        except ResiduumError:
            pass
    assert indices == {bits: i for i, bits in enumerate(PARITY_PATTERNS)}


@settings(max_examples=500, deadline=None)
@given(center=st.integers(0, 10**6), s=st.integers(-1000, 1000), t=st.integers(-1000, 1000))
def test_parametric_magic_total_is_triple_center(center, s, t):
    if center < abs(s) + abs(t):
        return
    g = parametric_magic(center, s, t)
    assert is_magic(g) == 3 * center


@settings(max_examples=500, deadline=None)
@given(center=st.integers(0, 10**6), s=st.integers(-1000, 1000), t=st.integers(-1000, 1000))
def test_magic_even_center_grids_always_hit_a_pattern(center, s, t):
    if center % 2 or center < abs(s) + abs(t):
        return
    index = mod2_classify(parametric_magic(center, s, t))
    assert index in (0, 1, 2, 3)
    assert has_even_center_line(PARITY_PATTERNS[index])


def test_klein_group_table():
    table = klein_group_table()  # closure: an XOR that is no pattern raises
    assert table == tuple(zip(*table))  # commutative
    for i in range(4):
        assert table[i][i] == 0  # self-inverse
        assert table[0][i] == i  # identity
    assert table[1][2] == 3
    assert table[1][3] == 2
    assert table[2][3] == 1


def test_has_even_center_line_for_all_patterns():
    for bits in PARITY_PATTERNS:
        assert has_even_center_line(bits)
    assert not has_even_center_line((1, 1, 1, 1, 0, 1, 1, 1, 1))


def test_intgrid_validation():
    with pytest.raises(UsageError, match="exactly 9 cells"):
        IntGrid((1, 2, 3))
    with pytest.raises(UsageError, match="nonnegative integers"):
        IntGrid((-1, 0, 0, 0, 0, 0, 0, 0, 0))
