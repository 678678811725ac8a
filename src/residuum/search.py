"""Desk-scale exhaustive search for integer magic squares of squares.

The triple-center total fixes every opposite pair of cells to sum to twice
the squared center, and the center divisibility theory prunes center roots
outright; what remains is pair assembly plus outer-sum checks.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import ExitStack
from itertools import chain
from math import comb, gcd, isqrt

from .errors import BadParameters, BadRange
from .fp import factorize, prime_factors, two_squares
from .intgrid import IntGrid, is_magic, is_square_entried


SearchReport = namedtuple(
    "SearchReport",
    "e_range primitive_only near_miss_threshold pruned_centers candidates_tested "
    "hits near_misses",
)


def pair_decompositions(e: int) -> list[tuple[int, int]]:
    """Unordered pairs of distinct squares, both != e^2, summing to 2e^2, as
    (x^2, y^2) with x < e < y, ascending in x.

    x + yi runs over the Gaussian integers of norm 2e^2 up to units and
    conjugation (Cohen, A Course in Computational Algebraic Number Theory,
    1.5). Write e = 2^a * prod q^j * prod p^k with q = 3 and p = 1 (mod 4).
    Then (1 + i) supplies the 2, 2^a and each q^j only scale, and each p^k
    contributes pi^j * conj(pi)^(2k - j) for j = 0..2k, where p = pi*conj(pi)
    comes from `two_squares`. The prod(2k + 1) products include x = y = e
    once; the others meet every pair twice, as z and its conjugate. So a
    center costs one trial division and O(prod(2k + 1)) products.
    """
    if e < 1:
        raise ValueError(f"center root must be positive, got {e}")
    scale = 1
    zs = [(1, 1)]
    for p, k in factorize(e).items():
        if p % 4 != 1:
            scale *= p**k
            continue
        # p comes from trial division, so it is prime and two_squares exact
        a, b = two_squares(p)
        powers = [(1, 0)]
        for _ in range(2 * k):
            x, y = powers[-1]
            powers.append((a * x - b * y, a * y + b * x))
        factors = [
            (x * u + y * v, y * u - x * v)  # pi^j * conj(pi^(2k - j))
            for (x, y), (u, v) in zip(powers, reversed(powers))
        ]
        zs = [(x * u - y * v, x * v + y * u) for x, y in zs for u, v in factors]
    pairs = {(min(abs(x), abs(y)), max(abs(x), abs(y))) for x, y in zs if abs(x) != abs(y)}
    return [((scale * x) ** 2, (scale * y) ** 2) for x, y in sorted(pairs)]


def center_has_inadmissible_factor(e: int) -> bool:
    """True when some prime = 3 (mod 4) divides e.

    Such a center root is impossible for a primitive hit; reducible hits
    reappear at the reduced center root, so pruning these e loses nothing.
    """
    return any(q % 4 == 3 for q in prime_factors(e))


def _assemble(m: int, offsets, threshold: int):
    """Every grid of the pairs m - u, m + u (u in offsets) around center m
    with at least `threshold` of its 8 lines summing to 3m, listed once.

    A layout puts signed offsets da, db, dc, dd at the top-left, top-middle,
    top-right and middle-left cells, and their negatives opposite. The four
    center lines sum to 3m by construction. The top row does exactly when
    db = -(da + dc), and so does the bottom row; the left column does exactly
    when dd = dc - da, and so does the right one. So a layout has 4, 6 or 8
    correct lines. Above threshold 4, dd is taken from its equation whenever
    db misses its own; above threshold 6, both are.

    Offsets must be distinct and positive, so the nine cells are distinct and
    the 8 symmetries of the square act freely on the 384 layouts of each
    4-subset. Only the lexicographically smallest layout of each class is
    visited: m + da is the smallest corner (da < 0 and |dc| < -da) and
    db < dd. Returns (candidates, hits, near_misses): the number of layouts
    up to symmetry, and the emitted grids as sorted cell tuples.
    """
    lengths = set(offsets)
    signed = [s * u for u in offsets for s in (1, -1)]
    hits = []
    nears = []
    for da in (-u for u in offsets):
        for dc in signed:
            if abs(dc) >= -da:
                continue
            row_fix = -(da + dc)
            col_fix = dc - da
            for db in signed if threshold <= 6 else (row_fix,):
                if abs(db) not in lengths or abs(db) in (-da, abs(dc)):
                    continue
                for dd in signed if 4 + 2 * (db == row_fix) >= threshold else (col_fix,):
                    if dd <= db or abs(dd) not in lengths or abs(dd) in (-da, abs(db), abs(dc)):
                        continue
                    correct = 4 + 2 * (db == row_fix) + 2 * (dd == col_fix)
                    if correct < threshold:
                        continue
                    cells = (m + da, m + db, m + dc, m + dd, m, m - dd, m - dc, m - db, m - da)
                    assert len(set(cells)) == 9
                    (hits if correct == 8 else nears).append(cells)
    return 48 * comb(len(offsets), 4), tuple(sorted(hits)), tuple(sorted(nears))


def _scan_center(task: tuple[int, bool, int]):
    """Assemble and test all candidate grids for one center root.

    Returns (e, pruned, candidates, hit_cells, near_cells); see `_assemble`.
    """
    e, primitive_only, threshold = task
    if primitive_only and center_has_inadmissible_factor(e):
        return (e, True, 0, (), ())
    m = e * e
    offsets = [m - lo for lo, _ in pair_decompositions(e)]
    candidates, hits, nears = _assemble(m, offsets, threshold)
    for cells in hits:
        grid = IntGrid(cells)
        assert is_magic(grid) == 3 * m and is_square_entried(grid)
    return (e, False, candidates, hits, nears)


def _scan_block(task: tuple[range, bool, int]) -> list:
    """`_scan_center` over a contiguous block of center roots."""
    block, primitive_only, threshold = task
    return [_scan_center((e, primitive_only, threshold)) for e in block]


def search_msos(
    e_min: int,
    e_max: int,
    primitive_only: bool = True,
    *,
    near_miss_threshold: int = 7,
    workers: int = 1,
) -> SearchReport:
    """Scan center roots e in [e_min, e_max] for magic squares of squares.

    Centers are independent work units; results are merged in ascending e
    order, so the report is identical for any worker count.
    """
    if e_min < 1 or e_min > e_max:
        raise BadRange(f"need 1 <= e_min <= e_max, got [{e_min}, {e_max}]")
    if not 0 <= near_miss_threshold <= 8:
        raise BadParameters(
            f"near-miss threshold counts lines of 8, so it must be in [0, 8], "
            f"got {near_miss_threshold}"
        )
    centers = range(e_min, e_max + 1)
    # most centers cost microseconds, so each task is a block of centers:
    # 16 blocks a worker keep the load balanced, and the parent holds only
    # ranges, not one task per center
    size = max(8, len(centers) // (16 * workers))
    blocks = (
        (centers[i : i + size], primitive_only, near_miss_threshold)
        for i in range(0, len(centers), size)
    )
    pruned = candidates = 0
    hits = []
    nears = []
    with ExitStack() as stack:
        mapper = map
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for _, was_pruned, count, hit_cells, near_cells in chain.from_iterable(
            mapper(_scan_block, blocks)
        ):
            pruned += was_pruned
            candidates += count
            hits.extend(IntGrid(c) for c in hit_cells)
            nears.extend(IntGrid(c) for c in near_cells)
    return SearchReport(
        e_range=(e_min, e_max),
        primitive_only=primitive_only,
        near_miss_threshold=near_miss_threshold,
        pruned_centers=pruned,
        candidates_tested=candidates,
        hits=tuple(hits),
        near_misses=tuple(nears),
    )


def naive_center_enumeration(e: int) -> set[IntGrid]:
    """Independent oracle: every magic grid of nine distinct squares with
    center e^2 and entries bounded by 3e^2, by direct enumeration.

    Three corner-ish cells range freely; the rest follow from the eight sum
    equations alone, with no structural shortcuts. Used to validate search
    completeness for small e.
    """
    if e < 1:
        raise ValueError(f"center root must be positive, got {e}")
    limit = 3 * e * e
    squares = [k * k for k in range(isqrt(limit) + 1)]
    in_range = set(squares)
    c2 = e * e
    out = set()
    for a in squares:
        for b in squares:
            for i in squares:
                t = a + c2 + i          # main diagonal fixes the total
                c = t - a - b           # top row
                if c < 0 or c not in in_range:
                    continue
                g = t - c - c2          # anti-diagonal
                if g < 0 or g not in in_range:
                    continue
                d = t - a - g           # left column
                if d < 0 or d not in in_range:
                    continue
                f = t - d - c2          # middle row
                if f < 0 or f not in in_range:
                    continue
                h = t - b - c2          # middle column
                if h < 0 or h not in in_range:
                    continue
                if g + h + i != t or c + f + i != t:
                    continue
                cells = (a, b, c, d, c2, f, g, h, i)
                if len(set(cells)) == 9:
                    out.add(IntGrid(cells))
    return out


def primitive_subset(grids) -> set[IntGrid]:
    """The grids whose cells have gcd 1."""
    return {g for g in grids if gcd(*g.cells) == 1}
