"""Desk-scale exhaustive search for integer magic squares of squares.

The triple-center total fixes every opposite pair of cells to sum to twice
the squared center, and the center divisibility theory prunes center roots
outright; what remains is pair assembly plus outer-sum checks.
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import ExitStack
from functools import lru_cache
from math import comb, prod

from .errors import UsageError
from .fp import (
    MAX_WORKERS,
    check_center_ceiling,
    factorize,
    factorize_block,
    prime_factors,
    two_squares,
)
from .intgrid import IntGrid, is_magic, is_square_entried


SearchReport = namedtuple("SearchReport", "pruned_centers candidates_tested hits near_misses")

# two_squares of the primes = 1 (mod 4) met lately: a block meets its small
# primes again and again
_split = lru_cache(maxsize=1024)(two_squares)


def pair_decompositions(e: int, factors: dict[int, int] | None = None) -> list[tuple[int, int]]:
    """Unordered pairs of distinct squares, both != e^2, summing to 2e^2, as
    (x^2, y^2) with x < e < y, ascending in x.

    x + yi runs over the Gaussian integers of norm 2e^2 up to units and
    conjugation (Cohen, A Course in Computational Algebraic Number Theory,
    1.5). Write e = 2^a * prod q^j * prod p^k with q = 3 and p = 1 (mod 4).
    Then (1 + i) supplies the 2, 2^a and each q^j only scale, and each p^k
    contributes pi^j * conj(pi)^(2k - j) for j = 0..2k, where p = pi*conj(pi)
    comes from `two_squares`. Each product has x^2 + y^2 = 2(e/scale)^2, so
    its smaller square fixes its pair; only x = y gives (e/scale)^2, and the
    others meet every pair twice, as z and its conjugate. So a center costs
    O(prod(2k + 1)) products, each split from a cache. `factors` is e's
    factorisation; without it, e is trial-divided, the tests' reference.
    """
    if e < 1:
        raise UsageError(f"center root must be positive, got {e}")
    if factors is None:
        factors = factorize(e)
    scale = 1
    zs = [(1, 1)]
    for p, k in factors.items():
        if p % 4 != 1:
            scale *= p**k
            continue
        a, b = _split(p)
        powers = [(1, 0)]
        for _ in range(2 * k):
            x, y = powers[-1]
            powers.append((a * x - b * y, a * y + b * x))
        parts = [
            (x * u + y * v, y * u - x * v)  # pi^j * conj(pi^(2k - j))
            for (x, y), (u, v) in zip(powers, reversed(powers))
        ]
        zs = [(x * u - y * v, x * v + y * u) for x, y in zs for u, v in parts]
    half = (e // scale) ** 2
    los = sorted({min(x * x, y * y) for x, y in zs} - {half})
    return [(scale**2 * lo, scale**2 * (2 * half - lo)) for lo in los]


def center_has_inadmissible_factor(e: int, factors: dict[int, int] | None = None) -> bool:
    """True when some prime = 3 (mod 4) divides e: one of `factors`, e's
    factorisation, or one found by `prime_factors`, which stops there.

    Such a center root is impossible for a primitive hit; reducible hits
    reappear at the reduced center root, so pruning these e loses nothing.
    """
    return any(q % 4 == 3 for q in (prime_factors(e) if factors is None else factors))


def _assemble(m: int, offsets, threshold: int):
    """Every grid of the pairs m - u, m + u (u in offsets) around center m
    with at least `threshold` of its 8 lines summing to 3m, listed once.

    A layout puts signed offsets da, db, dc, dd at the top-left, top-middle,
    top-right and middle-left cells, and their negatives opposite. The four
    center lines sum to 3m by construction. The top row does exactly when
    db = -(da + dc), and so does the bottom row; the left column does exactly
    when dd = dc - da, and so does the right one. So a layout has 4, 6 or 8
    correct lines.

    Offsets must be distinct and positive, so the nine cells are distinct and
    the 8 symmetries of the square act freely on the 384 layouts of each
    4-subset. Only the lexicographically smallest layout of each class is
    visited: m + da is the smallest corner (da < 0 and |dc| < -da) and
    db < dd. The loop order gives that rule: each pair u > v of offsets takes
    da = -u and dc = +-v, and db < dd run over the other signed offsets, with
    dd != -db. The row fix is then u - dc and the column fix u + dc, so for
    either sign of dc the two fixes are u - v and u + v, and a layout with 6
    or more correct lines holds a sum triple. Above threshold 4, a pair whose
    fixes are not offsets is skipped: k(k - 1)/2 set tests for k offsets. No
    real center below 3 * 10**6 holds a sum triple, so there every pair is
    skipped at thresholds 5-8. At threshold 4 or below, db and dd walk all
    2k signed offsets, O(k^4), as every layout is listed. Returns
    (candidates, hits, near_misses): the number of layouts up to symmetry,
    and the emitted grids as sorted cell tuples.
    """
    lengths = set(offsets)
    descending = sorted(offsets, reverse=True)
    signed = sorted(s * u for u in offsets for s in (1, -1))
    hits = []
    nears = []
    for i, u in enumerate(descending):
        for v in descending[i + 1 :]:
            if threshold > 4 and u - v not in lengths and u + v not in lengths:
                continue
            others = [d for d in signed if d not in (u, -u, v, -v)]
            for dc, row_fix, col_fix in ((v, u - v, u + v), (-v, u + v, u - v)):
                for j, db in enumerate(others):
                    for dd in others[j + 1 :]:
                        if dd == -db:
                            continue
                        correct = 4 + 2 * (db == row_fix) + 2 * (dd == col_fix)
                        if correct < threshold:
                            continue
                        cells = (m - u, m + db, m + dc, m + dd, m, m - dd, m - dc, m - db, m + u)
                        assert len(set(cells)) == 9
                        (hits if correct == 8 else nears).append(cells)
    return 48 * comb(len(offsets), 4), tuple(sorted(hits)), tuple(sorted(nears))


def _scan_center(e: int, primitive_only: bool, threshold: int, factors: dict[int, int]):
    """Assemble and test all candidate grids around the center e^2, given
    e's factorisation `factors`.

    Returns (pruned, candidates, hit_cells, near_cells); see `_assemble`.
    A center with fewer than four pairs, where prod(2k + 1) < 9 (see
    `pair_decompositions`), returns before any pair is built, as it holds no
    layout.
    """
    if primitive_only and center_has_inadmissible_factor(e, factors):
        return (True, 0, (), ())
    if prod(2 * k + 1 for p, k in factors.items() if p % 4 == 1) < 9:
        return (False, 0, (), ())
    m = e * e
    offsets = [m - lo for lo, _ in pair_decompositions(e, factors)]
    candidates, hits, nears = _assemble(m, offsets, threshold)
    for cells in hits:
        grid = IntGrid(cells)
        assert is_magic(grid) == 3 * m and is_square_entried(grid)
    return (False, candidates, hits, nears)


def _merge(results):
    """Sums the counts and joins the cells, in order, of (pruned, candidates, hits, nears)."""
    pruned = candidates = 0
    hits = []
    nears = []
    for was_pruned, count, hit_cells, near_cells in results:
        pruned += was_pruned
        candidates += count
        hits += hit_cells
        nears += near_cells
    return pruned, candidates, hits, nears


def _scan_block(task: tuple[range, bool, int]):
    """`_scan_center` over a contiguous block of center roots, each given its
    factorisation from one sieve of the block, merged in ascending e."""
    block, primitive_only, threshold = task
    return _merge(
        _scan_center(e, primitive_only, threshold, factors)
        for e, factors in zip(block, factorize_block(block))
    )


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
    order, so the report is identical for any worker count. No more worker
    processes start than there are blocks of centers.
    """
    if e_min < 1 or e_min > e_max:
        raise UsageError(f"need 1 <= e_min <= e_max, got [{e_min}, {e_max}]")
    check_center_ceiling(e_max)
    if not 0 <= near_miss_threshold <= 8:
        raise UsageError(
            f"near-miss threshold counts lines of 8, so it must be in [0, 8], "
            f"got {near_miss_threshold}"
        )
    if not 1 <= workers <= MAX_WORKERS:
        raise UsageError(f"worker count must be in [1, {MAX_WORKERS}], got {workers}")
    centers = range(e_min, e_max + 1)
    # most centers cost microseconds, so each task is a block of centers:
    # 16 blocks a worker keep the load balanced, and the parent holds only
    # ranges, not one task per center
    size = max(8, len(centers) // (16 * workers))
    starts = range(0, len(centers), size)
    blocks = ((centers[i : i + size], primitive_only, near_miss_threshold) for i in starts)
    with ExitStack() as stack:
        mapper = map
        procs = min(workers, len(starts))
        if procs > 1:
            from concurrent.futures import ProcessPoolExecutor

            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=procs)).map
        pruned, candidates, hits, nears = _merge(mapper(_scan_block, blocks))
    return SearchReport(pruned, candidates, tuple(map(IntGrid, hits)), tuple(map(IntGrid, nears)))
