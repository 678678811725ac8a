from itertools import combinations, permutations, product
from math import comb, gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from residuum.errors import UsageError
from residuum.fp import MAX_WORKERS, factorize, factorize_block, primes_up_to
from residuum.grid_ops import LINES
from residuum.intgrid import (
    INADMISSIBLE,
    IntGrid,
    admissible_center_check,
    is_distinct,
    is_magic,
    is_square_entried,
)
from residuum.search import (
    SearchReport,
    _assemble,
    _merge,
    _scan_center,
    center_has_inadmissible_factor,
    pair_decompositions,
    search_msos,
)

from oracles import (
    DIHEDRAL,
    naive_center_enumeration,
    naive_magic_grids,
    parametric_magic,
    permute,
)


def walk_layouts(m, pairs, threshold):
    """Slow oracle for `_assemble`: the original search core, which walks all
    C(k,4)*24*16 layouts of the pairs around center m and canonicalises each
    one under the 8 symmetries. Returns (candidates, hits, near_misses).
    Hits need not have square cells, so non-square positive controls run."""
    total = 3 * m
    c2 = m
    seen = set()
    hits = []
    nears = []
    for quad in combinations(pairs, 4):
        for diag, anti, row, col in permutations(quad):
            for orient in range(16):
                a, i = diag if orient & 1 == 0 else diag[::-1]
                c, g = anti if orient & 2 == 0 else anti[::-1]
                d, f = row if orient & 4 == 0 else row[::-1]
                b, h = col if orient & 8 == 0 else col[::-1]
                cells = (a, b, c, d, c2, f, g, h, i)
                canon = min(permute(cells, sym) for sym in DIHEDRAL)
                if canon in seen:
                    continue
                seen.add(canon)
                correct = 4 + (
                    (a + b + c == total)
                    + (g + h + i == total)
                    + (a + d + g == total)
                    + (c + f + i == total)
                )
                if correct < threshold:
                    continue
                if len(set(cells)) != 9:
                    continue
                if correct == 8:
                    grid = IntGrid(canon)
                    assert is_magic(grid) == total
                    hits.append(canon)
                else:
                    nears.append(canon)
    return (len(seen), tuple(sorted(hits)), tuple(sorted(nears)))


def isqrt_pairs(e):
    """Slow oracle for `pair_decompositions`: the original O(e) scan, one
    isqrt per x < e."""
    target = 2 * e * e
    out = []
    for x in range(e):  # x < e < y keeps pairs unordered and excludes e^2
        y2 = target - x * x
        y = isqrt(y2)
        if y * y == y2:
            out.append((x * x, y2))
    return out


def canonical(cells):
    return min(permute(cells, sym) for sym in DIHEDRAL)


def primitive_subset(grids) -> set[IntGrid]:
    """The grids whose cells have gcd 1."""
    return {g for g in grids if gcd(*g.cells) == 1}


def brute_pairs(e):
    target = 2 * e * e
    out = []
    for x in range(2 * e + 1):
        for y in range(x + 1, 2 * e + 1):
            if x * x + y * y == target and x != e and y != e:
                out.append((x * x, y * y))
    return out


def primitive_triples(n):
    """Euclid's primitive right triangles with hypotenuse c <= n, as
    (c, ab) sorted by c: (p^2 - q^2, 2pq, p^2 + q^2) for p > q > 0 coprime
    and of opposite parity."""
    triples = []
    for p in range(2, isqrt(n) + 1):
        for q in range(1 + p % 2, p, 2):
            c = p * p + q * q
            if c > n:
                break
            if gcd(p, q) == 1:
                triples.append((c, (p * p - q * q) * 2 * p * q))
    return sorted(triples)


def euclid_offsets(lo, hi, triples):
    """Whole-window oracle for `pair_decompositions`: the full offsets of
    every center root lo <= e <= hi, as offsets[e - lo], with no factoring.

    x^2 + y^2 = 2e^2 with x < e < y exactly when a = (x + y)/2 and
    b = (y - x)/2 are the legs of a right triangle with hypotenuse e, and
    then the offset e^2 - x^2 is 2ab. Every such triangle is k times one of
    `triples`, Euclid's primitive ones, which must reach hi; each is scaled
    by every k that puts its hypotenuse in the window."""
    offsets = [[] for _ in range(lo, hi + 1)]
    for c, ab in triples:
        if c > hi:
            break
        for k in range(-(-lo // c), hi // c + 1):
            offsets[k * c - lo].append(2 * k * k * ab)
    return offsets


def inert_flags(n):
    """flags[e] is 1 when some prime = 3 (mod 4) divides 1 <= e <= n: a
    sieve of Eratosthenes in which each such prime marks its multiples."""
    composite = bytearray(n + 1)
    flags = bytearray(n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        composite[p * p :: p] = b"\x01" * len(range(p * p, n + 1, p))
        if p % 4 == 3:
            flags[p::p] = b"\x01" * len(range(p, n + 1, p))
    return flags


def check_search_against_euclid(lo, hi, triples, inert, thresholds, workers):
    """A layout with 6 or more correct lines holds a sum triple s, t, s + t
    of one center's offsets (see _assemble). Check that no center in
    [lo, hi] holds one, so that no threshold 5-8 reports a grid, and that
    `search_msos` counts as pruned the centers that `inert` flags and
    tests 48 * C(k, 4) layouts for the k offsets of each other center.
    Returns the report."""
    offsets = euclid_offsets(lo, hi, triples)
    for e, lengths in zip(range(lo, hi + 1), map(set, offsets)):
        assert not any(s + t in lengths for s in lengths for t in lengths if s < t), e
    flags = inert[lo : hi + 1]
    candidates = sum(48 * comb(len(u), 4) for u, bad in zip(offsets, flags) if not bad)
    expected = SearchReport(sum(flags), candidates, (), ())
    for threshold in thresholds:
        report = search_msos(lo, hi, near_miss_threshold=threshold, workers=workers)
        assert report == expected, (lo, hi, threshold)
    return expected


def test_pair_decompositions_examples():
    assert pair_decompositions(5) == [(1, 49)]
    assert pair_decompositions(1) == []
    assert (17 ** 2, 31 ** 2) in pair_decompositions(25)
    assert 289 + 961 == 2 * 625


@settings(max_examples=150, deadline=None)
@given(e=st.integers(1, 150))
def test_pair_decompositions_against_brute_force(e):
    got = pair_decompositions(e)
    assert sorted(got) == sorted(brute_pairs(e))
    for lo, hi in got:
        assert lo + hi == 2 * e * e
        assert lo != hi and lo != e * e and hi != e * e


def test_pair_decompositions_match_isqrt_oracle():
    for e in range(1, 3001):
        assert pair_decompositions(e) == isqrt_pairs(e), e


PRIMES = primes_up_to(10**4)
ONE_MOD_4 = [p for p in PRIMES if p % 4 == 1]
THREE_MOD_4 = [q for q in PRIMES if q % 4 == 3]


@settings(max_examples=120, deadline=None)
@given(
    a=st.integers(0, 5),
    split=st.dictionaries(st.sampled_from(ONE_MOD_4), st.integers(1, 3), max_size=3),
    inert=st.dictionaries(st.sampled_from(THREE_MOD_4[:20]), st.integers(1, 2), max_size=2),
)
def test_pair_decompositions_from_chosen_factorisations(a, split, inert):
    # 2^a and each q^j scale the pairs; p^k gives 2k + 1 Gaussian factors
    e = 2**a * prod(p**k for p, k in split.items()) * prod(q**j for q, j in inert.items())
    got = pair_decompositions(e)
    assert len(got) == (prod(2 * k + 1 for k in split.values()) - 1) // 2
    assert got == sorted(got)
    for lo, hi in got:
        assert lo + hi == 2 * e * e
        assert isqrt(lo) ** 2 == lo and isqrt(hi) ** 2 == hi
        assert 0 < lo < e * e < hi
    if e <= 2 * 10**5:
        assert got == isqrt_pairs(e)


def test_center_pruning_predicate():
    assert center_has_inadmissible_factor(21)  # 3 and 7
    assert center_has_inadmissible_factor(3)
    assert not center_has_inadmissible_factor(1)
    assert not center_has_inadmissible_factor(2)
    assert not center_has_inadmissible_factor(65)  # 5 * 13
    assert not center_has_inadmissible_factor(50)


def test_search_single_pruned_center():
    report = search_msos(21, 21, True)
    assert report.pruned_centers == 1
    assert report.candidates_tested == 0
    assert report.hits == () and report.near_misses == ()


def test_search_center_with_too_few_pairs():
    report = search_msos(5, 5, True)
    assert report.pruned_centers == 0
    assert report.candidates_tested == 0
    assert report.hits == ()


def test_search_bad_range():
    with pytest.raises(UsageError, match="need 1 <= e_min <= e_max"):
        search_msos(200, 1)
    with pytest.raises(UsageError, match="need 1 <= e_min <= e_max"):
        search_msos(0, 10)


def test_search_small_range_no_hits():
    report = search_msos(1, 80, True)
    assert report.hits == ()
    assert report.pruned_centers > 0
    for nm in report.near_misses:
        assert is_square_entried(nm) and is_distinct(nm)


def test_search_report_deterministic_across_workers():
    serial = search_msos(1, 90, True, workers=1)
    parallel = search_msos(1, 90, True, workers=2)
    assert serial == parallel


def test_search_starts_no_more_processes_than_blocks(pool_sizes):
    # 10 centers make 2 blocks of 8 at most, and 8 centers make 1, which
    # runs in-process; 90 centers on 2 workers make 12 blocks
    serial = search_msos(1, 10, workers=1)
    assert search_msos(1, 10, workers=MAX_WORKERS) == serial
    assert search_msos(1, 8, workers=MAX_WORKERS) == search_msos(1, 8, workers=1)
    search_msos(1, 90, workers=2)
    assert pool_sizes == [2, 2]


def test_search_refuses_workers_above_the_ceiling(pool_sizes):
    # a million centers would fill every worker, so the count is refused
    # before the pool is asked for them
    with pytest.raises(UsageError, match=f"^worker count must be in \\[1, {MAX_WORKERS}\\]"):
        search_msos(1, 10**6, workers=MAX_WORKERS + 1)
    assert pool_sizes == []


def test_merge_sums_the_counts_and_joins_the_cells_in_order():
    # no center a test can scan holds a hit, so only made-up results show
    # that hits are carried through
    a, b, c = (1,) * 9, (2,) * 9, (3,) * 9
    results = [(False, 48, (a,), (b,)), (True, 0, (), ()), (False, 96, (c,), (a, b))]
    assert _merge(results) == (1, 144, [a, c], [b, a, b])


def test_search_report_deterministic_across_chunks():
    # 1500 centers on 2 workers make blocks of 46 centers, 33 in all, so
    # the block boundaries and the streamed merge must drop and reorder nothing
    kwargs = dict(primitive_only=False, near_miss_threshold=4)
    serial = search_msos(1, 1500, workers=1, **kwargs)
    assert len(serial.near_misses) == serial.candidates_tested > 10**4
    assert search_msos(1, 1500, workers=2, **kwargs) == serial


def test_completeness_against_naive_enumeration():
    # no center root up to 15 holds a layout, so both sides are empty there;
    # as a positive control, 1..9 around 5 hold one grid up to symmetry, the
    # Lo Shu, and both sides must find it
    _, hits, _ = _assemble(5, [1, 2, 3, 4], 8)
    assert len(hits) == 1
    naive = naive_magic_grids(5, range(1, 10))
    assert naive == {IntGrid(permute(cells, s)) for cells in hits for s in DIHEDRAL}
    assert len(naive) == 8
    for e in range(1, 16):
        naive = naive_center_enumeration(e)
        assembled = set(search_msos(e, e, primitive_only=False).hits)
        assert assembled == naive, f"disagreement at e={e}"


def test_prune_matches_center_check():
    for e in range(1, 5001):
        verdicts = admissible_center_check(e).verdicts
        assert center_has_inadmissible_factor(e) == any(
            v == INADMISSIBLE for _, v in verdicts
        ), e


def test_prune_stops_at_first_inadmissible_factor():
    # trial-dividing the Mersenne prime 2**61 - 1 would take hours
    assert center_has_inadmissible_factor(3 * (2**61 - 1)) is True


def test_pruning_soundness_spot_check():
    # the pruned centers really hide no primitive magic square of squares
    for e in (3, 6, 7, 21, 33):
        assert center_has_inadmissible_factor(e)
        assert primitive_subset(naive_center_enumeration(e)) == set()
    # those centers have fewer than four pairs, so they make no grid and the
    # sets above are empty whatever the prune does. These make grids, and
    # every q = 3 (mod 4) dividing e puts q^2 into both squares of every
    # pair, so into every cell of every grid: none is primitive
    for e in (455, 1365):  # 5 * 7 * 13 and 3 * 5 * 7 * 13
        assert center_has_inadmissible_factor(e)
        pairs = pair_decompositions(e)
        assert len(pairs) >= 4 and sorted(pairs) == sorted(brute_pairs(e)), e
        for q in (q for q in primes_up_to(e) if q % 4 == 3 and e % q == 0):
            assert all(lo % (q * q) == 0 and hi % (q * q) == 0 for lo, hi in pairs), (e, q)


def test_naive_enumeration_rejects_bad_e():
    with pytest.raises(ValueError):
        naive_center_enumeration(0)


def test_near_miss_threshold_widens_report():
    strict = search_msos(60, 70, primitive_only=False, near_miss_threshold=7)
    loose = search_msos(60, 70, primitive_only=False, near_miss_threshold=5)
    assert set(strict.near_misses) <= set(loose.near_misses)
    for nm in loose.near_misses:
        assert is_square_entried(nm) and is_distinct(nm)
        correct = sum(
            1
            for line in (
                (0, 1, 2), (3, 4, 5), (6, 7, 8),
                (0, 3, 6), (1, 4, 7), (2, 5, 8),
                (0, 4, 8), (2, 4, 6),
            )
            if sum(nm.cells[i] for i in line) == 3 * nm.center
        )
        assert correct == 6  # row and column pairs are correct together


def test_candidates_counted_once_per_symmetry_class():
    # e=65 has k=4 pairs: 384 layouts, on which the 8 symmetries act freely
    assert len(isqrt_pairs(65)) == 4
    assert search_msos(65, 65, primitive_only=False).candidates_tested == 48
    report = search_msos(1, 400, primitive_only=False)
    expected = sum(48 * comb(len(isqrt_pairs(e)), 4) for e in range(1, 401))
    assert report.candidates_tested == expected


def test_search_msos_refuses_bad_settings():
    for threshold in (-1, 9, 99):
        with pytest.raises(UsageError, match="^near-miss threshold"):
            search_msos(1, 10, near_miss_threshold=threshold)
    for workers in (0, -1):
        with pytest.raises(UsageError, match="^worker count"):
            search_msos(1, 10, workers=workers)
    for threshold in (0, 8):
        assert search_msos(1, 10, near_miss_threshold=threshold).hits == ()


def test_scan_center_matches_layout_walker():
    # thresholds 0-4 list every layout; 9 is refused by search_msos but the
    # core still has to agree with the walker there
    centers = [e for e in range(1, 701) if len(isqrt_pairs(e)) >= 4]
    assert len(centers) > 20
    near_misses_compared = 0
    for e in centers:
        for threshold in range(10):
            expected = walk_layouts(e * e, isqrt_pairs(e), threshold)
            near_misses_compared += len(expected[2])
            for primitive_only in (True, False):
                got = _scan_center(e, primitive_only, threshold, factorize(e))
                if got[0]:
                    assert primitive_only and center_has_inadmissible_factor(e)
                    assert got[1:] == (0, (), ())
                else:
                    assert got[1:] == expected, (e, threshold, primitive_only)
    assert near_misses_compared > 0


def test_sieve_fed_scan_matches_the_trial_division_reference():
    # the block sieve's factorisation and factorize(e), the trial-division
    # reference, give one scan; a center below four pairs skips its
    # assembly, which finds no layout there
    skipped = 0
    for e, factors in zip(range(1, 3001), factorize_block(range(1, 3001))):
        offsets = [e * e - lo for lo, _ in isqrt_pairs(e)]
        for threshold in (0, 4, 7, 8):
            for primitive_only in (True, False):
                args = (e, primitive_only, threshold)
                assert _scan_center(*args, factors) == _scan_center(*args, factorize(e)), args
        if len(offsets) < 4:
            # threshold 0 lists every layout
            assert _scan_center(e, False, 0, factors) == (False, 0, (), ()), e
            assert _assemble(e * e, offsets, 0) == (0, (), ()), e
            skipped += 1
    # 5 * 13 and 5**4 have exactly four pairs, so they are assembled
    assert len(isqrt_pairs(65)) == len(isqrt_pairs(625)) == 4
    assert skipped > 2500


@pytest.mark.parametrize("e_max, primitive_only, threshold", [(20000, True, 7), (400, False, 4)])
def test_search_folds_the_per_center_reference_scans(e_max, primitive_only, threshold):
    # blocks of many centers, sieved and merged per block, against a fold of
    # one trial-division scan per center in ascending e; below 20000 no
    # center gives a grid at the defaults, so the second case lists grids
    pruned = candidates = 0
    hits, nears = [], []
    for e in range(1, e_max + 1):
        was_pruned, count, hit_cells, near_cells = _scan_center(
            e, primitive_only, threshold, factorize(e)
        )
        pruned += was_pruned
        candidates += count
        hits += map(IntGrid, hit_cells)
        nears += map(IntGrid, near_cells)
    expected = SearchReport(pruned, candidates, tuple(hits), tuple(nears))
    assert candidates > 0 and (pruned > 0) == primitive_only
    assert len(nears) == (0 if primitive_only else candidates)
    for workers in (1, 2):
        got = search_msos(
            1, e_max, primitive_only, near_miss_threshold=threshold, workers=workers
        )
        assert got == expected, workers


EUCLID_MAX = 10**5


def test_pair_decompositions_match_euclid_over_the_whole_range():
    # every center root to 10**5, factored by the block sieve as search does
    centers = range(1, EUCLID_MAX + 1)
    offsets = euclid_offsets(1, EUCLID_MAX, primitive_triples(EUCLID_MAX))
    for e, factors, expected in zip(centers, factorize_block(centers), offsets):
        got = [e * e - lo for lo, _ in pair_decompositions(e, factors)]
        assert sorted(got) == sorted(expected), e


def test_search_matches_euclid_over_the_whole_range():
    report = check_search_against_euclid(
        1, EUCLID_MAX, primitive_triples(EUCLID_MAX), inert_flags(EUCLID_MAX), (5, 6, 7, 8), 1
    )
    assert report.pruned_centers > 0 and report.candidates_tested > 10**8


@pytest.mark.slow
def test_search_matches_euclid_to_three_million():
    # windows of 10**5 centers bound the memory: every window re-walks the
    # primitive triples up to its top, and one sieve flags every center
    top, window = 3 * 10**6, 10**5
    triples = primitive_triples(top)
    inert = inert_flags(top)
    pruned = candidates = 0
    for lo in range(1, top + 1, window):
        report = check_search_against_euclid(lo, lo + window - 1, triples, inert, (5,), 2)
        pruned += report.pruned_centers
        candidates += report.candidates_tested
    assert len(triples) == 477_471
    assert (pruned, candidates) == (2_479_091, 48_394_869_696)


def test_assemble_finds_the_lo_shu():
    # 4 9 2 / 3 5 7 / 8 1 6 is 5 +- 1..4: the positive control that the
    # square search itself cannot give, with 6-line near misses besides
    lo_shu = (2, 7, 6, 9, 5, 1, 4, 3, 8)
    assert canonical((4, 9, 2, 3, 5, 7, 8, 1, 6)) == lo_shu
    assert _assemble(5, [1, 2, 3, 4], 7) == (48, (lo_shu,), ())
    pairs = [(5 - u, 5 + u) for u in (1, 2, 3, 4)]
    for threshold in range(10):
        got = _assemble(5, [1, 2, 3, 4], threshold)
        assert got == walk_layouts(5, pairs, threshold), threshold
        assert bool(got[1]) == (threshold <= 8)
        assert bool(got[2]) == (threshold <= 6)


@settings(max_examples=15, deadline=None)
@given(
    t=st.integers(1, 20),
    gap=st.integers(1, 20),
    extra=st.sets(st.integers(1, 45), max_size=1),
)
def test_assemble_matches_walker_where_hits_exist(t, gap, extra):
    s = t + gap
    assume(gap != t)  # s - t must differ from t
    offsets = sorted({s, t, s + t, s - t} | extra)
    m = 100
    pairs = [(m - u, m + u) for u in offsets]
    lucas = canonical(parametric_magic(m, s, t).cells)
    for threshold in range(10):
        got = _assemble(m, offsets, threshold)
        assert got == walk_layouts(m, pairs, threshold), threshold
        assert (lucas in got[1]) == (threshold <= 8)


@settings(max_examples=20, deadline=None)
@given(
    t=st.integers(1, 20),
    gap=st.integers(1, 20),
    extra=st.sets(st.integers(1, 45), min_size=1, max_size=2),
)
def test_assemble_matches_walker_on_sum_triples_without_hits(t, gap, extra):
    # s, t and s + t without s - t: for some pairs u > v of offsets, u - v
    # or u + v is an offset, so only those escape the prune above
    # threshold 4, and they give 6-line layouts but no magic square
    s = t + gap
    assume(gap != t)
    lengths = {s, t, s + t} | extra - {gap}
    assume(len(lengths) >= 4)
    # nor any four offsets u, v, u + v, u - v of a hit
    assume(not any(u + v in lengths and u - v in lengths - {v} for u in lengths for v in lengths))
    offsets = sorted(lengths)
    m = 100
    pairs = [(m - u, m + u) for u in offsets]
    for threshold in range(10):
        got = _assemble(m, offsets, threshold)
        assert got == walk_layouts(m, pairs, threshold), threshold
        assert got[1] == () and bool(got[2]) == (threshold <= 6), threshold


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 50),
    offsets=st.sets(st.integers(1, 12), min_size=4, max_size=5),
)
def test_every_layout_has_4_6_or_8_correct_lines(m, offsets):
    for quad in combinations(sorted(offsets), 4):
        for order in permutations(quad):
            for signs in product((1, -1), repeat=4):
                da, db, dc, dd = (sign * u for sign, u in zip(signs, order))
                cells = (m + da, m + db, m + dc, m + dd, m, m - dd, m - dc, m - db, m - da)
                correct = sum(sum(cells[i] for i in line) == 3 * m for line in LINES)
                assert correct == 4 + 2 * (db == -(da + dc)) + 2 * (dd == dc - da)
                assert correct in (4, 6, 8)
    # with no set to drop repeats, _assemble must reach each grid once
    for threshold in range(10):
        candidates, hits, nears = _assemble(m, sorted(offsets), threshold)
        grids = hits + nears
        assert len(set(grids)) == len(grids), threshold
        if threshold <= 4:
            assert len(grids) == candidates == 48 * comb(len(offsets), 4), threshold
