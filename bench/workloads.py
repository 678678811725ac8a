"""Seeded workload generators.

A workload is a list of operations; each operation is one CLI call with the
inputs the generator chose. The same seed always gives the same list, and
the program sees nothing but the generated arguments and files.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field

from . import oracle

# table: N is drawn from this narrow band so that primes_per_s compares
# across seeds (the cost per prime grows with p).
TABLE_BAND = (9950, 10050)

# search: every window is SEARCH_WIDTH centers wide, starts inside
# SEARCH_STARTS, and holds exactly SEARCH_MIX scanned centers per heavy k.
# Cost per center grows as C(k,4); at width 1000 the same sum ranges from
# 299 to 15,074 depending on where the window starts, so only windows with
# this mix are drawn. The k = 10 center carries about 43% of the work. A
# k = 13 center would triple a call's length, and a call of several seconds
# lets the host's speed change within it (see HostSpeed in run.py).
SEARCH_WIDTH = 500
SEARCH_STARTS = (1000, 2000)
SEARCH_MIX = {7: 7, 10: 1}

# query: one closed-loop client; the call mix per pass.
QUERY_ORACLE_CALLS = 10      # analyze p <= 100, where the enumeration oracle runs
QUERY_ANALYZE_CALLS = 51     # analyze p, log-stratified over [101, QUERY_MAX_P]
QUERY_CONSTRUCT_CALLS = 24   # construct p, log-stratified over [5, QUERY_MAX_P]
QUERY_VERIFY_CALLS = 15      # verify FILE on generated grids
QUERY_MAX_P = 50021          # the largest analyze call of every pass
# Each stratified draw lands within this share of its slice around the
# slice's midpoint. Latency grows with p, so a wider jitter moves
# latency_p90_ms from seed to seed by more than the host's own noise.
STRATUM_JITTER = 0.2

SMOKE_TABLE_N = 500
SMOKE_SEARCH = (1, 200)


@dataclass
class Op:
    """One CLI call: `args` follow `python -m residuum`."""

    kind: str
    args: list[str]
    work: int = 1                     # units of work_per_s: primes, centers or calls
    p: int = 0                        # analyze/construct prime, table N
    window: tuple[int, int] = (0, 0)  # search range
    cells: tuple[int, ...] = ()       # verify grid
    path: str = ""                    # verify file, relative to the work dir


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict
    centers: oracle.CenterTable | None = None
    files: dict[str, str] = field(default_factory=dict)  # path -> contents


def search_windows(centers: oracle.CenterTable) -> list[int]:
    lo, hi = SEARCH_STARTS
    return [
        s for s in range(lo, hi + 1)
        if centers.heavy_mix(s, s + SEARCH_WIDTH - 1) == SEARCH_MIX
    ]


def _table(seed: int, smoke: bool) -> Workload:
    n = SMOKE_TABLE_N if smoke else random.Random(seed).randint(*TABLE_BAND)
    primes = len(oracle.primes_1_mod_4(n))
    op = Op("table", ["table", str(n), "--format", "csv"], work=primes, p=n)
    return Workload("table", [op], {"N": n, "primes": primes})


def _search(seed: int, smoke: bool) -> Workload:
    if smoke:
        a, b = SMOKE_SEARCH
        centers = oracle.CenterTable(b)
    else:
        centers = oracle.CenterTable(SEARCH_STARTS[1] + SEARCH_WIDTH)
        a = random.Random(seed).choice(search_windows(centers))
        b = a + SEARCH_WIDTH - 1
    args = ["search", str(a), str(b), "--workers", "1", "--format", "structured"]
    inputs = {
        "window": [a, b],
        "heavy_mix": {str(k): n for k, n in sorted(centers.heavy_mix(a, b).items())},
        "quads": centers.quads(a, b),
        "pruned": centers.pruned_count(a, b),
    }
    op = Op("search", args, work=b - a + 1, window=(a, b))
    return Workload("search", [op], inputs, centers=centers)


def _stratified(rng: random.Random, primes: list[int], lo: int, hi: int, n: int) -> list[int]:
    """n primes from `primes`, one near the middle of each equal slice of
    [log lo, log hi], so the sorted draw is nearly the same for every seed."""
    out = []
    span = math.log(hi) - math.log(lo)
    for i in range(n):
        u = 0.5 + STRATUM_JITTER * (rng.random() - 0.5)
        x = math.exp(math.log(lo) + span * (i + u) / n)
        j = min(bisect.bisect_left(primes, x), len(primes) - 1)
        out.append(primes[j])
    return out


def verify_grids(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Grids of five kinds, so every verdict of `verify` takes both values."""
    # A 7-of-8 magic square of squares (all rows, columns, one diagonal).
    near = (127, 46, 58, 2, 113, 94, 74, 82, 97)
    grids = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            s = rng.randint(1, 60)
            grids.append(tuple((s * r) ** 2 for r in near))
        elif kind == 1:
            c = rng.randint(2, 3000)
            grids.append((c * c,) * 9)
        elif kind == 2:
            m = rng.randint(40, 200) ** 2
            s, t = rng.randint(1, m // 3), rng.randint(1, m // 3)
            grids.append((m - s, m + s + t, m - t, m + s - t, m, m - s + t, m + t, m - s - t, m + s))
        elif kind == 3:
            grids.append(tuple(rng.randint(0, 500) ** 2 for _ in range(9)))
        else:
            d = rng.randint(2, 40)
            grids.append(tuple(d * rng.randint(1, 10 ** 6) for _ in range(9)))
    return grids


def _query(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    primes = oracle.primes_1_mod_4(QUERY_MAX_P)
    if smoke:
        analyze = [5, 29, 97, 1009]
        construct = [61, 37, 13, 109]
        grids = verify_grids(rng, 5)
    else:
        small = [p for p in primes if p <= 100]
        analyze = rng.sample(small, QUERY_ORACLE_CALLS)
        analyze += _stratified(rng, primes, 101, QUERY_MAX_P, QUERY_ANALYZE_CALLS - 1)
        analyze.append(QUERY_MAX_P)
        construct = _stratified(rng, primes, 5, QUERY_MAX_P, QUERY_CONSTRUCT_CALLS)
        grids = verify_grids(rng, QUERY_VERIFY_CALLS)
    ops = [Op("analyze", ["analyze", str(p), "--format", "structured"], p=p) for p in analyze]
    ops += [Op("construct", ["construct", str(p), "--format", "structured"], p=p) for p in construct]
    files = {}
    for i, cells in enumerate(grids):
        path = f"grid{i}.txt"
        files[path] = "# generated grid\n" + "\n".join(
            " ".join(str(v) for v in cells[r : r + 3]) for r in (0, 3, 6)
        ) + "\n"
        ops.append(Op("verify", ["verify", path, "--format", "structured"], cells=cells, path=path))
    rng.shuffle(ops)
    inputs = {
        "calls": len(ops),
        "analyze_primes": sorted(analyze),
        "construct_primes": sorted(construct),
        "verify_grids": len(grids),
    }
    return Workload("query", ops, inputs, files=files)


WORKLOADS = ("table", "search", "query")


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    if name == "table":
        return _table(seed, smoke)
    if name == "search":
        return _search(seed, smoke)
    if name == "query":
        return _query(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
