"""Output checks, one per CLI command the benchmark calls.

Each check takes what the program printed and returns a list of problems;
an empty list means the output passed. The checks recompute every answer
with `oracle`, never with residuum itself.
"""

from __future__ import annotations

import csv
import io
import random
from math import gcd, isqrt

from . import oracle

TABLE_COLUMNS = ["p", "qr_count", "run_count", "coverage_status", "count_bound"]
# Rows of a table whose run count is recounted by Euler's criterion.
TABLE_RECOUNT_SAMPLE = 12


def check_table(text: str, max_p: int, sample_seed: int) -> list[str]:
    problems: list[str] = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != TABLE_COLUMNS:
        return [f"table header {header!r}"]
    rows = list(reader)
    expected_primes = oracle.primes_1_mod_4(max_p)
    try:
        primes = [int(r[0]) for r in rows]
    except (ValueError, IndexError):
        return ["table row without an integer p"]
    if primes != expected_primes:
        return [f"table lists {len(primes)} primes, expected {len(expected_primes)}"]
    parsed = []
    for r in rows:
        try:
            p, qr, runs, status, bound = int(r[0]), int(r[1]), int(r[2]), r[3], int(r[4])
        except (ValueError, IndexError):
            problems.append(f"malformed table row {r!r}")
            continue
        parsed.append((p, runs))
        if qr != (p - 1) // 2:
            problems.append(f"p={p}: qr_count {qr} != (p-1)/2")
        if bound != (p - 1) * (runs + 2 * oracle.class_count_k(p)):
            problems.append(f"p={p}: count_bound {bound} != (p-1)(run_count+2k)")
        if status != oracle.coverage(p):
            problems.append(f"p={p}: coverage {status} != {oracle.coverage(p)}")
        if status == "uncovered_but_nonempty" and runs == 0:
            problems.append(f"p={p}: uncovered but run_count is 0")
    rng = random.Random(sample_seed)
    for p, runs in rng.sample(parsed, min(TABLE_RECOUNT_SAMPLE, len(parsed))):
        recount = len(oracle.run_starts(p))
        if runs != recount:
            problems.append(f"p={p}: run_count {runs} != recount {recount}")
    return problems


def _grid_problems(p: int, grid: dict, what: str) -> list[str]:
    """A residue class grid must be magic mod p, have zero center, and hold
    squares whose listed roots square back to the cells."""
    try:
        cells = [v for row in grid["cells"] for v in row]
        roots = [v for row in grid["roots"] for v in row]
    except (KeyError, TypeError):
        return [f"p={p}: {what} grid malformed"]
    if len(cells) != 9 or len(roots) != 9:
        return [f"p={p}: {what} grid is not 3x3"]
    problems = []
    if len({sum(cells[i] for i in line) % p for line in oracle.LINES}) != 1:
        problems.append(f"p={p}: {what} grid not magic mod p")
    if cells[4] % p:
        problems.append(f"p={p}: {what} grid center nonzero")
    for v, r in zip(cells, roots):
        if not oracle.is_square_mod(v, p) or r is None or (r * r - v) % p:
            problems.append(f"p={p}: {what} cell {v} is not the square of {r}")
            break
    return problems


def check_analyze(doc: dict, p: int) -> list[str]:
    r = doc.get("results", {})
    if doc.get("command") != "analyze" or r.get("p") != p:
        return [f"analyze {p}: wrong command or p"]
    problems = []
    if r.get("qr_count") != (p - 1) // 2 or len(r.get("qr_set", ())) != (p - 1) // 2:
        problems.append(f"p={p}: qr_count {r.get('qr_count')} != (p-1)/2")
    w = r.get("w")
    if not isinstance(w, int) or (w * w + 1) % p:
        problems.append(f"p={p}: w={w} is not a square root of -1")
    starts = oracle.run_starts(p)
    if r.get("consecutive_triples") != starts:
        problems.append(f"p={p}: consecutive_triples differ from the recount")
    bound = (p - 1) * (len(starts) + 2 * oracle.class_count_k(p))
    if r.get("count_bound") != bound:
        problems.append(f"p={p}: count_bound {r.get('count_bound')} != {bound}")
    if r.get("trivial_corner") is None:
        problems.append(f"p={p}: no trivial corner class")
    else:
        problems += _grid_problems(p, r["trivial_corner"], "corner")
    if (r.get("trivial_midedge") is not None) != (p % 8 == 1):
        problems.append(f"p={p}: mid-edge class present iff p = 1 (mod 8) fails")
    elif r.get("trivial_midedge") is not None:
        problems += _grid_problems(p, r["trivial_midedge"], "mid-edge")
    classes = r.get("nontrivial_classes") or []
    if len(classes) != len(r.get("consecutive_triples") or []):
        problems.append(f"p={p}: {len(classes)} nontrivial classes for {len(starts)} runs")
    for item in classes:
        problems += _grid_problems(p, item.get("grid", {}), f"class n={item.get('member')}")
        if len(problems) > 8:
            break
    oracle_block = r.get("oracle")
    if p <= doc.get("parameters", {}).get("max_oracle_p", 100):
        if not oracle_block or oracle_block.get("within_bound") is not True:
            problems.append(f"p={p}: oracle missing or outside the bound")
        elif oracle_block.get("count", bound + 1) > bound:
            problems.append(f"p={p}: oracle count {oracle_block.get('count')} > bound {bound}")
    elif oracle_block is not None:
        problems.append(f"p={p}: oracle ran above max_oracle_p")
    return problems


def check_construct(doc: dict, p: int, code: int) -> list[str]:
    r = doc.get("results", {})
    if doc.get("command") != "construct" or r.get("p") != p:
        return [f"construct {p}: wrong command or p"]
    expected = oracle.coverage(p)
    if r.get("coverage") != expected:
        return [f"p={p}: coverage {r.get('coverage')} != {expected}"]
    if expected not in oracle.CONSTRUCTIBLE:
        problems = []
        if code != 1 or r.get("constructed") is not False:
            problems.append(f"p={p}: unreachable prime gave exit {code}")
        if r.get("consecutive_triples") != oracle.run_starts(p):
            problems.append(f"p={p}: consecutive_triples differ from the recount")
        return problems
    if code != 0 or r.get("constructed") is not True:
        return [f"p={p}: constructible prime gave exit {code}"]
    t = r.get("triple", {})
    a, b, g = t.get("alpha", 0), t.get("beta", 0), t.get("gamma", 0)
    problems = []
    if 0 in (a % p, b % p, g % p):
        problems.append(f"p={p}: zero in unit triple")
    if (a * a - b * b - 1) % p or (b * b - g * g - 1) % p:
        problems.append(f"p={p}: alpha^2-beta^2 = beta^2-gamma^2 = 1 fails")
    if t.get("squares") != [a * a % p, b * b % p, g * g % p]:
        problems.append(f"p={p}: listed squares disagree with the triple")
    problems += _grid_problems(p, r.get("grid", {}), "constructed")
    return problems


def expected_verify(cells: tuple[int, ...]) -> dict:
    """The verdicts `verify` must print for a grid, computed independently."""
    total = oracle.is_magic_int(cells)
    square = all(oracle.is_square_int(v) for v in cells)
    d = 0
    for v in cells:
        d = gcd(d, v)
    out = {
        "magic": total is not None,
        "total": total,
        "total_is_triple_center": None if total is None else total == 3 * cells[4],
        "square_entried": square,
        "distinct": len(set(cells)) == 9,
        "all_zero": d == 0,
        "primitive": None if d == 0 else d == 1,
        "center": cells[4],
        "center_root": None,
        "verdicts": None,
        "residue_primes": None,
    }
    e = isqrt(cells[4])
    if e >= 1 and e * e == cells[4]:
        out["center_root"] = e
        f = oracle.factor(e, oracle.smallest_factors(e))
        out["verdicts"] = [
            [q, "admissible" if q == 2 or q % 4 == 1 else "inadmissible"] for q in sorted(f)
        ]
        if square:
            out["residue_primes"] = [q for q, v in out["verdicts"] if v == "admissible"]
    return out


def check_verify(doc: dict, cells: tuple[int, ...]) -> list[str]:
    r = doc.get("results", {})
    if doc.get("command") != "verify":
        return ["verify: wrong command"]
    exp = expected_verify(cells)
    problems = []
    grid = r.get("grid", {}).get("cells")
    if grid != [list(cells[0:3]), list(cells[3:6]), list(cells[6:9])]:
        problems.append("verify: grid read back differs from the file")
    for key in ("magic", "total", "total_is_triple_center", "square_entried",
                "distinct", "all_zero", "primitive", "center", "center_root"):
        if r.get(key) != exp[key]:
            problems.append(f"verify: {key} {r.get(key)!r} != {exp[key]!r}")
    check = r.get("center_check")
    got_verdicts = None if check is None else check.get("verdicts")
    if got_verdicts != exp["verdicts"]:
        problems.append(f"verify: center verdicts {got_verdicts} != {exp['verdicts']}")
    classes = r.get("residue_classes")
    got_primes = None if classes is None else [c.get("p") for c in classes]
    if got_primes != exp["residue_primes"]:
        problems.append(f"verify: residue classes for {got_primes} != {exp['residue_primes']}")
    for c in classes or []:
        q = c.get("p")
        if c.get("kind") == "residue":
            reduced = [[v % q for v in cells[i : i + 3]] for i in (0, 3, 6)]
            if c.get("cells") != reduced:
                problems.append(f"verify: residue cells mod {q} differ")
            magic = len({sum(cells[i] for i in line) % q for line in oracle.LINES}) == 1
            if c.get("magic") != magic:
                problems.append(f"verify: magic mod {q} is {c.get('magic')}, expected {magic}")
    return problems


def _magic_lines(cells: list[int], a: int, b: int) -> int | None:
    """How many of the eight lines sum to 3e², for a grid of nine distinct
    squares whose center is e² with e in [a, b]; None for any other grid."""
    if len(cells) != 9 or len(set(cells)) != 9 or not all(oracle.is_square_int(v) for v in cells):
        return None
    e = isqrt(cells[4])
    if not a <= e <= b:
        return None
    return sum(sum(cells[i] for i in line) == 3 * cells[4] for line in oracle.LINES)


def check_search(doc: dict, code: int, a: int, b: int, centers: oracle.CenterTable,
                 threshold: int) -> list[str]:
    """Hits must be magic squares of nine distinct squares; near misses the
    same with at least `threshold`, but not all, of the eight lines magic."""
    r = doc.get("results", {})
    if doc.get("command") != "search" or (r.get("e_min"), r.get("e_max")) != (a, b):
        return [f"search {a} {b}: wrong command or range"]
    problems = []
    if code != 0:
        problems.append(f"search {a} {b}: exit code {code}")
    pruned = centers.pruned_count(a, b)
    if r.get("pruned_centers") != pruned:
        problems.append(f"search {a} {b}: pruned {r.get('pruned_centers')} != sieve count {pruned}")
    hits, near = r.get("hits") or [], r.get("near_misses") or []
    if r.get("hit_count") != len(hits) or r.get("near_miss_count") != len(near):
        problems.append(f"search {a} {b}: hit or near-miss count disagrees with the grids listed")
    for kind, grids, lo, hi in (("hit", hits, 8, 8), ("near miss", near, threshold, 7)):
        for g in grids:
            cells = [v for row in g.get("cells", []) for v in row]
            lines = _magic_lines(cells, a, b)
            if lines is None or not lo <= lines <= hi:
                problems.append(f"search {a} {b}: {kind} {cells} is not nine distinct squares "
                                f"centered on e² in the range with {lo}-{hi} magic lines")
    return problems


def check_version(text: str) -> list[str]:
    parts = text.split()
    return [] if len(parts) == 2 and parts[0] == "residuum" else [f"--version printed {text!r}"]
