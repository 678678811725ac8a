"""Command-line surface: batch commands over the library with deterministic
machine-readable output.

Exit codes: 0 success, 1 domain failure (e.g. no construction reaches the
requested prime), 2 usage error (including a modulus or flag above its
ceiling), 3 input/parse error, 10 search hit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from collections import namedtuple
from math import isqrt

from . import __version__
from .congrua import (
    CONSTRUCTIBLE,
    MAX_SWEEP_M,
    Coverage,
    SMALL_CASE_TABLES,
    _classify_prime,
    ap_to_unit_triple,
    congruum_triple,
    coverage_status,
    eligible_params,
    sweep_congrua,
)
from .errors import (
    BadParameters,
    BadPrimeForm,
    BadRange,
    BoundExceeded,
    NotPrime,
    ParseError,
    ResiduumError,
)
from .fp import MAX_CONTEXT_P, make_context, primes_up_to, sqrt_mod
from .intgrid import (
    IntGrid,
    Mod2Class,
    admissible_center_check,
    has_even_center_line,
    is_distinct,
    is_magic,
    is_square_entried,
    mod2_classify,
    reduce_primitive,
    residue_class_of,
    total_is_triple_center,
)
from .residue import (
    MAX_ORACLE_P,
    ResidueGrid,
    classify,
    consecutive_triples,
    count_bound,
    enumerate_all,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    is_magic_class,
    magic_sum,
    run_count,
    triple_from_member,
)
from .search import search_msos

FORMAT_TABLE = "table"
FORMAT_STRUCTURED = "structured"
FORMAT_CSV = "csv"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_HIT = 10

PRUNING_RULE = (
    "primitive-only mode skips center roots with any prime factor = 3 (mod 4): "
    "no primitive magic square of squares can have such a center root, and a "
    "reducible one reappears at its reduced center root"
)
NEAR_MISS_NOTE = (
    "near-miss definition is a tooling choice: all four center lines correct "
    "by construction, at least threshold-of-8 sums correct in total, all nine "
    "entries distinct squares; the top and bottom rows are correct together, "
    "as are the left and right columns, so a candidate has 4, 6 or 8 correct "
    "sums and a threshold of 7 or 8 reports hits only"
)


class OutputDocument(
    namedtuple(
        "OutputDocument", "command parameters results tool_version", defaults=(__version__,)
    )
):
    """One command invocation's result, serialized with sorted keys so the
    structured form round-trips byte-identically."""

    __slots__ = ()

    def to_json(self) -> str:
        """Exactly `json.dumps(self._asdict(), sort_keys=True, indent=2)` plus
        a newline."""
        return _encode(self._asdict(), "\n") + "\n"


def _encode(o, newline: str) -> str:
    """`json.dumps(o, sort_keys=True, indent=2)`, built directly: json's
    indenting encoder is pure Python, and most of what the commands print is
    long lists of ints. `newline` is a newline plus the current indent.

    Exact ints go through `str`; dicts, lists and tuples (subclasses
    included) follow json's isinstance rules; every other value goes through
    json itself. Keys must be str: json's coercion of other keys is not
    imitated.
    """
    if type(o) is int:
        return str(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"structured output keys must be str, not {type(k).__name__}")
        inner = newline + "  "
        items = [json.dumps(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return _bracket("{", items, inner, newline + "}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        items = [str(v) if type(v) is int else _encode(v, inner) for v in o]
        return _bracket("[", items, inner, newline + "]")
    return json.dumps(o)


def _bracket(opening: str, items: list[str], inner: str, closing: str) -> str:
    # one join builds the whole text: adding brackets to the joined body
    # would copy it once per bracket, and the body can be most of the output
    items[0] = opening + inner + items[0]
    items[-1] += closing
    return ("," + inner).join(items)


def _residue_grid_payload(g: ResidueGrid) -> dict:
    root = g.context.root
    roots = [root[v] for v in g.vals]
    return {
        "cells": g.rows(),
        "roots": [roots[0:3], roots[3:6], roots[6:9]],
    }


def _int_grid_payload(g: IntGrid) -> dict:
    roots = [(isqrt(v) if isqrt(v) ** 2 == v else None) for v in g.cells]
    return {
        "cells": g.rows(),
        "roots": [roots[0:3], roots[3:6], roots[6:9]],
    }


def _triple_payload(t) -> dict:
    a2, b2, g2 = t.squares()
    return {
        "alpha": t.alpha,
        "beta": t.beta,
        "gamma": t.gamma,
        "squares": [a2, b2, g2],
    }


def _grid_block(payload: dict, indent: str = "  ") -> str:
    texts = []
    for crow, rrow in zip(payload["cells"], payload["roots"]):
        texts.append(
            [f"{v}={r}^2" if r is not None else str(v) for v, r in zip(crow, rrow)]
        )
    width = max(len(t) for row in texts for t in row)
    return "\n".join(indent + "  ".join(t.rjust(width) for t in row) for row in texts)


# ---------------------------------------------------------------- analyze


def run_analyze(p: int, max_oracle_p: int) -> OutputDocument:
    if max_oracle_p > MAX_ORACLE_P:
        raise BoundExceeded(
            f"--max-oracle-p {max_oracle_p} exceeds the oracle ceiling {MAX_ORACLE_P}; "
            "the enumeration's cost grows as p^3"
        )
    ctx = make_context(p)
    results: dict = {
        "p": p,
        "residue_form": ctx.residue_form,
        "qr_set": list(ctx.qr_set),
        "qr_count": len(ctx.qr_set),
        "w": ctx.w,
        "tau": ctx.tau,
        "consecutive_triples": None,
        "count_bound": None,
        "trivial_corner": None,
        "trivial_midedge": None,
        "nontrivial_classes": None,
        "oracle": None,
        "note": None,
        "mod2_patterns": None,
    }
    if p == 2:
        results["consecutive_triples"] = []
        results["mod2_patterns"] = [m.rows() for m in Mod2Class.patterns()]
        results["note"] = (
            "mod-2 analysis lives on the integer side: a magic grid with even "
            "center reduces to one of the four parity patterns listed"
        )
    elif p % 4 == 3:
        results["note"] = (
            "-1 is not a square mod p for p = 3 (mod 4), so x^2 + y^2 = 0 has "
            "only the zero solution: the only zero-center magic grid of squares "
            "is all-zero, and such p cannot divide the central entry of a "
            "primitive magic square of squares"
        )
    else:
        cset = list(consecutive_triples(ctx))
        results["consecutive_triples"] = cset
        results["count_bound"] = count_bound(ctx)
        results["trivial_corner"] = _residue_grid_payload(gen_trivial_corner(ctx))
        if p % 8 == 1:
            results["trivial_midedge"] = _residue_grid_payload(gen_trivial_midedge(ctx))
        nontrivial = []
        for n in cset:
            grid = gen_nontrivial(triple_from_member(ctx, n))
            nontrivial.append({"member": n, "grid": _residue_grid_payload(grid)})
        results["nontrivial_classes"] = nontrivial
        if p <= max_oracle_p:
            found = enumerate_all(ctx, max_p=max_oracle_p)
            results["oracle"] = {
                "count": len(found),
                "bound": results["count_bound"],
                "within_bound": len(found) <= results["count_bound"],
            }
    return OutputDocument("analyze", {"p": p, "max_oracle_p": max_oracle_p}, results)


def _render_analyze(r: dict) -> str:
    out = [f"p = {r['p']} ({r['residue_form']}); {r['qr_count']} quadratic residues"]
    out.append("S_p: " + " ".join(str(v) for v in r["qr_set"]))
    if r["w"] is not None:
        out.append(f"w = {r['w']} (order 4)")
    if r["tau"] is not None:
        out.append(f"tau = {r['tau']} (tau^2 = 2)")
    if r["consecutive_triples"] is not None:
        cset = " ".join(str(v) for v in r["consecutive_triples"]) or "(empty)"
        out.append(f"C_p: {cset}")
    if r["count_bound"] is not None:
        out.append(f"class count bound: {r['count_bound']}")
    if r["trivial_corner"] is not None:
        out.append("trivial corner class:")
        out.append(_grid_block(r["trivial_corner"]))
    if r["trivial_midedge"] is not None:
        out.append("trivial mid-edge class:")
        out.append(_grid_block(r["trivial_midedge"]))
    for item in r["nontrivial_classes"] or []:
        out.append(f"nontrivial class from n = {item['member']}:")
        out.append(_grid_block(item["grid"]))
    if r["oracle"] is not None:
        verdict = "satisfied" if r["oracle"]["within_bound"] else "VIOLATED"
        out.append(
            f"oracle: {r['oracle']['count']} grids enumerated; "
            f"bound {r['oracle']['bound']} {verdict}"
        )
    if r["mod2_patterns"] is not None:
        out.append("parity patterns (magic grids with even center):")
        for m in r["mod2_patterns"]:
            out.append("  " + " / ".join("".join(str(b) for b in row) for row in m))
    if r["note"]:
        out.append(f"note: {r['note']}")
    return "\n".join(out) + "\n"


# ------------------------------------------------------------------ table


def run_table(max_p: int) -> OutputDocument:
    if max_p < 5:
        raise BadRange(f"table needs max >= 5, got {max_p}")
    if max_p > MAX_CONTEXT_P:
        raise BoundExceeded(f"table max {max_p} exceeds the sieve ceiling {MAX_CONTEXT_P}")
    rows = []
    for p in primes_up_to(max_p):
        if p % 4 != 1:
            continue
        runs = run_count(p)
        k = 2 if p % 8 == 1 else 1
        rows.append(
            {
                "p": p,
                "qr_count": (p - 1) // 2,
                "run_count": runs,
                "coverage_status": _classify_prime(p).status.value,
                "count_bound": (p - 1) * (runs + 2 * k),
            }
        )
    return OutputDocument("table", {"max": max_p}, {"rows": rows})


_TABLE_COLUMNS = ("p", "qr_count", "run_count", "coverage_status", "count_bound")


def _render_table(r: dict) -> str:
    widths = {c: len(c) for c in _TABLE_COLUMNS}
    for row in r["rows"]:
        for c in _TABLE_COLUMNS:
            widths[c] = max(widths[c], len(str(row[c])))
    lines = ["  ".join(c.ljust(widths[c]) for c in _TABLE_COLUMNS)]
    for row in r["rows"]:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in _TABLE_COLUMNS))
    return "\n".join(lines) + "\n"


def _render_table_csv(r: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for row in r["rows"]:
        writer.writerow([row[c] for c in _TABLE_COLUMNS])
    return buf.getvalue()


# ----------------------------------------------------------------- verify


def parse_square_file(path: str) -> IntGrid:
    """Read 9 whitespace-separated nonnegative integers, row-major.

    '#' starts a comment; ParseError messages carry line and column.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0]
            for match in re.finditer(r"\S+", body):
                token = match.group()
                where = f"{path}:{lineno}:{match.start() + 1}"
                try:
                    v = int(token)
                except ValueError:
                    raise ParseError(f"{where}: not an integer: {token!r}") from None
                if v < 0:
                    raise ParseError(f"{where}: negative entry {v}")
                if len(values) == 9:
                    raise ParseError(f"{where}: more than 9 values")
                values.append(v)
    if len(values) != 9:
        raise ParseError(f"{path}: expected 9 values, found {len(values)}")
    return IntGrid(tuple(values))


def run_verify(path: str) -> OutputDocument:
    grid = parse_square_file(path)
    total = is_magic(grid)
    square_entried = is_square_entried(grid)
    all_zero = not any(grid.cells)
    results: dict = {
        "path": path,
        "grid": _int_grid_payload(grid),
        "magic": total is not None,
        "total": total,
        "total_is_triple_center": (
            total_is_triple_center(grid) if total is not None else None
        ),
        "square_entried": square_entried,
        "distinct": is_distinct(grid),
        "all_zero": all_zero,
        "primitive": None,
        "reduced": None,
        "center": grid.center,
        "center_root": None,
        "center_check": None,
        "residue_classes": None,
    }
    if not all_zero:
        reduced = reduce_primitive(grid)
        results["primitive"] = reduced == grid
        if reduced != grid:
            results["reduced"] = _int_grid_payload(reduced)
    e = isqrt(grid.center)
    if e * e == grid.center and e >= 1:
        results["center_root"] = e
        check = admissible_center_check(e)
        results["center_check"] = {
            "e": check.e,
            "verdicts": [[q, verdict] for q, verdict in check.verdicts],
            "warning": check.warning,
        }
        if square_entried:
            classes = []
            for q, verdict in check.verdicts:
                if verdict != "admissible":
                    continue
                classes.append(_residue_report(grid, q, total))
            results["residue_classes"] = classes
    return OutputDocument("verify", {"path": path}, results)


def _residue_report(grid: IntGrid, q: int, total) -> dict:
    if q == 2:
        entry: dict = {"p": 2, "kind": "parity", "pattern_index": None, "bits": None,
                       "center_line_all_even": None, "note": None}
        try:
            pattern = mod2_classify(grid)
        except ResiduumError as exc:
            entry["note"] = str(exc)
            return entry
        entry["pattern_index"] = pattern.index
        entry["bits"] = pattern.rows()
        entry["center_line_all_even"] = has_even_center_line(pattern)
        return entry
    ctx = make_context(q)
    rgrid = residue_class_of(grid, ctx)
    magic = is_magic_class(rgrid)
    entry = {
        "p": q,
        "kind": "residue",
        "cells": rgrid.rows(),
        "roots": _residue_grid_payload(rgrid)["roots"],
        "magic": magic,
        "sum": magic_sum(rgrid),
        "classification": None,
    }
    if magic and rgrid.center == 0:
        entry["classification"] = classify(rgrid).value
    return entry


def _render_verify(r: dict) -> str:
    out = [f"grid from {r['path']}:"]
    out.append(_grid_block(r["grid"]))
    out.append(f"magic: {_yn(r['magic'])}" + (f" (T = {r['total']})" if r["magic"] else ""))
    if r["total_is_triple_center"] is not None:
        out.append(f"total = 3 x center: {_yn(r['total_is_triple_center'])}")
    out.append(f"square-entried: {_yn(r['square_entried'])}")
    out.append(f"distinct entries: {_yn(r['distinct'])}")
    if r["primitive"] is not None:
        out.append(f"primitive: {_yn(r['primitive'])}")
        if r["reduced"] is not None:
            out.append("reduced form:")
            out.append(_grid_block(r["reduced"]))
    if r["center_root"] is None:
        out.append(f"center {r['center']} is not a perfect square; no center-root analysis")
    else:
        out.append(f"center root e = {r['center_root']}")
        for q, verdict in r["center_check"]["verdicts"]:
            out.append(f"  prime {q}: {verdict}")
        if r["center_check"]["warning"]:
            out.append(f"  warning: {r['center_check']['warning']}")
    for entry in r["residue_classes"] or []:
        if entry["kind"] == "parity":
            if entry["pattern_index"] is None:
                out.append(f"mod 2: {entry['note']}")
            else:
                bits = " / ".join("".join(str(b) for b in row) for row in entry["bits"])
                out.append(
                    f"mod 2: pattern #{entry['pattern_index']} ({bits}); "
                    f"all-even center line: {_yn(entry['center_line_all_even'])}"
                )
        else:
            out.append(f"residue class mod {entry['p']}:")
            out.append(_grid_block({"cells": entry["cells"], "roots": entry["roots"]}))
            if entry["classification"] is not None:
                out.append(f"  magic with sum {entry['sum']}; class: {entry['classification']}")
            else:
                out.append(f"  magic: {_yn(entry['magic'])}")
    return "\n".join(out) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# -------------------------------------------------------------- construct


def run_construct(p: int, sweep_max_m: int) -> tuple[OutputDocument, int]:
    # refuse before the O(p) context: the sweep bound, the ceiling, then the
    # primality proof, then p = 3 (mod 4); make_context's second proof is
    # O(sqrt(p))
    if not 2 <= sweep_max_m <= MAX_SWEEP_M:
        raise BadParameters(
            f"--sweep-max-m must be in [2, {MAX_SWEEP_M}], got {sweep_max_m}; "
            "the sweep tries about 0.2 * m^2 progressions"
        )
    if p > MAX_CONTEXT_P:
        raise BoundExceeded(f"p={p} exceeds the context ceiling {MAX_CONTEXT_P}")
    status = coverage_status(p)
    ctx = make_context(p)
    parameters = {"p": p, "sweep_max_m": sweep_max_m}
    if status.status not in CONSTRUCTIBLE:
        cset = list(consecutive_triples(ctx))
        tried = eligible_params(sweep_max_m)
        successes = [
            [m, n, t.squares()[2]] for m, n, t in sweep_congrua(ctx, sweep_max_m)
        ]
        note = (
            f"no consecutive residue runs exist mod {p}"
            if not cset
            else f"neither residue criterion reaches {p}; its runs are only known numerically"
        )
        results = {
            "p": p,
            "coverage": status.status.value,
            "constructed": False,
            "note": note,
            "consecutive_triples": cset,
            "sweeps_tried": [[m, n] for m, n in tried],
            "sweeps_successful": successes,
        }
        return OutputDocument("construct", parameters, results), EXIT_FAILURE

    if status.status in (Coverage.COVERED_MOD20, Coverage.COVERED_BOTH):
        route = "table" if p in SMALL_CASE_TABLES else "mod20"
        prog = None if p in SMALL_CASE_TABLES else congruum_triple(5, 4)
    elif status.status is Coverage.COVERED_MOD24:
        route, prog = "mod24", congruum_triple(2, 1)
    else:
        route, prog = "table", None

    chain = None
    progression = None
    if prog is None:
        members = SMALL_CASE_TABLES[p]
        triple = triple_from_member(ctx, members[0])
        table_members: list | None = list(members)
    else:
        triple = ap_to_unit_triple(prog, ctx)
        table_members = None
        root = sqrt_mod(ctx, prog.d)
        progression = {"x": prog.x, "y": prog.y, "z": prog.z, "d": prog.d}
        chain = {
            "x_sq_mod_p": prog.x ** 2 % p,
            "y_sq_mod_p": prog.y ** 2 % p,
            "z_sq_mod_p": prog.z ** 2 % p,
            "d_mod_p": prog.d % p,
            "d_root": root,
            "root_inverse": pow(root, -1, p),
        }
    grid = gen_nontrivial(triple)
    results = {
        "p": p,
        "coverage": status.status.value,
        "constructed": True,
        "route": route,
        "progression": progression,
        "chain": chain,
        "table_members": table_members,
        "triple": _triple_payload(triple),
        "member": triple.squares()[2],
        "grid": _residue_grid_payload(grid),
    }
    return OutputDocument("construct", parameters, results), EXIT_OK


def _render_construct(r: dict) -> str:
    out = [f"p = {r['p']}; coverage: {r['coverage']}"]
    if not r["constructed"]:
        out.append(f"no construction: {r['note']}")
        cset = " ".join(str(v) for v in r["consecutive_triples"]) or "(empty)"
        out.append(f"C_p: {cset}")
        out.append(f"progressions tried: {len(r['sweeps_tried'])}")
        if r["sweeps_successful"]:
            ok = ", ".join(f"(m={m}, n={n}) -> {g}" for m, n, g in r["sweeps_successful"])
            out.append(f"progressions that do map in: {ok}")
        return "\n".join(out) + "\n"
    if r["chain"] is not None:
        pr = r["progression"]
        ch = r["chain"]
        out.append(
            f"progression {pr['x']}^2, {pr['y']}^2, {pr['z']}^2 "
            f"(difference {pr['d']}) reduced mod {r['p']}:"
        )
        out.append(
            f"  squares reduce to {ch['x_sq_mod_p']}, {ch['y_sq_mod_p']}, {ch['z_sq_mod_p']}; "
            f"difference {ch['d_mod_p']} = {ch['d_root']}^2; "
            f"inverse of {ch['d_root']} is {ch['root_inverse']}"
        )
    else:
        out.append(
            "served from the stored run table: members "
            + " ".join(str(v) for v in r["table_members"])
        )
    t = r["triple"]
    out.append(
        f"unit triple: alpha={t['alpha']}, beta={t['beta']}, gamma={t['gamma']} "
        f"with squares {tuple(t['squares'])}"
    )
    out.append("nontrivial class:")
    out.append(_grid_block(r["grid"]))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------- search


def run_search(
    e_min: int, e_max: int, primitive_only: bool, threshold: int, workers: int
) -> tuple[OutputDocument, int]:
    report = search_msos(
        e_min,
        e_max,
        primitive_only,
        near_miss_threshold=threshold,
        workers=workers,
    )
    results = {
        "e_min": e_min,
        "e_max": e_max,
        "primitive_only": primitive_only,
        "near_miss_threshold": threshold,
        "workers": workers,
        "pruned_centers": report.pruned_centers,
        "candidates_tested": report.candidates_tested,
        "hit_count": len(report.hits),
        "near_miss_count": len(report.near_misses),
        "hits": [_int_grid_payload(g) for g in report.hits],
        "near_misses": [_int_grid_payload(g) for g in report.near_misses],
        "pruning_rule": PRUNING_RULE if primitive_only else None,
        "near_miss_note": NEAR_MISS_NOTE,
    }
    parameters = {
        "e_min": e_min,
        "e_max": e_max,
        "primitive_only": primitive_only,
        "near_miss_threshold": threshold,
        "workers": workers,
    }
    code = EXIT_HIT if report.hits else EXIT_OK
    return OutputDocument("search", parameters, results), code


def _render_search(r: dict) -> str:
    out = [
        f"searched center roots e in [{r['e_min']}, {r['e_max']}]; "
        f"primitive-only: {_yn(r['primitive_only'])}"
    ]
    if r["pruning_rule"]:
        out.append(f"pruning rule: {r['pruning_rule']}")
    out.append(
        f"pruned centers: {r['pruned_centers']}; "
        f"candidates tested: {r['candidates_tested']}; "
        f"hits: {r['hit_count']}; near misses: {r['near_miss_count']}"
    )
    for payload in r["hits"]:
        out.append("HIT:")
        out.append(_grid_block(payload))
    for payload in r["near_misses"]:
        out.append(f"near miss ({r['near_miss_threshold']}/8 sums or better):")
        out.append(_grid_block(payload))
    return "\n".join(out) + "\n"


# ------------------------------------------------------------------- main


def _add_format(sub: argparse.ArgumentParser, csv_ok: bool = False) -> None:
    choices = [FORMAT_TABLE, FORMAT_STRUCTURED] + ([FORMAT_CSV] if csv_ok else [])
    sub.add_argument(
        "--format",
        choices=choices,
        default=FORMAT_TABLE,
        help="table (human-readable, default) or structured (deterministic JSON)"
        + ("; csv for spreadsheets" if csv_ok else ""),
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="residuum",
        description="mod-p analysis of 3x3 magic squares of squares",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze", help="residue tables, canonical classes, bound and oracle for one prime"
    )
    pa.add_argument("p", type=int, help="prime modulus")
    pa.add_argument(
        "--max-oracle-p",
        type=int,
        default=100,
        help="run the brute-force class enumeration when p is at most this "
        f"(default 100, at most {MAX_ORACLE_P})",
    )
    _add_format(pa)

    pt = sub.add_parser("table", help="per-prime summary rows up to a bound")
    pt.add_argument("max", type=int, help="largest prime to include (>= 5)")
    _add_format(pt, csv_ok=True)

    pv = sub.add_parser("verify", help="check a candidate grid from a file")
    pv.add_argument("path", help="file with 9 whitespace-separated nonnegative integers")
    _add_format(pv)

    pc = sub.add_parser(
        "construct", help="build a nontrivial residue class for a prime, showing the chain"
    )
    pc.add_argument("p", type=int, help="prime = 1 (mod 4)")
    pc.add_argument(
        "--sweep-max-m",
        type=int,
        default=10,
        help="largest m for the exploratory progression sweep on uncovered primes "
        f"(default 10, from 2 to {MAX_SWEEP_M})",
    )
    _add_format(pc)

    ps = sub.add_parser("search", help="exhaustive integer search over center roots")
    ps.add_argument("e_min", type=int)
    ps.add_argument("e_max", type=int)
    ps.add_argument(
        "--primitive-only",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="prune center roots with a prime factor = 3 (mod 4) (default on)",
    )
    ps.add_argument(
        "--near-miss-threshold",
        type=int,
        default=7,
        help="report grids with at least this many of the 8 sums correct, 0 to 8 "
        "(default 7); every candidate has 4, 6 or 8, so 7 reports hits only",
    )
    ps.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes; defaults to RESIDUUM_THREADS or one per core",
    )
    _add_format(ps)
    return ap


def _resolve_workers(requested: int | None) -> int:
    if requested is not None:
        if requested < 1:
            raise BadParameters(f"--workers must be at least 1, got {requested}")
        return requested
    env = os.environ.get("RESIDUUM_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise BadParameters(f"RESIDUUM_THREADS must be a positive integer, got {env!r}")
    return workers


def _emit(doc: OutputDocument, fmt: str, renderer) -> None:
    if fmt == FORMAT_STRUCTURED:
        sys.stdout.write(doc.to_json())
    else:
        sys.stdout.write(renderer(doc.results))


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "analyze":
        doc = run_analyze(args.p, args.max_oracle_p)
        _emit(doc, args.format, _render_analyze)
        return EXIT_OK
    if args.command == "table":
        doc = run_table(args.max)
        if args.format == FORMAT_CSV:
            sys.stdout.write(_render_table_csv(doc.results))
        else:
            _emit(doc, args.format, _render_table)
        return EXIT_OK
    if args.command == "verify":
        doc = run_verify(args.path)
        _emit(doc, args.format, _render_verify)
        return EXIT_OK
    if args.command == "construct":
        doc, code = run_construct(args.p, args.sweep_max_m)
        _emit(doc, args.format, _render_construct)
        return code
    if args.command == "search":
        workers = _resolve_workers(args.workers)
        doc, code = run_search(
            args.e_min, args.e_max, args.primitive_only, args.near_miss_threshold, workers
        )
        _emit(doc, args.format, _render_search)
        return code
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; normalize its exit code
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotPrime, BadPrimeForm, BadRange, BadParameters, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResiduumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
