"""Command-line surface: batch commands over the library with deterministic
machine-readable output.

Exit codes: 0 success, 1 domain failure (e.g. no construction reaches the
requested prime), 2 usage error (including a modulus or flag above its
ceiling), 3 input/parse error, 10 search hit, 141 (128 + SIGPIPE) when the
reader closed stdout before the output was written.

Every refusal happens before the first byte of output. Each form is then
written in pieces as it is made: every long list is derived again as it is
written, in chunks, and `search` maps the grids of its report as it writes
them. Only the human `table` holds its rows, since its column widths need
them all; `search`'s report holds its grids.

A call pays only for what its command uses. `_read_argv` reads a well-formed
command line from the same table `build_parser` is made from, so argparse is
imported only for help, usage errors and the forms the reader leaves to it;
the structured form is written without `json`, which encodes only values
that no command prints; and `intgrid` and `search` are imported by the
functions that use them, so `analyze`, `table` and `construct` load neither.
A process started by `python -m residuum` or the `residuum` script runs
`entry`, which after `main` returns freezes the garbage collector, so the
interpreter's final collections skip every object the call made; `main`,
which tests and library callers run in-process, never freezes.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import islice
from math import isqrt
from types import SimpleNamespace

from . import __version__
from .congrua import (
    MAX_SWEEP_M,
    _classify_prime,
    construct,
    coverage_status,
    eligible_params,
    sweep_congrua,
)
from .errors import (
    BadParameters,
    BadPrimeForm,
    BadRange,
    BoundExceeded,
    NotCovered,
    NotPrime,
    ParseError,
    ResiduumError,
)
from .fp import MAX_CONTEXT_P, make_context, primes_up_to, sqrt_mod
from .grid_ops import rows_of
from .residue import (
    MAX_COUNT_P,
    classes_from_sum_equations,
    classify,
    consecutive_runs,
    count_bound,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    is_magic_class,
    magic_sum,
    nontrivial_fields,
    run_count,
)

FORMAT_TABLE = "table"
FORMAT_STRUCTURED = "structured"
FORMAT_CSV = "csv"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_HIT = 10
EXIT_PIPE = 141

# Most worker processes `search` may start: a process pool forks all of its
# workers at the first task, so a larger count is refused before any start.
MAX_WORKERS = 64

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
        a newline, with each LazyList written as the list it yields."""
        return "".join(self.chunks())

    def chunks(self) -> Iterator[str]:
        """The text of `to_json` in pieces, each LazyList in batches."""
        yield from _chunks(self._asdict(), "\n")
        yield "\n"


# Items per piece when a long list is written: a piece of class entries is
# about 0.6 MB, and one of ints about 10 KB.
_BATCH = 1024


def _batches(items) -> Iterator[list]:
    """Lists of up to _BATCH consecutive items."""
    it = iter(items)
    while batch := list(islice(it, _BATCH)):
        yield batch


def _encode_items(batch: list, inner: str) -> str:
    """List items as `_chunks` writes them at indent `inner`, joined."""
    return ("," + inner).join(
        [str(v) if type(v) is int else "".join(_chunks(v, inner)) for v in batch]
    )


class LazyList:
    """A list of the structured output that is made again, in order, each time
    it is read, so that no output holds it whole: `items()` returns a fresh
    iterator over its items, and `encode(batch, inner)` the text of a batch
    of them at indent `inner`, joined as `_chunks` joins list items. It
    stands as a dict value, which is where `_chunks` reads it in batches."""

    __slots__ = ("items", "encode")

    def __init__(self, items, encode=_encode_items):
        self.items = items
        self.encode = encode

    def __iter__(self):
        return self.items()


_ESCAPES = {c: "\\u%04x" % c for c in (*range(0x20), 0x7F)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')})


def _escape_non_ascii(c: str) -> str:
    n = ord(c)
    if n < 0x10000:
        return "\\u%04x" % n
    n -= 0x10000
    return "\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF)


def _quote(s: str) -> str:
    """`json.dumps(s)`: `"` and `\\` escaped, the five short escapes, every
    other character outside space..`~` as `\\uXXXX`, and one above U+FFFF
    as its surrogate pair."""
    text = s.translate(_ESCAPES)
    if not text.isascii():
        text = "".join(c if c < "\x80" else _escape_non_ascii(c) for c in text)
    return '"' + text + '"'


def _chunks(o, newline: str) -> Iterator[str]:
    """`json.dumps(o, sort_keys=True, indent=2)` in pieces, built directly:
    json's indenting encoder is pure Python, and most of what the commands
    print is long lists of ints. `newline` is a newline plus the current
    indent. A dict is split at its keys and a LazyList is read in batches;
    any other value is one piece.

    Exact ints go through `str`; dicts, lists and tuples (subclasses
    included) and strs follow json's isinstance rules, and True, False and
    None are written as json writes them. Every other value, which no
    command prints, goes through json itself, imported when one is met. Keys
    must be str: json's coercion of other keys is not imitated.
    """
    if type(o) is int:
        yield str(o)
    elif isinstance(o, LazyList):
        batches = _batches(o)
        first = next(batches, None)
        if first is None:
            yield "[]"
            return
        inner = newline + "  "
        yield "[" + inner + o.encode(first, inner)
        for batch in batches:
            yield "," + inner + o.encode(batch, inner)
        yield newline + "]"
    elif isinstance(o, dict):
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"structured output keys must be str, not {type(k).__name__}")
        if not o:
            yield "{}"
            return
        inner = newline + "  "
        opening = "{" + inner
        for k in sorted(o):
            yield opening + _quote(k) + ": "
            yield from _chunks(o[k], inner)
            opening = "," + inner
        yield newline + "}"
    elif isinstance(o, (list, tuple)):
        if not o:
            yield "[]"
            return
        inner = newline + "  "
        yield "[" + inner + _encode_items(o, inner) + newline + "]"
    elif isinstance(o, str):
        yield _quote(o)
    elif o is None:
        yield "null"
    elif o is True or o is False:
        yield "true" if o else "false"
    else:
        import json

        yield json.dumps(o)


def _grid_payload(cells, roots) -> dict:
    """The structured form of a 3x3 grid from its nine cells and their nine
    roots, row-major, a root None where its cell is not a square."""
    return {"cells": rows_of(cells), "roots": rows_of(roots)}


def _int_roots(g) -> list:
    """The roots of an IntGrid's cells, None where a cell is not a square."""
    return [r if (r := isqrt(v)) * r == v else None for v in g.cells]


def _triple_payload(t) -> dict:
    a2, b2, g2 = t.squares()
    return {
        "alpha": t.alpha,
        "beta": t.beta,
        "gamma": t.gamma,
        "squares": [a2, b2, g2],
    }


_BLOCK = "  {}  {}  {}\n  {}  {}  {}\n  {}  {}  {}"


def _grid_block(cells, roots) -> str:
    """Three indented rows of `v=r^2`, or `v` where r is None, right-aligned
    to the widest."""
    texts = [str(v) if r is None else f"{v}={r}^2" for v, r in zip(cells, roots)]
    width = max(map(len, texts))
    return _BLOCK.format(*[t.rjust(width) for t in texts])


def _payload_block(g: dict) -> str:
    """`_grid_block` of a grid payload."""
    return _grid_block(sum(g["cells"], []), sum(g["roots"], []))


def _bits(rows) -> str:
    """A parity pattern's rows as `011 / 101 / 110`."""
    return " / ".join("".join(map(str, row)) for row in rows)


# ---------------------------------------------------------------- analyze


def _fields_template(value, inner: str) -> str:
    """The text `_chunks` writes at indent `inner` for `value`, whose ints are
    0, 1, 2, ... in the order `_chunks` writes them, as a %-template of those
    fields. The text has no other digits, so a field written out of order
    shows."""
    text = "".join(_chunks(value, inner))
    fields = re.findall(r"\d+", text)
    if fields != [str(i) for i in range(len(fields))]:
        raise AssertionError("a template's fields must be in the order _chunks writes them")
    return re.sub(r"\d+", "%d", text)


# The structured form of a grid from its nine cells and nine roots, in that
# order, since "cells" < "roots".
_GRID_FIELDS = _grid_payload(range(9), range(9, 18))


@lru_cache(maxsize=None)
def _class_entry_template(inner: str) -> str:
    """The text `_chunks` writes at indent `inner` for one `nontrivial_classes`
    entry, as a %-template of its 19 fields: the nine cells and the nine cell
    roots, row-major, then the member n, since "grid" < "member"."""
    return _fields_template({"grid": _GRID_FIELDS, "member": 18}, inner)


@lru_cache(maxsize=None)
def _grid_template(inner: str) -> str:
    """The text `_chunks` writes at indent `inner` for one grid, as a
    %-template of its nine cells and nine roots."""
    return _fields_template(_GRID_FIELDS, inner)


def _encode_class_entries(batch: list, inner: str) -> str:
    return ("," + inner).join(map(_class_entry_template(inner).__mod__, batch))


def run_analyze(p: int, max_oracle_p: int) -> OutputDocument:
    """Every refusal is raised here; the long lists of the result are
    LazyLists, read from the context's root table when they are written."""
    if max_oracle_p < 0:
        raise BadParameters(f"--max-oracle-p must be at least 0, got {max_oracle_p}")
    if max_oracle_p > MAX_COUNT_P:
        raise BoundExceeded(
            f"--max-oracle-p {max_oracle_p} exceeds the oracle ceiling {MAX_COUNT_P}; "
            "the count's cost grows as p^2/64"
        )
    ctx = make_context(p)
    results: dict = {
        "p": p,
        "residue_form": "two" if p == 2 else ("one_mod_four" if p % 4 == 1 else "three_mod_four"),
        "qr_set": LazyList(ctx.residues),
        "qr_count": 1 if p == 2 else (p - 1) // 2,
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
        from .intgrid import Mod2Class

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
        results["consecutive_triples"] = LazyList(lambda: consecutive_runs(ctx))
        results["count_bound"] = count_bound(p, run_count(p))
        corner = gen_trivial_corner(ctx)
        results["trivial_corner"] = _grid_payload(corner.vals, corner.roots())
        if p % 8 == 1:
            midedge = gen_trivial_midedge(ctx)
            results["trivial_midedge"] = _grid_payload(midedge.vals, midedge.roots())
        results["nontrivial_classes"] = LazyList(
            lambda: nontrivial_fields(ctx), _encode_class_entries
        )
        if p <= max_oracle_p:
            count = classes_from_sum_equations(p)
            results["oracle"] = {
                "count": count,
                "bound": results["count_bound"],
                "within_bound": count <= results["count_bound"],
            }
    return OutputDocument("analyze", {"p": p, "max_oracle_p": max_oracle_p}, results)


def _cp_line(runs) -> Iterator[str]:
    return _spaced("C_p: ", runs, "(empty)")


def _spaced(head: str, items, empty: str = "") -> Iterator[str]:
    """The line `head + (" ".join(map(str, items)) or empty)` in pieces."""
    batches = _batches(items)
    first = next(batches, None)
    if first is None:
        yield head + empty + "\n"
        return
    yield head + " ".join(map(str, first))
    for batch in batches:
        yield " " + " ".join(map(str, batch))
    yield "\n"


def _render_analyze(r: dict) -> Iterator[str]:
    yield f"p = {r['p']} ({r['residue_form']}); {r['qr_count']} quadratic residues\n"
    yield from _spaced("S_p: ", r["qr_set"])
    if r["w"] is not None:
        yield f"w = {r['w']} (order 4)\n"
    if r["tau"] is not None:
        yield f"tau = {r['tau']} (tau^2 = 2)\n"
    if r["consecutive_triples"] is not None:
        yield from _cp_line(r["consecutive_triples"])
    if r["count_bound"] is not None:
        yield f"class count bound: {r['count_bound']}\n"
    if r["trivial_corner"] is not None:
        yield "trivial corner class:\n" + _payload_block(r["trivial_corner"]) + "\n"
    if r["trivial_midedge"] is not None:
        yield "trivial mid-edge class:\n" + _payload_block(r["trivial_midedge"]) + "\n"
    for batch in _batches(r["nontrivial_classes"] or ()):
        yield "".join(
            f"nontrivial class from n = {f[18]}:\n{_grid_block(f[0:9], f[9:18])}\n"
            for f in batch
        )
    if r["oracle"] is not None:
        verdict = "satisfied" if r["oracle"]["within_bound"] else "VIOLATED"
        yield (
            f"oracle: {r['oracle']['count']} grids enumerated; "
            f"bound {r['oracle']['bound']} {verdict}\n"
        )
    if r["mod2_patterns"] is not None:
        yield "parity patterns (magic grids with even center):\n"
        for m in r["mod2_patterns"]:
            yield "  " + _bits(m) + "\n"
    if r["note"]:
        yield f"note: {r['note']}\n"


# ------------------------------------------------------------------ table


def _table_rows(max_p: int) -> Iterator[dict]:
    for p in primes_up_to(max_p):
        if p % 4 != 1:
            continue
        runs = run_count(p)
        yield {
            "p": p,
            "qr_count": (p - 1) // 2,
            "run_count": runs,
            "coverage_status": _classify_prime(p).value,
            "count_bound": count_bound(p, runs),
        }


def run_table(max_p: int) -> OutputDocument:
    """Every refusal is raised here; the rows are a LazyList, made from closed
    forms, one prime at a time, each time they are written."""
    if max_p < 5:
        raise BadRange(f"table needs max >= 5, got {max_p}")
    if max_p > MAX_CONTEXT_P:
        raise BoundExceeded(f"table max {max_p} exceeds the sieve ceiling {MAX_CONTEXT_P}")
    return OutputDocument("table", {"max": max_p}, {"rows": LazyList(lambda: _table_rows(max_p))})


_TABLE_COLUMNS = ("p", "qr_count", "run_count", "coverage_status", "count_bound")


def _render_table(r: dict) -> Iterator[str]:
    # the column widths need every row, so this form holds the rows; it reads
    # them once, since each read of the LazyList makes them again
    rows = list(r["rows"])
    widths = {c: len(c) for c in _TABLE_COLUMNS}
    for row in rows:
        for c in _TABLE_COLUMNS:
            widths[c] = max(widths[c], len(str(row[c])))
    yield "  ".join(c.ljust(widths[c]) for c in _TABLE_COLUMNS) + "\n"
    for row in rows:
        yield "  ".join(str(row[c]).ljust(widths[c]) for c in _TABLE_COLUMNS) + "\n"


def _render_table_csv(r: dict) -> Iterator[str]:
    # no field holds a comma, quote or newline, so none is quoted
    yield ",".join(_TABLE_COLUMNS) + "\n"
    for row in r["rows"]:
        yield ",".join([str(row[c]) for c in _TABLE_COLUMNS]) + "\n"


# ----------------------------------------------------------------- verify


def parse_square_file(path: str):
    """The IntGrid of 9 whitespace-separated nonnegative integers, row-major.

    '#' starts a comment; ParseError messages carry line and column, and a
    file that cannot be opened or read is a ParseError too.
    """
    from .intgrid import IntGrid

    values = []
    try:
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    if len(values) != 9:
        raise ParseError(f"{path}: expected 9 values, found {len(values)}")
    return IntGrid(tuple(values))


def run_verify(path: str) -> OutputDocument:
    from .intgrid import (
        admissible_center_check,
        is_distinct,
        is_magic,
        is_square_entried,
        reduce_primitive,
        total_is_triple_center,
    )
    from .search import MAX_CENTER_ROOT

    grid = parse_square_file(path)
    total = is_magic(grid)
    square_entried = is_square_entried(grid)
    all_zero = not any(grid.cells)
    results: dict = {
        "path": path,
        "grid": _grid_payload(grid.cells, _int_roots(grid)),
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
            results["reduced"] = _grid_payload(reduced.cells, _int_roots(reduced))
    e = isqrt(grid.center)
    if e * e == grid.center and e >= 1:
        if e > MAX_CENTER_ROOT:
            raise BoundExceeded(
                f"center root {e} exceeds the factoring ceiling {MAX_CENTER_ROOT}; "
                "trial division takes about sqrt(e)/2 steps"
            )
        results["center_root"] = e
        check = admissible_center_check(e)
        results["center_check"] = {
            "e": e,
            "verdicts": [[q, verdict] for q, verdict in check.verdicts],
            "warning": check.warning,
        }
        if square_entried:
            classes = []
            for q, verdict in check.verdicts:
                if verdict != "admissible":
                    continue
                classes.append(_residue_report(grid, q))
            results["residue_classes"] = classes
    return OutputDocument("verify", {"path": path}, results)


def _residue_report(grid, q: int) -> dict:
    from .intgrid import has_even_center_line, mod2_classify, residue_class_of

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
        **_grid_payload(rgrid.vals, rgrid.roots()),
        "magic": magic,
        "sum": magic_sum(rgrid),
        "classification": None,
    }
    if magic and rgrid.center == 0:
        entry["classification"] = classify(rgrid).value
    return entry


def _render_verify(r: dict) -> Iterator[str]:
    # a name's undecodable bytes (lone surrogates) are escaped as stderr
    # escapes them, so that a strict stdout can write the line
    path = r["path"].encode("utf-8", "backslashreplace").decode("utf-8")
    yield f"grid from {path}:\n" + _payload_block(r["grid"]) + "\n"
    yield f"magic: {_yn(r['magic'])}" + (f" (T = {r['total']})" if r["magic"] else "") + "\n"
    if r["total_is_triple_center"] is not None:
        yield f"total = 3 x center: {_yn(r['total_is_triple_center'])}\n"
    yield f"square-entried: {_yn(r['square_entried'])}\n"
    yield f"distinct entries: {_yn(r['distinct'])}\n"
    if r["primitive"] is not None:
        yield f"primitive: {_yn(r['primitive'])}\n"
        if r["reduced"] is not None:
            yield "reduced form:\n" + _payload_block(r["reduced"]) + "\n"
    if r["center"] == 0:
        yield "center 0 = 0^2 has no prime factors; no center-root analysis\n"
    elif r["center_root"] is None:
        yield f"center {r['center']} is not a perfect square; no center-root analysis\n"
    else:
        yield f"center root e = {r['center_root']}\n"
        for q, verdict in r["center_check"]["verdicts"]:
            yield f"  prime {q}: {verdict}\n"
        if r["center_check"]["warning"]:
            yield f"  warning: {r['center_check']['warning']}\n"
    for entry in r["residue_classes"] or []:
        if entry["kind"] == "parity":
            if entry["pattern_index"] is None:
                yield f"mod 2: {entry['note']}\n"
            else:
                yield (
                    f"mod 2: pattern #{entry['pattern_index']} ({_bits(entry['bits'])}); "
                    f"all-even center line: {_yn(entry['center_line_all_even'])}\n"
                )
        else:
            yield f"residue class mod {entry['p']}:\n" + _payload_block(entry) + "\n"
            if entry["classification"] is not None:
                yield f"  magic with sum {entry['sum']}; class: {entry['classification']}\n"
            else:
                yield f"  magic: {_yn(entry['magic'])}\n"


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
    runs = LazyList(lambda: consecutive_runs(ctx))
    try:
        route, prog, triple = construct(ctx)
    except NotCovered:
        tried = eligible_params(sweep_max_m)
        successes = [
            [m, n, t.squares()[2]] for m, n, t in sweep_congrua(ctx, sweep_max_m)
        ]
        note = (
            f"no consecutive residue runs exist mod {p}"
            if run_count(p) == 0
            else f"neither residue criterion reaches {p}; its runs are only known numerically"
        )
        results = {
            "p": p,
            "coverage": status.value,
            "constructed": False,
            "note": note,
            "consecutive_triples": runs,
            "sweeps_tried": [[m, n] for m, n in tried],
            "sweeps_successful": successes,
        }
        return OutputDocument("construct", parameters, results), EXIT_FAILURE

    chain = None
    progression = None
    table_members = None
    if prog is None:
        table_members = runs
    else:
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
        "coverage": status.value,
        "constructed": True,
        "route": route,
        "progression": progression,
        "chain": chain,
        "table_members": table_members,
        "triple": _triple_payload(triple),
        "member": triple.squares()[2],
        "grid": _grid_payload(grid.vals, grid.roots()),
    }
    return OutputDocument("construct", parameters, results), EXIT_OK


def _render_construct(r: dict) -> Iterator[str]:
    yield f"p = {r['p']}; coverage: {r['coverage']}\n"
    if not r["constructed"]:
        yield f"no construction: {r['note']}\n"
        yield from _cp_line(r["consecutive_triples"])
        yield f"progressions tried: {len(r['sweeps_tried'])}\n"
        if r["sweeps_successful"]:
            ok = ", ".join(f"(m={m}, n={n}) -> {g}" for m, n, g in r["sweeps_successful"])
            yield f"progressions that do map in: {ok}\n"
        return
    if r["chain"] is not None:
        pr = r["progression"]
        ch = r["chain"]
        yield (
            f"progression {pr['x']}^2, {pr['y']}^2, {pr['z']}^2 "
            f"(difference {pr['d']}) reduced mod {r['p']}:\n"
            f"  squares reduce to {ch['x_sq_mod_p']}, {ch['y_sq_mod_p']}, {ch['z_sq_mod_p']}; "
            f"difference {ch['d_mod_p']} = {ch['d_root']}^2; "
            f"inverse of {ch['d_root']} is {ch['root_inverse']}\n"
        )
    else:
        members = " ".join(map(str, r["table_members"]))
        yield f"served from the stored run table: members {members}\n"
    t = r["triple"]
    yield (
        f"unit triple: alpha={t['alpha']}, beta={t['beta']}, gamma={t['gamma']} "
        f"with squares {tuple(t['squares'])}\n"
        "nontrivial class:\n" + _payload_block(r["grid"]) + "\n"
    )


# ----------------------------------------------------------------- search


def run_search(
    e_min: int, e_max: int, primitive_only: bool, threshold: int, workers: int
) -> tuple[OutputDocument, int]:
    """Every refusal is raised by the search; the report holds its grids, and
    the `hits` and `near_misses` lists are LazyLists of them, each written
    with one %-template per indent."""
    from .search import search_msos

    report = search_msos(
        e_min,
        e_max,
        primitive_only,
        near_miss_threshold=threshold,
        workers=workers,
    )
    parameters = {
        "e_min": e_min,
        "e_max": e_max,
        "primitive_only": primitive_only,
        "near_miss_threshold": threshold,
        "workers": workers,
    }
    results = {
        **parameters,
        "pruned_centers": report.pruned_centers,
        "candidates_tested": report.candidates_tested,
        "hit_count": len(report.hits),
        "near_miss_count": len(report.near_misses),
        "hits": LazyList(lambda: iter(report.hits), _encode_grids),
        "near_misses": LazyList(lambda: iter(report.near_misses), _encode_grids),
        "pruning_rule": PRUNING_RULE if primitive_only else None,
        "near_miss_note": NEAR_MISS_NOTE,
    }
    code = EXIT_HIT if report.hits else EXIT_OK
    return OutputDocument("search", parameters, results), code


def _encode_grids(batch: list, inner: str) -> str:
    """IntGrids as `_chunks` writes their payloads at indent `inner`; a
    candidate's cells are all squares, so a None root raises."""
    template = _grid_template(inner)
    return ("," + inner).join([template % (*g.cells, *_int_roots(g)) for g in batch])


def _render_search(r: dict) -> Iterator[str]:
    yield (
        f"searched center roots e in [{r['e_min']}, {r['e_max']}]; "
        f"primitive-only: {_yn(r['primitive_only'])}\n"
    )
    if r["pruning_rule"]:
        yield f"pruning rule: {r['pruning_rule']}\n"
    yield (
        f"pruned centers: {r['pruned_centers']}; "
        f"candidates tested: {r['candidates_tested']}; "
        f"hits: {r['hit_count']}; near misses: {r['near_miss_count']}\n"
    )
    for batch in _batches(r["hits"]):
        yield "".join(f"HIT:\n{_grid_block(g.cells, _int_roots(g))}\n" for g in batch)
    head = f"near miss ({r['near_miss_threshold']}/8 sums or better):\n"
    for batch in _batches(r["near_misses"]):
        yield "".join(f"{head}{_grid_block(g.cells, _int_roots(g))}\n" for g in batch)


# ------------------------------------------------------------------- main


# The command line, one entry per command: its help, its positionals and its
# options, each in the order of the help text. `build_parser` makes the
# argparse parser from it and `_read_argv` reads well-formed calls with it,
# so the two share every name, type, default and choice. An option of type
# bool is an on/off flag with a `--no-` form; argparse's BooleanOptionalAction.
_Arg = namedtuple("_Arg", "name type help default choices", defaults=(None, None))


def _format_option(csv_ok: bool = False) -> _Arg:
    return _Arg(
        "--format",
        str,
        "table (human-readable, default) or structured (deterministic JSON)"
        + ("; csv for spreadsheets" if csv_ok else ""),
        FORMAT_TABLE,
        (FORMAT_TABLE, FORMAT_STRUCTURED) + ((FORMAT_CSV,) if csv_ok else ()),
    )


COMMANDS = {
    "analyze": (
        "residue tables, canonical classes, bound and oracle for one prime",
        [_Arg("p", int, "prime modulus")],
        [
            _Arg(
                "--max-oracle-p",
                int,
                "count the classes from the sum equations when p is at most this "
                f"(default 100, at most {MAX_COUNT_P})",
                100,
            ),
            _format_option(),
        ],
    ),
    "table": (
        "per-prime summary rows up to a bound",
        [_Arg("max", int, "largest prime to include (>= 5)")],
        [_format_option(csv_ok=True)],
    ),
    "verify": (
        "check a candidate grid from a file",
        [_Arg("path", str, "file with 9 whitespace-separated nonnegative integers")],
        [_format_option()],
    ),
    "construct": (
        "build a nontrivial residue class for a prime, showing the chain",
        [_Arg("p", int, "prime = 1 (mod 4)")],
        [
            _Arg(
                "--sweep-max-m",
                int,
                "largest m for the exploratory progression sweep on uncovered primes "
                f"(default 10, from 2 to {MAX_SWEEP_M})",
                10,
            ),
            _format_option(),
        ],
    ),
    "search": (
        "exhaustive integer search over center roots",
        [_Arg("e_min", int, None), _Arg("e_max", int, None)],
        [
            _Arg(
                "--primitive-only",
                bool,
                "prune center roots with a prime factor = 3 (mod 4) (default on)",
                True,
            ),
            _Arg(
                "--near-miss-threshold",
                int,
                "report grids with at least this many of the 8 sums correct, 0 to 8 "
                "(default 7); every candidate has 4, 6 or 8, so 7 reports hits only",
                7,
            ),
            _Arg(
                "--workers",
                int,
                f"worker processes, at most {MAX_WORKERS}; defaults to RESIDUUM_THREADS "
                "or one per core",
            ),
            _format_option(),
        ],
    ),
}


def build_parser():
    """The argparse parser of COMMANDS: the parser of record, which answers
    help and every call `_read_argv` leaves to it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="residuum",
        description="mod-p analysis of 3x3 magic squares of squares",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, positionals, options) in COMMANDS.items():
        parser = sub.add_parser(command, help=help_text)
        for a in positionals:
            parser.add_argument(a.name, type=a.type, help=a.help)
        for o in options:
            if o.type is bool:
                parser.add_argument(
                    o.name, action=argparse.BooleanOptionalAction, default=o.default, help=o.help
                )
            else:
                parser.add_argument(
                    o.name, type=o.type, default=o.default, choices=o.choices, help=o.help
                )
    return ap


def _dest(option: _Arg) -> str:
    return option.name[2:].replace("-", "_")


def _is_value(token: str) -> bool:
    """Whether argparse takes `token` as a value rather than an option: it
    does not start with `-`, or it is `-` and ASCII digits, a negative int."""
    return token[:1] != "-" or (token[1:].isdigit() and token[1:].isascii())


def _convert(arg: _Arg, token: str):
    """`token` through the type and choices of `arg`, as argparse applies
    them; ValueError where argparse would refuse it."""
    value = arg.type(token)
    if arg.choices is not None and value not in arg.choices:
        raise ValueError(token)
    return value


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns for a well-formed call,
    without argparse, or None for argparse to read.

    The well-formed calls are `--version` on its own, read as command None,
    and a command followed, in any order, by its positionals, its
    `--option VALUE` pairs and its on/off flags. Values go through the
    option's type and choices, and a repeated option keeps its last value,
    as in argparse. Everything else is None: help, abbreviations,
    `--opt=value`, `--`, a missing or extra positional, a missing or bad
    value, and any token that starts with `-` and is neither an option of
    the command nor a negative int.
    """
    if argv == ["--version"]:
        return SimpleNamespace(command=None)
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positionals, options = COMMANDS[argv[0]]
    flags = {o.name: o for o in options}
    flags.update({"--no-" + o.name[2:]: o for o in options if o.type is bool})
    values = {_dest(o): o.default for o in options}
    free = []
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if _is_value(token):
                free.append(token)
                continue
            option = flags.get(token)
            if option is None:
                return None
            if option.type is bool:
                values[_dest(option)] = not token.startswith("--no-")
                continue
            value = next(tokens, None)
            if value is None or not _is_value(value):
                return None
            values[_dest(option)] = _convert(option, value)
        if len(free) != len(positionals):
            return None
        for a, token in zip(positionals, free):
            values[a.name] = _convert(a, token)
    except ValueError:
        return None
    return SimpleNamespace(command=argv[0], **values)


def _resolve_workers(requested: int | None) -> int:
    if requested is not None:
        if not 1 <= requested <= MAX_WORKERS:
            raise BadParameters(f"--workers must be in [1, {MAX_WORKERS}], got {requested}")
        return requested
    env = os.environ.get("RESIDUUM_THREADS")
    if not env:
        return min(os.cpu_count() or 1, MAX_WORKERS)
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if not 1 <= workers <= MAX_WORKERS:
        raise BadParameters(
            f"RESIDUUM_THREADS must be an integer in [1, {MAX_WORKERS}], got {env!r}"
        )
    return workers


def _emit(doc: OutputDocument, fmt: str, renderer) -> None:
    """Write the document to stdout in the pieces its structured form or
    `renderer` yields."""
    sys.stdout.writelines(doc.chunks() if fmt == FORMAT_STRUCTURED else renderer(doc.results))


def _dispatch(args) -> int:
    if args.command == "analyze":
        doc = run_analyze(args.p, args.max_oracle_p)
        _emit(doc, args.format, _render_analyze)
        return EXIT_OK
    if args.command == "table":
        doc = run_table(args.max)
        _emit(doc, args.format, _render_table_csv if args.format == FORMAT_CSV else _render_table)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse already printed usage/help; normalize its exit code
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        # `--version`, written as argparse's version action writes it
        sys.stdout.write(f"residuum {__version__}\n")
        return EXIT_OK
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # so that a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: what is still
        # buffered goes to devnull, so the interpreter's last flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NotPrime, BadPrimeForm, BadRange, BadParameters, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResiduumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def entry() -> int:
    """`main` for a process that ends when it returns: the exit code of
    `main()` on `sys.argv`. Freezing the collector moves every tracked object
    to a generation that no collection visits, so shutdown's collections
    skip what the call made; shutdown is otherwise the normal one, with
    atexit callbacks and the last flush of stdout."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
