"""Command-line surface: batch commands over the library with deterministic
machine-readable output.

Exit codes: 0 success, 1 domain failure (e.g. no construction reaches the
requested prime), 2 usage error (including a modulus or flag above its
ceiling), 3 input/parse error, 10 search hit, 141 (128 + SIGPIPE) when the
reader closed stdout before the output was written.

Every refusal happens in every form, before any root table, sieve or process
pool. Each form is then written in pieces as it is made: every long list is a
`LazyList`, derived again as it is written, in batches. A list of class
entries, table rows or grids declares the shape of its items, and the
structured form writes each such list through one %-template of that shape,
built when the list is written. Only the human `table` holds its rows, since
its column widths need them all; `search`'s report holds its grids.

A call pays only for what its command uses. `_read_argv` reads a well-formed
command line from the same table `build_parser` is made from, so argparse is
imported only for help, usage errors and the forms the reader leaves to it;
the structured form is written without `json`, which encodes only a str
that needs escaping and values that no command prints; and `intgrid` and
`search` are imported by the functions that use them, so `analyze`, `table`
and `construct` load neither, and `verify` loads no `search`.
A process started by `python -m residuum` or the `residuum` script runs
`entry`, which after `main` returns freezes the garbage collector, so the
interpreter's final collections skip every object the call made; `main`,
which tests and library callers run in-process, never freezes.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import namedtuple
from collections.abc import Iterator
from itertools import compress, groupby, islice
from math import isqrt
from operator import itemgetter
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
from .errors import NotCovered, ParseError, ResiduumError, UsageError
from .fp import MAX_CONTEXT_P, MAX_WORKERS, make_context, sqrt_mod, two_square_splits
from .grid_ops import rows_of
from .residue import (
    MAX_COUNT_P,
    ResidueGrid,
    classes_from_sum_equations,
    classify,
    consecutive_runs,
    count_bound,
    gen_nontrivial,
    gen_trivial_corner,
    gen_trivial_midedge,
    magic_sum,
    nontrivial_fields,
    run_count,
    runs_from_split,
)

FORMAT_TABLE = "table"
FORMAT_STRUCTURED = "structured"
FORMAT_CSV = "csv"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_HIT = 10
EXIT_PIPE = 141

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
    iterator over its items. It stands as a dict value, which is where
    `_chunks` reads it in batches.

    A list without a `shape` is written item by item as `_chunks` writes
    any value. A list with one is written through the %-template of its
    shape (see `_fields_template`): each item is the tuple of the shape's
    fields, in the order `_chunks` writes them, or `fields(item)` makes it."""

    __slots__ = ("items", "shape", "fields")

    def __init__(self, items, shape=None, fields=None):
        self.items = items
        self.shape = shape
        self.fields = fields

    def __iter__(self):
        return self.items()

    def encoder(self, inner: str):
        """The function from a batch of items to their text at indent
        `inner`, joined as `_chunks` joins list items; a shaped list's
        template is built here, once for each list written."""
        if self.shape is None:
            return lambda batch: _encode_items(batch, inner)
        sep, fill = "," + inner, _fields_template(self.shape, inner).__mod__
        if self.fields is None:
            return lambda batch: sep.join(map(fill, batch))
        return lambda batch: sep.join(map(fill, map(self.fields, batch)))


def _quote(s: str) -> str:
    """`json.dumps(s)`. A str of printable ASCII without `"` or `\\` is
    written between quotes as it is, as every key, note and status a command
    prints is; any other str goes through json, imported when one is met."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json

    return json.dumps(s)


def _chunks(o, newline: str) -> Iterator[str]:
    """`json.dumps(o, sort_keys=True, indent=2)` in pieces, built directly:
    json's indenting encoder is pure Python, and most of what the commands
    print is long lists of ints. `newline` is a newline plus the current
    indent. A dict is split at its keys and a LazyList is read in batches;
    any other value is one piece.

    Exact ints go through `str`; dicts, lists and tuples (subclasses
    included) and strs follow json's isinstance rules, and True, False and
    None are written as json writes them. Every other value, which no
    command prints, and a str that needs escaping go through json itself,
    imported when one is met. Keys must be str: json's coercion of other
    keys is not imitated.
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
        encode = o.encoder(inner)
        yield "[" + inner + encode(first)
        for batch in batches:
            yield "," + inner + encode(batch)
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


def _fields_template(shape, inner: str) -> str:
    """The text `_chunks` writes at indent `inner` for `shape`, whose ints are
    0, 1, 2, ... in the order `_chunks` writes them, as a %-template of those
    fields. The text has no other digits, so a field written out of order
    shows. A str "%s" in `shape` is written as json writes any str, quoted,
    so it stays a %s field between its quotes."""
    fields, template = [], []
    for digits, run in groupby("".join(_chunks(shape, inner)), str.isdecimal):
        piece = "".join(run)
        if digits:
            fields.append(piece)
            piece = "%d"
        template.append(piece)
    if fields != [str(i) for i in range(len(fields))]:
        raise AssertionError("a template's fields must be in the order _chunks writes them")
    return "".join(template)


# The shapes of the shaped LazyLists' items. A grid: its nine cells and nine
# roots, row-major, in that order, since "cells" < "roots".
_GRID_FIELDS = _grid_payload(range(9), range(9, 18))
# A `nontrivial_classes` entry: its grid, then the member n, since
# "grid" < "member".
_CLASS_ENTRY = {"grid": _GRID_FIELDS, "member": 18}
# A table row, by sorted key. A coverage status is an ASCII word, which json
# writes between quotes unescaped, so it fills its %s field as it is.
_TABLE_ROW = {"count_bound": 0, "coverage_status": "%s", "p": 1, "qr_count": 2, "run_count": 3}


def _grid_fields(g) -> tuple:
    """An IntGrid's fields in the order of `_GRID_FIELDS`: its cells, then
    their roots. A candidate's cells are all squares, so none of its roots is
    None, which the template's %d field would refuse."""
    return (*g.cells, *_int_roots(g))


def _triple_payload(t) -> dict:
    a2, b2, g2 = t.squares()
    return {
        "alpha": t.alpha,
        "beta": t.beta,
        "gamma": t.gamma,
        "squares": [a2, b2, g2],
    }


_BLOCK = "  {}  {}  {}\n  {}  {}  {}\n  {}  {}  {}"


def _grid_block(fields) -> str:
    """Three indented rows of `v=r^2`, or `v` where r is None, right-aligned
    to the widest, from a grid's fields: its nine cells, then their nine
    roots, row-major; fields after those are not read."""
    texts = [str(v) if r is None else f"{v}={r}^2" for v, r in zip(fields[:9], fields[9:18])]
    width = max(map(len, texts))
    return _BLOCK.format(*[t.rjust(width) for t in texts])


def _payload_block(g: dict) -> str:
    """`_grid_block` of a grid payload."""
    return _grid_block(sum(g["cells"] + g["roots"], []))


def _bits(rows) -> str:
    """A parity pattern's rows as `011 / 101 / 110`."""
    return " / ".join("".join(map(str, row)) for row in rows)


# ---------------------------------------------------------------- analyze


def run_analyze(p: int, max_oracle_p: int) -> OutputDocument:
    """Every refusal is raised here; the long lists of the result are
    LazyLists, read from p's root table when they are written."""
    if max_oracle_p < 0:
        raise UsageError(f"--max-oracle-p must be at least 0, got {max_oracle_p}")
    if max_oracle_p > MAX_COUNT_P:
        raise UsageError(
            f"--max-oracle-p {max_oracle_p} exceeds the oracle ceiling {MAX_COUNT_P}; "
            "the count's cost grows as p^2/64"
        )
    root = make_context(p)
    results: dict = {
        "p": p,
        "residue_form": "two" if p == 2 else ("one_mod_four" if p % 4 == 1 else "three_mod_four"),
        "qr_set": LazyList(lambda: compress(range(p), root)),
        "qr_count": 1 if p == 2 else (p - 1) // 2,
        # the smaller element of order 4, and the smaller root of 2, which is
        # 0 in F_2
        "w": root[p - 1] if p % 4 == 1 else None,
        "tau": 0 if p == 2 else root[2] if p % 8 in (1, 7) else None,
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
        from .intgrid import PARITY_PATTERNS

        results["consecutive_triples"] = []
        results["mod2_patterns"] = [rows_of(bits) for bits in PARITY_PATTERNS]
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
        results["consecutive_triples"] = LazyList(lambda: consecutive_runs(p))
        results["count_bound"] = count_bound(p, run_count(p))
        corner = gen_trivial_corner(p)
        results["trivial_corner"] = _grid_payload(corner.vals, [root[v] for v in corner.vals])
        if p % 8 == 1:
            midedge = gen_trivial_midedge(p)
            results["trivial_midedge"] = _grid_payload(midedge.vals, [root[v] for v in midedge.vals])
        results["nontrivial_classes"] = LazyList(lambda: nontrivial_fields(p), _CLASS_ENTRY)
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
            f"nontrivial class from n = {f[18]}:\n{_grid_block(f)}\n"
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
    for p, a, b in two_square_splits(max_p):
        runs = runs_from_split(p, a, b)
        yield {
            "p": p,
            "qr_count": (p - 1) // 2,
            "run_count": runs,
            "coverage_status": _classify_prime(p),
            "count_bound": count_bound(p, runs),
        }


def run_table(max_p: int) -> OutputDocument:
    """Every refusal is raised here; the rows are a LazyList, made from closed
    forms and one sieve with one walk over the two-square splits
    (`fp.two_square_splits`), each time they are written."""
    if max_p < 5:
        raise UsageError(f"table needs max >= 5, got {max_p}")
    if max_p > MAX_CONTEXT_P:
        raise UsageError(f"table max {max_p} exceeds the sieve ceiling {MAX_CONTEXT_P}")
    rows = LazyList(lambda: _table_rows(max_p), _TABLE_ROW, itemgetter(*sorted(_TABLE_ROW)))
    return OutputDocument("table", {"max": max_p}, {"rows": rows})


_TABLE_COLUMNS = ("p", "qr_count", "run_count", "coverage_status", "count_bound")
_table_cells = itemgetter(*_TABLE_COLUMNS)


def _render_table(r: dict) -> Iterator[str]:
    # the column widths need every row, so this form holds the rows; it reads
    # them once, since each read of the LazyList makes them again
    rows = list(r["rows"])
    widths = [max([len(c)] + [len(str(row[c])) for row in rows]) for c in _TABLE_COLUMNS]
    # each cell left-aligned in its column, as str(value).ljust(width)
    line = "  ".join(f"%-{w}s" for w in widths) + "\n"
    yield line % _TABLE_COLUMNS
    for batch in _batches(rows):
        yield "".join(map(line.__mod__, map(_table_cells, batch)))


# no field holds a comma, quote or newline, so none is quoted
_CSV_ROW = ",".join(["%s"] * len(_TABLE_COLUMNS)) + "\n"


def _render_table_csv(r: dict) -> Iterator[str]:
    yield _CSV_ROW % _TABLE_COLUMNS
    for batch in _batches(r["rows"]):
        yield "".join(map(_CSV_ROW.__mod__, map(_table_cells, batch)))


# ----------------------------------------------------------------- verify


def _tokens(text: str) -> Iterator[tuple[int, str]]:
    """(column, token) for each run of non-whitespace in `text`, the column
    1-based: the runs `re.finditer(r"\\S+", text)` finds, since str.split
    and re's \\s take the same characters for whitespace."""
    end = 0
    for token in text.split():
        # only whitespace lies between the last token and this one
        start = text.index(token, end)
        end = start + len(token)
        yield start + 1, token


def _shown(token: str) -> str:
    """`token` as an error message echoes it: its repr, cut after 20
    characters."""
    return repr(token) if len(token) <= 20 else repr(token[:20]) + "..."


def parse_square_file(path: str):
    """The IntGrid of 9 whitespace-separated nonnegative integers, row-major,
    each written in ASCII digits after at most one sign.

    An entry has fewer digits than the interpreter's limit on converting
    between int and str (`sys.get_int_max_str_digits()`, 4300 by default;
    no bound where it sets none), so a line sum of three entries, which has
    at most one digit more, can still be printed. The text is UTF-8, with or
    without a leading byte-order mark. '#' starts a comment;
    ParseError messages carry line and column, and a file that cannot be
    opened or read is a ParseError too.
    """
    from .intgrid import IntGrid

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    values = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                for column, token in _tokens(line.split("#", 1)[0]):
                    where = f"{path}:{lineno}:{column}"
                    # ASCII digits after at most one sign: int() would also
                    # read underscores and the digits of other scripts
                    digits = token[1:] if token[0] in "+-" else token
                    if not (digits.isascii() and digits.isdigit()):
                        raise ParseError(f"{where}: not an integer: {_shown(token)}")
                    if limit and len(digits) >= limit:
                        raise ParseError(
                            f"{where}: an entry of {len(digits)} digits is too long; "
                            f"at most {limit - 1} are read: {_shown(token)}"
                        )
                    v = int(token)
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
    from .intgrid import admissible_center_check, is_distinct, is_magic, reduce_primitive

    grid = parse_square_file(path)
    total = is_magic(grid)
    roots = _int_roots(grid)
    square_entried = None not in roots
    all_zero = not any(grid.cells)
    results: dict = {
        "path": path,
        "grid": _grid_payload(grid.cells, roots),
        "magic": total is not None,
        "total": total,
        "total_is_triple_center": None if total is None else total == 3 * grid.center,
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
                classes.append(_residue_report(grid, roots, q))
            results["residue_classes"] = classes
    return OutputDocument("verify", {"path": path}, results)


def _residue_report(grid, roots: list[int], q: int) -> dict:
    """The class mod q of a square-entried grid whose cells have the integer
    `roots`; a cell r^2 has the smaller root min(r mod q, -r mod q), so no
    root table is built."""
    from .intgrid import PARITY_PATTERNS, mod2_classify

    if q == 2:
        entry: dict = {"p": 2, "kind": "parity", "pattern_index": None, "bits": None,
                       "center_line_all_even": None, "note": None}
        try:
            index = mod2_classify(grid)
        except ResiduumError as exc:
            entry["note"] = str(exc)
            return entry
        entry["pattern_index"] = index
        entry["bits"] = rows_of(PARITY_PATTERNS[index])
        # each of the four patterns has an all-even line through the center
        entry["center_line_all_even"] = True
        return entry
    rgrid = ResidueGrid(q, grid.cells)
    total = magic_sum(rgrid)
    entry = {
        "p": q,
        "kind": "residue",
        **_grid_payload(rgrid.vals, [min(r % q, -r % q) for r in roots]),
        "magic": total is not None,
        "sum": total,
        "classification": None,
    }
    # q divides the center root, so the center cell is 0 mod q, and a magic
    # class is one that classify takes
    if total is not None:
        entry["classification"] = classify(rgrid)
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
    # refuse before the O(p) root table: the sweep bound, the ceiling, then the
    # primality proof, then p = 3 (mod 4); make_context's second proof is a
    # few modular powers
    if not 2 <= sweep_max_m <= MAX_SWEEP_M:
        raise UsageError(
            f"--sweep-max-m must be in [2, {MAX_SWEEP_M}], got {sweep_max_m}; "
            "the sweep tries about 0.2 * m^2 progressions"
        )
    if p > MAX_CONTEXT_P:
        raise UsageError(f"p={p} exceeds the context ceiling {MAX_CONTEXT_P}")
    status = coverage_status(p)
    root = make_context(p)
    parameters = {"p": p, "sweep_max_m": sweep_max_m}
    runs = LazyList(lambda: consecutive_runs(p))
    try:
        route, prog, triple = construct(p)
    except NotCovered:
        tried = eligible_params(sweep_max_m)
        successes = [[m, n, t.squares()[2]] for m, n, t in sweep_congrua(p, tried)]
        # C_p is empty exactly for 5, 13 and 17; see _classify_prime
        note = (
            f"no consecutive residue runs exist mod {p}"
            if status == "excluded_5_13_17"
            else f"neither residue criterion reaches {p}; its runs are only known numerically"
        )
        results = {
            "p": p,
            "coverage": status,
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
        d_root = sqrt_mod(p, prog.d)
        progression = {"x": prog.x, "y": prog.y, "z": prog.z, "d": prog.d}
        chain = {
            "x_sq_mod_p": prog.x ** 2 % p,
            "y_sq_mod_p": prog.y ** 2 % p,
            "z_sq_mod_p": prog.z ** 2 % p,
            "d_mod_p": prog.d % p,
            "d_root": d_root,
            "root_inverse": pow(d_root, -1, p),
        }
    grid = gen_nontrivial(triple)
    results = {
        "p": p,
        "coverage": status,
        "constructed": True,
        "route": route,
        "progression": progression,
        "chain": chain,
        "table_members": table_members,
        "triple": _triple_payload(triple),
        "member": triple.squares()[2],
        "grid": _grid_payload(grid.vals, [root[v] for v in grid.vals]),
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
    the `hits` and `near_misses` lists are LazyLists of them, each of the
    grid shape."""
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
    }
    results = {
        **parameters,
        "pruned_centers": report.pruned_centers,
        "candidates_tested": report.candidates_tested,
        "hit_count": len(report.hits),
        "near_miss_count": len(report.near_misses),
        "hits": LazyList(lambda: iter(report.hits), _GRID_FIELDS, _grid_fields),
        "near_misses": LazyList(lambda: iter(report.near_misses), _GRID_FIELDS, _grid_fields),
        "pruning_rule": PRUNING_RULE if primitive_only else None,
        "near_miss_note": NEAR_MISS_NOTE,
    }
    code = EXIT_HIT if report.hits else EXIT_OK
    return OutputDocument("search", parameters, results), code


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
        yield "".join(f"HIT:\n{_grid_block(_grid_fields(g))}\n" for g in batch)
    head = f"near miss ({r['near_miss_threshold']}/8 sums or better):\n"
    for batch in _batches(r["near_misses"]):
        yield "".join(f"{head}{_grid_block(_grid_fields(g))}\n" for g in batch)


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
                "or one per usable CPU",
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
    """Where the worker count comes from; `search_msos` checks its range."""
    if requested is not None:
        return requested
    env = os.environ.get("RESIDUUM_THREADS")
    if not env:
        # the CPUs this process may run on, where the platform can say
        if hasattr(os, "sched_getaffinity"):
            return min(len(os.sched_getaffinity(0)), MAX_WORKERS)
        return min(os.cpu_count() or 1, MAX_WORKERS)
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"RESIDUUM_THREADS must be an integer, got {env!r}") from None


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
    except ResiduumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


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
