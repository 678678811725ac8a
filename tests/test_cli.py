import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import namedtuple
from operator import itemgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import residuum
from residuum import cli, congrua, errors, fp, residue, search
from residuum.cli import main
from residuum.fp import primes_up_to
from residuum.intgrid import IntGrid
from residuum.search import SearchReport
from test_golden import GOLDEN, VERIFY_FILES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out), out


def test_analyze_structured_f29(capsys):
    code, doc, _ = run_json(capsys, "analyze", "29")
    assert code == 0
    r = doc["results"]
    assert r["consecutive_triples"] == [4, 5, 22, 23]
    assert r["count_bound"] == 168
    assert r["w"] == 12
    assert r["tau"] is None
    assert r["oracle"]["within_bound"] is True
    grids = {tuple(v for row in item["grid"]["cells"] for v in row)
             for item in r["nontrivial_classes"]}
    assert (23, 5, 1, 7, 0, 22, 28, 24, 6) in grids


def test_analyze_f17_has_no_nontrivial_classes(capsys):
    code, doc, _ = run_json(capsys, "analyze", "17")
    assert code == 0
    r = doc["results"]
    assert r["consecutive_triples"] == []
    assert r["nontrivial_classes"] == []
    assert r["trivial_midedge"] is not None  # 17 = 1 (mod 8)


def test_analyze_3_mod_4_explains_instead_of_failing(capsys):
    code, doc, _ = run_json(capsys, "analyze", "7")
    assert code == 0
    r = doc["results"]
    assert r["note"] is not None
    assert r["trivial_corner"] is None
    assert r["count_bound"] is None


def test_analyze_p2_lists_parity_patterns(capsys):
    code, doc, _ = run_json(capsys, "analyze", "2")
    assert code == 0
    assert len(doc["results"]["mod2_patterns"]) == 4


def test_analyze_human_output(capsys):
    code, out, err = run(capsys, "analyze", "29")
    assert code == 0
    assert "C_p: 4 5 22 23" in out
    assert "bound 168 satisfied" in out


def test_analyze_oracle_reports_a_bound_it_exceeds(capsys, monkeypatch):
    # the oracle counts the classes itself: with the bound understated, its
    # count stands and the verdict turns
    real = cli.count_bound
    monkeypatch.setattr(cli, "count_bound", lambda p, runs: real(p, runs) // 2 - 1)
    doc = cli.run_analyze(13, 100)
    assert doc.results["oracle"] == {"count": 12, "bound": 11, "within_bound": False}
    code, out, err = run(capsys, "analyze", "13", "--max-oracle-p", "100")
    assert code == 0
    assert out.endswith("oracle: 12 grids enumerated; bound 11 VIOLATED\n")


def test_table_rows(capsys):
    code, doc, _ = run_json(capsys, "table", "50")
    assert code == 0
    rows = doc["results"]["rows"]
    assert [row["p"] for row in rows] == [5, 13, 17, 29, 37, 41]
    by_p = {row["p"]: row for row in rows}
    assert by_p[29]["run_count"] == 4
    assert by_p[29]["count_bound"] == 168
    assert by_p[37]["coverage_status"] == "small_case_table"


def test_table_csv(capsys):
    code, out, err = run(capsys, "table", "50", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,qr_count,run_count,coverage_status,count_bound"
    assert len(lines) == 7


def test_table_uncovered_rows_up_to_500(capsys):
    code, doc, _ = run_json(capsys, "table", "500")
    assert code == 0
    uncovered = [
        row["p"]
        for row in doc["results"]["rows"]
        if row["coverage_status"] == "uncovered_but_nonempty"
    ]
    assert uncovered == [113, 137, 157, 233, 257, 277, 353, 373, 397]


def test_table_builds_no_contexts(monkeypatch):
    sample = [p for p in primes_up_to(10000) if p % 4 == 1][::40] + [5, 13, 17, 37, 9973]
    direct = {}
    for p in sample:
        runs = len(residue.consecutive_triples(p))
        k = 2 if p % 8 == 1 else 1
        direct[p] = (sum(map(bool, fp.make_context(p))), runs, (p - 1) * (runs + 2 * k))

    def built(*args):
        raise AssertionError("table built a root table")

    for module in (fp, cli, residue, congrua):
        monkeypatch.setattr(module, "make_context", built)
    monkeypatch.setattr(residue, "consecutive_triples", built)

    def trial(*args):
        raise AssertionError("table re-proved a sieve prime")

    monkeypatch.setattr(congrua, "is_prime", trial)
    rows = {row["p"]: row for row in cli.run_table(10000).results["rows"]}
    assert residue.count_bound(29, residue.run_count(29)) == 168
    for p, (qr_count, runs, bound) in direct.items():
        row = rows[p]
        assert (row["qr_count"], row["run_count"], row["count_bound"]) == (qr_count, runs, bound), p


def _per_prime_rows(max_p):
    """table's rows made one prime at a time: the sieve's primes, each split by
    Euclid inside run_count, and _classify_prime."""
    for p in primes_up_to(max_p):
        if p % 4 == 1:
            runs = residue.run_count(p)
            yield {
                "p": p,
                "qr_count": (p - 1) // 2,
                "run_count": runs,
                "coverage_status": congrua._classify_prime(p),
                "count_bound": residue.count_bound(p, runs),
            }


def test_table_rows_match_the_per_prime_path(monkeypatch):
    expected = list(_per_prime_rows(10**5))

    def euclid(*args):
        raise AssertionError("table split a prime by Euclid")

    monkeypatch.setattr(residue, "two_squares", euclid)
    monkeypatch.setattr(cli, "run_count", euclid)
    assert list(cli.run_table(10**5).results["rows"]) == expected
    for n in range(5, 3001):
        rows = [row for row in expected if row["p"] <= n]
        assert list(cli.run_table(n).results["rows"]) == rows, n


def test_table_forms_write_the_rows(capsys):
    # the structured form is json's, and csv and the human form are the
    # rows' values joined, the human form's padded to each column's width
    for n in (5, 29, 1000):
        rows = list(_per_prime_rows(n))
        code, out, _ = run(capsys, "table", str(n), "--format", "structured")
        doc = {"command": "table", "parameters": {"max": n}, "results": {"rows": rows},
               "tool_version": cli.__version__}
        assert (code, out) == (0, json.dumps(doc, sort_keys=True, indent=2) + "\n")
        columns = list(rows[0])
        cells = [columns] + [[str(row[c]) for c in columns] for row in rows]
        code, out, _ = run(capsys, "table", str(n), "--format", "csv")
        assert (code, out) == (0, "".join(",".join(line) + "\n" for line in cells))
        widths = [max(len(line[i]) for line in cells) for i in range(len(columns))]
        code, out, _ = run(capsys, "table", str(n))
        assert (code, out) == (0, "".join(
            "  ".join(v.ljust(w) for v, w in zip(line, widths)) + "\n" for line in cells
        ))


def test_csv_only_for_table(capsys):
    # not a REFUSALS row: the --format appended to each row would replace it
    assert run(capsys, "analyze", "29", "--format", "csv") == (
        2, "", "error: analyze: --format: 'csv' is not one of table, structured\n"
    )


@pytest.mark.parametrize(
    "text, total, square_entried, distinct, center_line",
    [
        ("4 9 2\n3 5 7\n8 1 6\n", 15, False, True,
         "center 5 is not a perfect square; no center-root analysis"),
        # 0 = 0^2, but 0 has no prime factors to check
        ("0 0 0\n0 0 0\n0 0 0\n", 0, True, False,
         "center 0 = 0^2 has no prime factors; no center-root analysis"),
    ],
    ids=["lo-shu", "all-zero"],
)
def test_verify_classical_magic(tmp_path, capsys, text, total, square_entried, distinct,
                                center_line):
    f = tmp_path / "grid.txt"
    f.write_text(text)
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    r = doc["results"]
    assert r["magic"] is True and r["total"] == total
    assert r["total_is_triple_center"] is True
    assert r["square_entried"] is square_entried
    assert r["distinct"] is distinct
    assert r["center_root"] is None
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0 and f"\n{center_line}\n" in out


def test_verify_square_grid_not_magic(tmp_path, capsys):
    f = tmp_path / "squares.txt"
    f.write_text("# the first nine squares\n1 4 9\n16 25 36\n49 64 81\n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    r = doc["results"]
    assert r["magic"] is False
    assert r["square_entried"] is True
    assert r["center_root"] == 5
    assert r["center_check"]["verdicts"] == [[5, "admissible"]]
    classes = {entry["p"]: entry for entry in r["residue_classes"]}
    assert classes[5]["cells"] == [[1, 4, 4], [1, 0, 1], [4, 4, 1]]
    assert classes[5]["magic"] is False


def test_verify_scaled_progression_grid(tmp_path, capsys):
    # 25 (1 49 25 / 49 25 1 / 1 25 49)-style grid: magic, squares, center 25
    f = tmp_path / "prog.txt"
    f.write_text("1 49 25\n49 25 1\n25 1 49\n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    r = doc["results"]
    assert r["magic"] is True and r["total"] == 75
    assert r["square_entried"] is True
    assert r["center_root"] == 5
    classes = {entry["p"]: entry for entry in r["residue_classes"]}
    assert classes[5]["magic"] is True and classes[5]["sum"] == 0
    assert classes[5]["classification"] == "trivial_corner"


def test_verify_even_center_reports_parity(tmp_path, capsys):
    # the progression grid scaled by 2^2: center 100, root 10 = 2 * 5
    f = tmp_path / "even.txt"
    f.write_text("4 196 100\n196 100 4\n100 4 196\n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    r = doc["results"]
    assert r["magic"] is True and r["center_root"] == 10
    assert r["primitive"] is False
    assert r["center_check"]["verdicts"] == [[2, "admissible"], [5, "admissible"]]
    classes = {entry["p"]: entry for entry in r["residue_classes"]}
    assert classes[2]["pattern_index"] == 0
    assert classes[2]["center_line_all_even"] is True
    assert classes[5]["classification"] == "trivial_corner"


def test_verify_parse_errors(tmp_path, capsys):
    f2 = tmp_path / "bad.txt"
    f2.write_text("1 2 3\n4 x 6\n7 8 9\n")
    code, out, err = run(capsys, "verify", str(f2))
    assert code == 3
    assert f"{f2}:2:3" in err

    # columns count characters, Unicode whitespace included
    f5 = tmp_path / "long.txt"
    f5.write_text("1 1 1\n1\u3000\u20031 1 # 1 1\n1 1 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "verify", str(f5))
    assert code == 3
    assert f"{f5}:3:7: more than 9 values" in err

    # an entry is ASCII digits after at most one sign: int() alone would read
    # 1_0 as 10 and the Arabic-Indic three as 3
    for token in ("1_0", "\u0663", "\uff11", "\u00b2"):
        f6 = tmp_path / "numeral.txt"
        f6.write_text(f"1 4 9\n16 {token} 36\n49 64 81\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", str(f6))
        assert (code, out) == (3, ""), token
        assert err.startswith(f"error: {f6}:2:4: not an integer"), token
    # the message echoes a long token cut short
    f6.write_text("1 1 1 1 " + "x" * 5000 + " 1 1 1 1\n")
    code, out, err = run(capsys, "verify", str(f6))
    assert (code, out, err) == (3, "", f"error: {f6}:1:9: not an integer: {'x' * 20!r}...\n")

    # a path that cannot be opened: missing, a directory, too long, under a
    # plain file, or a symlink loop
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    for path in (tmp_path / "missing.txt", tmp_path, "x" * 5000, f2 / "x", tmp_path / "loop"):
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, ""), path
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    f4 = tmp_path / "binary.txt"
    f4.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = run(capsys, "verify", str(f4))
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {f4}: ") and err.count("\n") == 1


def test_verify_reads_a_leading_byte_order_mark(tmp_path, capsys):
    # Sallows' square; a UTF-8 byte-order mark may start the file, and
    # U+FEFF anywhere else is still a token that is not an integer
    text = "16129 2116 3364\n4 12769 8836\n5476 6724 9409\n".encode()
    bom = b"\xef\xbb\xbf"
    f = tmp_path / "sallows.txt"
    for form in ("table", "structured"):
        f.write_bytes(text)
        plain = run(capsys, "verify", str(f), "--format", form)
        f.write_bytes(bom + text)
        assert run(capsys, "verify", str(f), "--format", form) == plain, form
        assert plain[0] == 0 and plain[1], form
    for data, column in ((bom + bom + text, 1), (text.replace(b" ", b" " + bom, 1), 7)):
        f.write_bytes(data)
        code, out, err = run(capsys, "verify", str(f))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {f}:1:{column}: not an integer: '\\ufeff"), err


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter sets no limit on int digits")
    return limit


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_verify_refuses_entries_at_the_digit_limit(tmp_path, capsys, monkeypatch, fmt):
    # an entry of the limit's digits makes a line sum with one more, which
    # str() refuses, and int() refuses a longer entry; both are input errors,
    # with the token cut short in the message
    limit = _digit_limit()
    monkeypatch.chdir(tmp_path)
    inputs = {
        "wide.txt": ([str(9 * 10 ** (limit - 1))] * 9, "1:1"),
        "nines.txt": (["1"] * 8 + ["9" * (limit + 700)], "1:17"),
    }
    for name, (tokens, where) in inputs.items():
        Path(name).write_text(" ".join(tokens) + "\n")
        code, out, err = run(capsys, "verify", name, "--format", fmt)
        assert (code, out) == (3, ""), name
        assert err.startswith(f"error: {name}:{where}: an entry of "), name
        assert err.count("\n") == 1 and len(err.encode()) < 200, name
    # one digit fewer verifies: a line sum has the limit's digits at most
    Path("widest.txt").write_text(" ".join([str(10 ** (limit - 2) + 1)] * 9) + "\n")
    code, out, err = run(capsys, "verify", "widest.txt", "--format", fmt)
    assert (code, err) == (0, "")


def test_verify_reads_any_length_without_a_digit_limit(tmp_path):
    f = tmp_path / "long.txt"
    f.write_text(" ".join(["1"] * 8 + ["9" * 5000]) + "\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert cli.parse_square_file(str(f)).cells[8] == 10**5000 - 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_verify_skips_inadmissible_primes(tmp_path, capsys):
    # center 36: its root 6 has the factor 3 = 3 (mod 4), which gets a
    # verdict but no residue class
    f = tmp_path / "six.txt"
    f.write_text("1 4 9\n16 36 25\n49 64 81\n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    r = doc["results"]
    assert r["center_root"] == 6
    assert r["center_check"]["verdicts"] == [[2, "admissible"], [3, "inadmissible"]]
    assert [entry["p"] for entry in r["residue_classes"]] == [2]
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0 and "\n  prime 3: inadmissible\n" in out and "mod 3" not in out


def test_verify_warns_below_the_least_center_root(tmp_path, capsys):
    f = tmp_path / "ones.txt"
    f.write_text("1 1 1\n1 1 1\n1 1 1\n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    warning = doc["results"]["center_check"]["warning"]
    assert code == 0 and warning.startswith("e=1 cannot be the center root")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0 and f"\ncenter root e = 1\n  warning: {warning}\n" in out


# every character str.isspace takes, all of them below U+3001
WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.sampled_from(WHITESPACE) | st.sampled_from("1#-") | st.characters()))
def test_tokens_match_the_regex(text):
    expected = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", text)]
    assert list(cli._tokens(text)) == expected


def test_verify_center_root_ceiling(tmp_path, capsys):
    # one ceiling, beside the trial division it bounds, and one check of it,
    # `fp.check_center_ceiling`, for search and verify
    assert fp.MAX_CENTER_ROOT == 10**14
    for e, code in ((10**14, 0), (10**14 + 1, 2)):
        f = tmp_path / f"center{e}.txt"
        f.write_text(f"1 1 1\n1 {e * e} 1\n1 1 1\n")
        assert run(capsys, "verify", str(f))[0] == code, e
    # nine cells (10**18 + 3)^2: the root is past the factoring ceiling, where
    # a root with two prime factors near 10**9 would be trial-divided for
    # minutes, so the whole call must end at the ceiling
    f = tmp_path / "huge.txt"
    f.write_text(" ".join([str((10**18 + 3) ** 2)] * 9) + "\n")
    src = Path(residuum.__file__).resolve().parents[1]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-S", "-m", "residuum", "verify", str(f)],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "factoring ceiling" in done.stderr
    assert elapsed < 2


@pytest.mark.skipif(sys.platform != "linux", reason="needs /dev/zero, yes and RLIMIT_AS")
def test_verify_refuses_an_endless_input():
    # /dev/zero and an endless stream of blank lines, each read in a child
    # whose address space is held to 400 MB: each is refused at the byte
    # bound, where an unbounded read would run out of memory or of time
    src = Path(residuum.__file__).resolve().parents[1]
    limited = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20)); "
        "from residuum.cli import entry; sys.exit(entry())"
    )

    def verify(path, stdin=None):
        done = subprocess.run(
            [sys.executable, "-S", "-c", limited, "verify", path],
            cwd=src, stdin=stdin, capture_output=True, text=True, timeout=10,
        )
        bound = f"longer than {cli.MAX_GRID_BYTES} bytes, the most a grid file holds"
        assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {path}: {bound}\n")

    verify("/dev/zero")
    with subprocess.Popen(["yes", ""], stdout=subprocess.PIPE) as blank:
        try:
            verify("/dev/stdin", blank.stdout)
        finally:
            blank.kill()


def test_verify_path_with_an_undecodable_byte(tmp_path):
    # a strict stdout cannot write the name's lone surrogate, so the human
    # form escapes it as the error lines on stderr do
    name = os.fsencode(tmp_path) + b"/g\xff.txt"
    with open(name, "wb") as f:
        f.write(b"4 9 2\n3 5 7\n8 1 6\n")
    src = Path(residuum.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONIOENCODING": "utf-8"}

    def verify(*fmt):
        return subprocess.run(
            [sys.executable, "-S", "-m", "residuum", "verify", name, *fmt],
            cwd=src, env=env, capture_output=True, timeout=60,
        )

    human = verify()
    assert (human.returncode, human.stderr) == (0, b"")
    assert human.stdout.startswith(b"grid from " + os.fsencode(tmp_path) + b"/g\\udcff.txt:\n")
    structured = verify("--format", "structured")
    assert (structured.returncode, structured.stderr) == (0, b"")
    assert json.loads(structured.stdout)["results"]["path"] == os.fsdecode(name)


def test_verify_comments_and_whitespace(tmp_path, capsys):
    f = tmp_path / "commented.txt"
    f.write_text("# header\n 4 9 2 # row one\n3 5 7\n\n8 1 6   \n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    assert doc["results"]["total"] == 15


def test_construct_61_chain(capsys):
    code, doc, _ = run_json(capsys, "construct", "61")
    assert code == 0
    r = doc["results"]
    assert r["route"] == "mod20"
    assert r["chain"]["x_sq_mod_p"] == 22
    assert r["chain"]["y_sq_mod_p"] == 34
    assert r["chain"]["z_sq_mod_p"] == 46
    assert r["chain"]["d_mod_p"] == 49
    assert r["chain"]["d_root"] == 7
    assert r["chain"]["root_inverse"] == 35
    assert r["triple"]["squares"] == [49, 48, 47]
    assert r["member"] == 47


def test_construct_table_route(capsys):
    code, doc, _ = run_json(capsys, "construct", "41")
    assert code == 0
    r = doc["results"]
    assert r["route"] == "table"
    assert r["table_members"] == [8, 31]
    assert r["member"] == 8
    assert r["chain"] is None
    # the (5,4) progression reaches 29, so 29 takes the mod-20 route
    code, doc, _ = run_json(capsys, "construct", "29")
    r = doc["results"]
    assert (code, r["route"], r["member"], r["table_members"]) == (0, "mod20", 5, None)
    assert r["chain"] is not None


def test_construct_13_not_covered(capsys):
    code, doc, _ = run_json(capsys, "construct", "13")
    assert code == 1
    r = doc["results"]
    assert r["constructed"] is False
    assert r["consecutive_triples"] == []
    assert r["sweeps_tried"]
    assert r["sweeps_successful"] == []


def test_construct_113_not_covered_but_sweep_finds_candidates(capsys):
    code, doc, _ = run_json(capsys, "construct", "113")
    assert code == 1
    r = doc["results"]
    assert r["coverage"] == "uncovered_but_nonempty"
    assert r["consecutive_triples"]
    assert r["sweeps_successful"]


def test_search_cli(capsys):
    code, doc, _ = run_json(capsys, "search", "21", "21", "--workers", "1")
    assert code == 0
    assert doc["results"]["pruned_centers"] == 1


def test_search_center_root_ceiling(capsys):
    # the ceiling itself is searched; REFUSALS holds the centers past it
    assert run(capsys, "search", str(10**14), str(10**14), "--workers", "1")[0] == 0


@pytest.mark.parametrize("cpus, extra", [(1, ["--workers", "64"]), (100, [])])
def test_search_takes_workers_up_to_the_ceiling(capsys, monkeypatch, pool_sizes, cpus, extra):
    # the flag's ceiling, and the default's cap on a host of 100 usable CPUs
    assert cli.MAX_WORKERS == 64
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert run(capsys, "search", "1", "10", *extra)[0] == 0
    # two blocks of centers, so a pool of two whatever the count asked
    assert pool_sizes == [2]


def test_default_worker_count_follows_cpu_affinity(monkeypatch):
    # `taskset -c 0` leaves one usable CPU on a many-core host
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._default_workers() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(100)))
    assert cli._default_workers() == cli.MAX_WORKERS
    # without an affinity call, the host's count, or 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._default_workers() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._default_workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 100)
    assert cli._default_workers() == cli.MAX_WORKERS


def test_search_output_is_independent_of_the_worker_count(capsys, monkeypatch, pool_sizes):
    # the count is an execution setting, like --format: no form records it
    argv = ["search", "60", "600", "--no-primitive-only", "--near-miss-threshold", "0"]
    # each count from the flag, then the default on 1 and on 5 usable CPUs
    sources = [(None, ["--workers", n]) for n in ("1", "2", "3")]
    sources += [(cpus, []) for cpus in (1, 5)]
    for fmt in ("structured", "table"):
        outputs = set()
        for cpus, extra in sources:
            if cpus is not None:
                affinity = set(range(cpus))
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            code, out, err = run(capsys, *argv, *extra, "--format", fmt)
            assert (code, err) == (0, "")
            outputs.add(out)
        assert len(outputs) == 1, fmt
    assert {2, 3, 5} <= set(pool_sizes)


def test_search_exit_code_on_hit(capsys, monkeypatch):
    fake = SearchReport(
        pruned_centers=0,
        candidates_tested=1,
        hits=(IntGrid((4, 9, 2, 3, 5, 7, 8, 1, 6)),),
        near_misses=(),
    )
    monkeypatch.setattr(search, "search_msos", lambda *a, **k: fake)
    code, out, err = run(capsys, "search", "1", "1")
    assert code == 10
    assert "HIT" in out


def test_structured_output_round_trips(capsys, tmp_path, pool_sizes):
    f = tmp_path / "grid.txt"
    f.write_text("4 9 2\n3 5 7\n8 1 6\n")
    for argv in (
        ["analyze", "29"],
        ["analyze", "7"],
        ["table", "100"],
        ["verify", str(f)],
        ["construct", "61"],
        ["construct", "13"],
        ["search", "1", "30"],
    ):
        main(argv + ["--format", "structured"])
        out = capsys.readouterr().out
        reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert reparsed == out, argv


def test_verify_builds_no_context_above_the_context_ceiling(capsys, tmp_path, monkeypatch):
    # center root 1000000009 is a prime = 1 (mod 4), a hundred times the
    # context ceiling: a cell r^2 has the root min(r mod q, -r mod q), so the
    # class mod q needs no table of its roots
    def built(*args):
        raise AssertionError("verify built a root table")

    for module in (fp, cli, residue, congrua):
        monkeypatch.setattr(module, "make_context", built)
    q = 1000000009
    f = tmp_path / "grid.txt"
    f.write_text(f"1 1 1\n1 {q**2} 1\n1 1 1\n")
    code, doc, _ = run_json(capsys, "verify", str(f))
    assert code == 0
    (entry,) = doc["results"]["residue_classes"]
    assert (entry["p"], entry["kind"]) == (q, "residue")
    for cell_row, root_row in zip(entry["cells"], entry["roots"]):
        for v, r in zip(cell_row, root_row):
            assert r * r % q == v and 0 <= r <= q // 2


def test_oracle_ceiling_is_usage_error(capsys):
    # the help states the ceiling, which is taken; REFUSALS holds the values
    # past it
    help_text = " ".join(run(capsys, "analyze", "--help")[1].split())  # unwrapped
    assert "(default 100, at most 100000)" in help_text
    assert run(capsys, "analyze", "7", "--max-oracle-p", "100000")[0] == 0


def test_analyze_writes_classes_before_it_has_made_them_all(monkeypatch):
    made = []

    def counted(p):
        for fields in residue.nontrivial_fields(p):
            made.append(fields[18])
            yield fields

    monkeypatch.setattr(cli, "nontrivial_fields", counted)
    doc = cli.run_analyze(50021, 0)
    assert made == []
    chunks = doc.chunks()
    next(chunk for chunk in chunks if '"member"' in chunk)
    assert 0 < len(made) < residue.run_count(50021)
    "".join(chunks)
    assert made == list(residue.consecutive_triples(50021))


# a search that writes 2.9 MB of text: a smaller one may be written whole
# before the reader has closed
SEARCH_ALL_1000 = ["search", "1", "1000", "--no-primitive-only", "--near-miss-threshold", "0",
                   "--workers", "1"]


@pytest.mark.parametrize(
    "argv, head",
    [
        (["analyze", "200009", "--format", "structured"], b'{\n  "comma'),
        (["table", "1000000"], b"p       qr"),
        (SEARCH_ALL_1000, b"searched c"),
    ],
)
def test_a_reader_that_closes_early_gets_141(argv, head):
    # `residuum <argv> | head -c 10`
    src = Path(residuum.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-S", "-m", "residuum", *argv],
        cwd=src, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert first == head
    assert err == b""


@pytest.mark.parametrize(
    "argv, exit_code, bound_mb",
    [
        # the root table is 4 MB; the output is 93 MB
        (["analyze", "1000033", "--format", "structured"], 0, 60),
        # 375,360 runs; the root table is 11 MB
        (["construct", "3000017", "--format", "structured"], 1, 40),
        # 39,175 rows, each made from closed forms as it is written
        (["table", "1000000", "--format", "structured"], 0, 30),
        (["table", "1000000", "--format", "csv"], 0, 25),
        # the report holds its 16,944 grids; their payloads and text are made
        # as they are written
        ([*SEARCH_ALL_1000, "--format", "structured"], 0, 45),
        (SEARCH_ALL_1000, 0, 35),
    ],
)
def test_long_lists_are_derived_as_they_are_written(argv, exit_code, bound_mb):
    # a bare interpreter starts the call: a child's max-RSS starts from its
    # parent's high-water mark, which for pytest alone is above the bound
    spawn = (
        "import os, subprocess, sys; "
        f"proc = subprocess.Popen([sys.executable, '-S', '-m', 'residuum', *{argv!r}], "
        "stdout=subprocess.DEVNULL); "
        "_, status, usage = os.wait4(proc.pid, 0); "
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
    )
    src = Path(residuum.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", spawn], cwd=src, capture_output=True, text=True,
        check=True, timeout=120,
    )
    code, peak_kb = map(int, done.stdout.split())
    assert code == exit_code and peak_kb < bound_mb * 1024


def test_sweep_ceiling_is_usage_error(capsys):
    # the help states the bounds, which are taken; REFUSALS holds the values
    # outside them
    help_text = " ".join(run(capsys, "construct", "--help")[1].split())  # unwrapped
    assert "(default 10, from 2 to 500)" in help_text
    assert congrua.MAX_SWEEP_M == 500
    code, doc, _ = run_json(capsys, "construct", "113", "--sweep-max-m", "2")
    assert code == 1 and doc["results"]["sweeps_tried"] == [[2, 1]]
    assert run(capsys, "construct", "61", "--sweep-max-m", "500")[0] == 0


def _loaded_after(argv, watched):
    """Exit code of `main(argv)` in a fresh `python -S` interpreter, its
    output discarded, and which of `watched` it left in sys.modules."""
    code = (
        "import os, sys\n"
        "from residuum.cli import main\n"
        "sys.stdout = sys.stderr = open(os.devnull, 'w', encoding='utf-8')\n"
        f"code = main({argv!r})\n"
        "sys.stdout.flush()\n"
        f"print(code, [m for m in {watched!r} if m in sys.modules], file=sys.__stderr__)"
    )
    src = Path(residuum.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    return done.stderr


def test_cli_calls_leave_re_unloaded(tmp_path):
    # cli tokenizes grid files with str.split and makes its templates with
    # groupby, so no call but a parallel search and help pays for importing re
    code = "import sys, residuum.cli; print('re' in sys.modules)"
    src = Path(residuum.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
    grid = tmp_path / "grid.txt"
    grid.write_text("1 2 3\n4 5 6\n7 8 9\n")
    for argv in (
        ["table", "100"],
        ["table", "100", "--format", "structured"],
        ["analyze", "29", "--format", "structured"],
        ["construct", "61"],
        ["verify", str(grid)],
        ["search", "1", "100", "--workers", "1"],
    ):
        assert _loaded_after(argv, ("re",)) == "0 []\n", argv


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    # only search with more than one worker needs the pool, and every command
    # pays for the rest of these; -S keeps a host's .pth files from preloading
    # any of them
    heavy = (
        "dataclasses", "inspect", "typing", "enum", "concurrent.futures.process", "multiprocessing"
    )
    code = f"import sys, residuum.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(residuum.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
    # no call loads argparse or json, and each only the modules of its command
    unused = (
        "argparse", "gettext", "locale", "json", "enum", "residuum.intgrid", "residuum.search"
    )
    for argv, code in (
        (["analyze", "29", "--format", "structured"], 0),
        (["table", "100", "--format", "csv"], 0),
        (["construct", "61", "--format", "structured"], 0),
        (["construct", "113", "--format", "structured"], 1),
        (["--version"], 0),
        (["analyze", "1_3"], 2),
        (["search", "1", "30", "--work", "2"], 2),
        ([], 2),
    ):
        assert _loaded_after(argv, unused) == f"{code} []\n", argv
    # verify needs intgrid, but its factoring ceiling lives in fp, and a path
    # of printable ASCII is written without json
    grid = tmp_path / "grid.txt"
    grid.write_text("1 4 9\n16 36 25\n49 64 81\n")
    for fmt in ("table", "structured"):
        argv = ["verify", str(grid), "--format", fmt]
        watched = ("argparse", "json", "enum", "residuum.search")
        assert _loaded_after(argv, watched) == "0 []\n", fmt
    # help is wrapped by textwrap, whose re loads enum
    for argv in (["--help"], ["search", "--help"]):
        watched = ("argparse", "json", "residuum.intgrid", "residuum.search")
        assert _loaded_after(argv, watched) == "0 []\n", argv


def test_the_package_names_no_argparse():
    # `cli._read_argv` is the one reader of the command line
    paths = list(Path(residuum.__file__).parent.glob("*.py"))
    assert len(paths) > 2
    assert [p.name for p in paths if "argparse" in p.read_text("utf-8")] == []


# names the package no longer holds: those only the tests read, which live in
# tests/oracles.py or in the one test module that uses them, the wrappers
# deleted with their last caller, the verdicts verify reads from what it
# already holds, the Enums whose callers read only the words they print, and
# the error classes merged into one class for each way a caller handles an
# error. None resolves from the submodule that defined it
MOVED = {
    "congrua": "SquareProgression.primitive Coverage",
    "errors": """NotPrime NonResidue BadPrimeForm NonSquareCell NotMagic NonzeroCenter NotAMember
        BoundExceeded BadParameters DividesTerm NonResidueDifference FiveExcluded OddCenter
        UnexpectedPattern AllZero BadRange""",
    "fp": "PrimeContext",
    "grid_ops": """IDENTITY ROT90 ROT180 ROT270 FLIP_ROWS FLIP_COLS TRANSPOSE ANTI_TRANSPOSE
        ROTATIONS DIHEDRAL permute CENTER_LINES""",
    "intgrid": """klein_group_table parametric_magic residue_class_of Mod2Class
        has_even_center_line total_is_triple_center""",
    "residue": """MAX_NAIVE_P generated_classes naive_enumerate orbit ClassKind ResidueGrid.scaled
        ResidueGrid.transformed ResidueGrid.rotated180 ResidueGrid.reflected_rows
        ResidueGrid.reflected_anti_diagonal ResidueGrid.roots""",
    "search": "naive_center_enumeration primitive_subset",
}


def test_moved_names_resolve_from_no_submodule():
    import importlib

    for module, names in MOVED.items():
        home = importlib.import_module(f"residuum.{module}")
        for name in names.split():
            owner, _, attr = name.rpartition(".")
            assert not hasattr(getattr(home, owner) if owner else home, attr), name


def test_package_import_loads_no_submodule():
    # names are imported from their submodules; the package re-exports none,
    # so importing it loads nothing else of residuum
    code = (
        "import sys, residuum; "
        "print([m for m in sys.modules if m.startswith('residuum.')], "
        "[n for n in ('__getattr__', '__all__') if hasattr(residuum, n)])"
    )
    src = Path(residuum.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[] []\n"


Payload = namedtuple("Payload", "first second")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(), children, max_size=4)
    | st.builds(Payload, children, children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(value=json_values)
def test_structured_encoder_matches_json(value):
    assert "".join(cli._chunks(value, "\n")) == json.dumps(value, sort_keys=True, indent=2)


def class_entry(f):
    """One `nontrivial_classes` entry from its fields: cells, roots, member."""
    return {
        "member": f[18],
        "grid": {
            "cells": [list(f[0:3]), list(f[3:6]), list(f[6:9])],
            "roots": [list(f[9:12]), list(f[12:15]), list(f[15:18])],
        },
    }


entry_fields = st.tuples(*[st.integers(-(10**20), 10**20)] * 19)

table_rows = st.fixed_dictionaries({
    "p": st.integers(-(10**20), 10**20),
    "qr_count": st.integers(-(10**20), 10**20),
    "run_count": st.integers(-(10**20), 10**20),
    "coverage_status": st.sampled_from([
        "excluded_5_13_17", "covered_mod20", "covered_mod24", "covered_both",
        "small_case_table", "uncovered_but_nonempty",
    ]),
    "count_bound": st.integers(-(10**20), 10**20),
})

# IntGrids of squares, with the roots they were made from
square_grids = st.tuples(*[st.integers(0, 10**12)] * 9).map(
    lambda roots: (IntGrid(tuple(r * r for r in roots)), list(roots))
)


def grid_payload(grid, roots):
    """The structured form of a grid, built apart from the CLI's builder."""
    return {
        "cells": [list(grid.cells[i:i + 3]) for i in (0, 3, 6)],
        "roots": [roots[i:i + 3] for i in (0, 3, 6)],
    }


# (document part, the plain value json.dumps should encode the same), with a
# LazyList of each shape at the depth the commands write them, results[key]:
# ints, analyze's class entries, and table's rows and search's grids made by
# the LazyList calls of `run_table` and `run_search`
result_values = (
    json_values.map(lambda v: (v, v))
    | st.lists(st.integers(), max_size=12).map(lambda xs: (cli.LazyList(lambda: iter(xs)), xs))
    | st.lists(entry_fields, max_size=5).map(lambda fs: (
        cli.LazyList(lambda: iter(fs), cli._CLASS_ENTRY),
        [class_entry(f) for f in fs],
    ))
    | st.lists(table_rows, max_size=5).map(lambda rows: (
        cli.LazyList(lambda: iter(rows), cli._TABLE_ROW, itemgetter(*sorted(cli._TABLE_ROW))),
        rows,
    ))
    | st.lists(square_grids, max_size=5).map(lambda gs: (
        cli.LazyList(lambda: iter([g for g, _ in gs]), cli._GRID_FIELDS, cli._grid_fields),
        [grid_payload(g, roots) for g, roots in gs],
    ))
)
documents = st.builds(
    lambda command, parameters, results: (
        cli.OutputDocument(command, parameters, {k: v[0] for k, v in results.items()}),
        {"command": command, "parameters": parameters,
         "results": {k: v[1] for k, v in results.items()}, "tool_version": cli.__version__},
    ),
    st.text(max_size=5),
    st.dictionaries(st.text(max_size=5), json_values, max_size=3),
    st.dictionaries(st.text(max_size=5), result_values, max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(document=documents, batch=st.integers(1, 3))
def test_streamed_output_matches_json(document, batch):
    doc, plain = document
    with mock.patch.object(cli, "_BATCH", batch):
        chunks = list(doc.chunks())
        text = doc.to_json()
    assert "".join(chunks) == text == json.dumps(plain, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(fields=entry_fields, depth=st.integers(0, 6))
def test_class_entry_template_matches_the_encoder(fields, depth):
    inner = "\n" + "  " * depth
    text = "".join(cli._chunks(class_entry(fields), inner))
    assert cli._fields_template(cli._CLASS_ENTRY, inner) % fields == text


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(table_rows, min_size=1, max_size=4), depth=st.integers(0, 6))
def test_table_row_template_matches_the_encoder(rows, depth):
    inner = "\n" + "  " * depth
    shaped = cli.LazyList(lambda: iter(rows), cli._TABLE_ROW, itemgetter(*sorted(cli._TABLE_ROW)))
    assert shaped.encoder(inner)(rows) == cli._encode_items(rows, inner)


@pytest.mark.parametrize("value", [{1: 2}, [{"a": {(1, 2): 0}}], {None: 0}])
def test_structured_encoder_refuses_non_str_keys(value):
    with pytest.raises(TypeError):
        "".join(cli._chunks(value, "\n"))


# each class of residuum.errors and the exit code that cli's docstring
# gives it
EXIT_OF = {
    errors.ResiduumError: 1,
    errors.UsageError: 2,
    errors.ParseError: 3,
    errors.NotCovered: 1,
}


def test_exit_of_names_every_error_class():
    assert {v for v in vars(errors).values() if isinstance(v, type)} == set(EXIT_OF)


@pytest.mark.parametrize("error", EXIT_OF, ids=lambda c: c.__name__)
def test_the_error_class_alone_decides_the_exit_code(capsys, monkeypatch, error):
    def refuse(args):
        raise error("refused")

    monkeypatch.setattr(cli, "_dispatch", refuse)
    assert run(capsys, "table", "10") == (EXIT_OF[error], "", "error: refused\n")


def test_missing_subcommand_is_usage_error(capsys):
    # not a REFUSALS row: the --format appended to each row would be read as
    # the command
    assert run(capsys) == (
        2, "", "error: expected a command, one of analyze, table, verify, construct, search; "
        "got none\n"
    )


def test_version_flag(capsys):
    assert run(capsys, "--version") == (0, f"residuum {residuum.__version__}\n", "")


# ---------------------------------------------------------------- argv reader

# the tokens the reader takes for an int, each with its value, and for a path;
# a path may look like an int the reader refuses, or like a negative one
INT_TOKENS = {"0": 0, "5": 5, "29": 29, "100": 100, "-3": -3, "+7": 7, "07": 7}
PATH_TOKENS = ["grid.txt", "-5", "a b", "analyze", "1_0", "\u0663", " 8", ""]
JUNK_TOKENS = [
    "-x", "-x5", "-", "--", "--form", "--format=csv", "-h", "--help", "-1e5", "-1.5",
    "--version", "", "x", "-\u0663", "--no-format", "--primitive", "--no-workers", "1_0",
    "\u0663", " 8", "4.0", "1e3", "--no-primitive-only=1", "--workers=",
]
VOCABULARY = sorted(
    {*cli.COMMANDS, *INT_TOKENS, *PATH_TOKENS, *JUNK_TOKENS, "table", "structured", "csv",
     "--no-primitive-only"}
    | {o.name for command in cli.COMMANDS.values() for o in command.options}
)
# a command line: its command, its positionals and options as groups of
# tokens, each group with the argument it sets, and the values by name that
# the reader gives, or None where a value was drawn from the junk tokens
Form = namedtuple("Form", "command groups values")


def good_tokens(arg) -> dict:
    """The tokens the reader takes as a value of `arg`, each with its value."""
    if arg.choices:
        return {c: c for c in arg.choices}
    return {t: t for t in PATH_TOKENS} if arg.type is str else INT_TOKENS


@st.composite
def argv_forms(draw):
    """The Form of a command, its positionals and some of its options, in any
    order, with about one value in five drawn from the junk tokens."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    positionals, options = cli.COMMANDS[command].positionals, cli.COMMANDS[command].options

    def value(arg):
        good = sorted(good_tokens(arg))
        return draw(st.sampled_from(good if draw(st.integers(0, 4)) else JUNK_TOKENS))

    groups = [(a, [value(a)]) for a in positionals]
    for o in draw(st.lists(st.sampled_from(options), max_size=4)):
        if o.type is bool:
            groups.append((o, [draw(st.sampled_from([o.name, "--no-" + o.name[2:]]))]))
        else:
            groups.append((o, [o.name, value(o)]))
    groups = draw(st.permutations(groups))
    # the positionals are read in the order they come
    slots = iter(positionals)
    groups = [(next(slots) if arg in positionals else arg, tokens) for arg, tokens in groups]
    values = {o.name: o.default for o in options}
    for arg, tokens in groups:  # in order, so a repeated option's last value counts
        if arg.type is bool:
            values[arg.name] = tokens[0] == arg.name
        elif tokens[-1] in good_tokens(arg):
            values[arg.name] = good_tokens(arg)[tokens[-1]]
        else:
            values = None
            break
    return Form(command, groups, values)


def spaced(form) -> list:
    return [form.command] + [token for _, tokens in form.groups for token in tokens]


def perturb(argv, edits):
    argv = list(argv)
    for kind, at, token in edits:
        at %= len(argv) + 1
        if kind == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if kind == "delete":
                del argv[at]
            else:
                argv[at] = token
    return argv


edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 8),
              st.sampled_from(VOCABULARY)),
    max_size=3,
)


@settings(max_examples=500, deadline=None)
@given(form=argv_forms())
def test_a_clean_form_reads_to_the_values_it_drew(form):
    assume(form.values is not None)
    read = (form.command, form.values)
    assert cli._read_argv(spaced(form)) == read
    # `--opt=value` reads as `--opt value`
    joined = [form.command] + ["=".join(tokens) for _, tokens in form.groups]
    assert cli._read_argv(joined) == read
    # after `--`, every token is a positional, one that starts with `-` too
    options = [t for arg, tokens in form.groups if arg.name[0] == "-" for t in tokens]
    free = [t for arg, tokens in form.groups if arg.name[0] != "-" for t in tokens]
    assert cli._read_argv([form.command, *options, "--", *free]) == read


def test_a_repeated_option_keeps_its_last_value():
    read = cli._read_argv([
        "search", "--workers", "1", "1", "--primitive-only", "30", "--workers=2",
        "--near-miss-threshold", "0", "--no-primitive-only", "--near-miss-threshold=5",
    ])
    assert read == ("search", {
        "e_min": 1, "e_max": 30, "--primitive-only": False, "--near-miss-threshold": 5,
        "--workers": 2, "--format": "table",
    })


@pytest.mark.parametrize("token", VOCABULARY)
def test_every_token_after_a_double_dash_is_a_positional(token):
    read = cli._read_argv(["verify", "--format", "structured", "--", token])
    assert read == ("verify", {"path": token, "--format": "structured"})


def ends_as_documented(argv) -> bool:
    """Whether `argv` is read, is answered by `main` with help or the
    version on stdout and exit 0, or is refused by `main` with exit 2, one
    `error:` line and nothing on stdout; no other exception escapes."""
    try:
        read = cli._read_argv(argv)
    except errors.UsageError:
        read = None
    if type(read) is tuple:
        return True
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if read is None:
        lines = err.getvalue().splitlines()
        return (code, out.getvalue(), len(lines)) == (2, "", 1) and lines[0].startswith("error: ")
    shown = read.startswith("usage: residuum ") or read == f"residuum {residuum.__version__}\n"
    return (code, out.getvalue(), err.getvalue()) == (0, read, "") and shown


@settings(max_examples=1000, deadline=None)
@given(form=argv_forms() | st.just(Form("--version", [], None)), changes=edits)
def test_every_perturbed_command_line_ends_as_documented(form, changes):
    argv = perturb(spaced(form), changes)
    assert ends_as_documented(argv), argv


@settings(max_examples=500, deadline=None)
@given(text=st.text(
    st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
    | st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f\x80￿\U0001f600')
))
def test_quote_matches_json(text):
    # lone surrogates included: a non-UTF-8 byte in a path arrives as one
    assert cli._quote(text) == json.dumps(text)
