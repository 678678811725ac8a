"""Every output check must be able to fail.

Each test feeds a check a genuine output of the program, which must pass,
and then deliberately corrupted copies of it, each of which must fail.
Run with: python -m pytest bench
"""

from __future__ import annotations

import copy
import csv
import io
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from residuum import cli  # noqa: E402

from bench import checks, oracle, trace, workloads  # noqa: E402
from bench.run import table_csv  # noqa: E402


def doc_of(output) -> dict:
    return json.loads(output.to_json())


def edit_table(text: str, edit) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def test_table_check():
    text = table_csv(cli.run_table(500).results)
    assert checks.check_table(text, 500, sample_seed=1) == []

    def bump(col):
        def edit(rows):
            rows[5][col] = str(int(rows[5][col]) + 1)
        return edit

    def swap_coverage(rows):
        rows[3][3] = "covered_mod20" if rows[3][3] != "covered_mod20" else "covered_mod24"

    def shift_all_runs(rows):
        # run_count and count_bound moved together, so only the recount can see it
        for r in rows[1:]:
            p = int(r[0])
            r[2] = str(int(r[2]) + 1)
            r[4] = str((p - 1) * (int(r[2]) + 2 * oracle.class_count_k(p)))

    def drop_row(rows):
        del rows[7]

    for edit in (bump(1), bump(4), swap_coverage, shift_all_runs, drop_row):
        assert checks.check_table(edit_table(text, edit), 500, sample_seed=1)
    assert checks.check_table(text, 600, sample_seed=1)


@pytest.mark.parametrize("p", [29, 97, 1009])
def test_analyze_check(p):
    doc = doc_of(cli.run_analyze(p, 100))
    assert checks.check_analyze(doc, p) == []

    def grid(d):
        return d["results"]["nontrivial_classes"][0]["grid"]

    def cell(d):
        grid(d)["cells"][0][1] = (grid(d)["cells"][0][1] + 1) % p

    def center(d):
        grid(d)["cells"][1][1] = 1

    def root(d):
        grid(d)["roots"][2][2] += 1

    def drop_class(d):
        d["results"]["nontrivial_classes"].pop()

    def runs(d):
        d["results"]["consecutive_triples"][0] += 1

    def bound(d):
        d["results"]["count_bound"] += p - 1

    def w(d):
        d["results"]["w"] += 1

    edits = [cell, center, root, drop_class, runs, bound, w]
    if p <= 100:
        def oracle_verdict(d):
            d["results"]["oracle"]["within_bound"] = False

        def oracle_count(d):
            d["results"]["oracle"]["count"] = d["results"]["count_bound"] + 1

        edits += [oracle_verdict, oracle_count]
    for edit in edits:
        bad = copy.deepcopy(doc)
        edit(bad)
        assert checks.check_analyze(bad, p), edit.__name__


@pytest.mark.parametrize("p", [61, 37, 109, 113, 13])
def test_construct_check(p):
    out, code = cli.run_construct(p, 10)
    doc = doc_of(out)
    assert checks.check_construct(doc, p, code) == []
    assert checks.check_construct(doc, p, 1 - code)
    bad = copy.deepcopy(doc)
    bad["results"]["coverage"] = "covered_both" if doc["results"]["coverage"] != "covered_both" else "covered_mod20"
    assert checks.check_construct(bad, p, code)
    if doc["results"]["constructed"]:
        for key in ("alpha", "beta", "gamma"):
            bad = copy.deepcopy(doc)
            bad["results"]["triple"][key] = (bad["results"]["triple"][key] + 1) % p
            assert checks.check_construct(bad, p, code), key
        bad = copy.deepcopy(doc)
        bad["results"]["grid"]["cells"][0][0] = (bad["results"]["grid"]["cells"][0][0] + 1) % p
        assert checks.check_construct(bad, p, code)
    else:
        bad = copy.deepcopy(doc)
        # n = p - 1 never starts a run: n + 1 = 0 is not a residue
        bad["results"]["consecutive_triples"].append(p - 1)
        assert checks.check_construct(bad, p, code)


def verify_doc(tmp_path, cells) -> dict:
    path = tmp_path / "grid.txt"
    path.write_text(" ".join(map(str, cells)))
    return doc_of(cli.run_verify(str(path)))


@pytest.mark.parametrize("kind", range(5))
def test_verify_check(tmp_path, kind):
    cells = workloads.verify_grids(random.Random(kind), 5)[kind]
    doc = verify_doc(tmp_path, cells)
    assert checks.check_verify(doc, cells) == []
    for key in ("magic", "square_entried", "distinct", "primitive"):
        bad = copy.deepcopy(doc)
        bad["results"][key] = not bad["results"][key]
        assert checks.check_verify(bad, cells), key
    other = (cells[0] + 1,) + cells[1:]
    assert checks.check_verify(doc, other)
    if doc["results"]["center_check"]:
        bad = copy.deepcopy(doc)
        q, verdict = bad["results"]["center_check"]["verdicts"][0]
        bad["results"]["center_check"]["verdicts"][0] = [q, "inadmissible" if verdict == "admissible" else "admissible"]
        assert checks.check_verify(bad, cells)
    classes = doc["results"]["residue_classes"] or []
    for i, c in enumerate(classes):
        if c["kind"] == "residue":
            bad = copy.deepcopy(doc)
            bad["results"]["residue_classes"][i]["cells"][0][0] += 1
            assert checks.check_verify(bad, cells)


def test_verify_grid_kinds_cover_both_verdicts():
    seen = {}
    for cells in workloads.verify_grids(random.Random(0), 10):
        exp = checks.expected_verify(cells)
        for key in ("magic", "square_entried", "distinct"):
            seen.setdefault(key, set()).add(exp[key])
    assert all(v == {True, False} for v in seen.values()), seen


def test_search_check():
    centers = oracle.CenterTable(200)
    out, code = cli.run_search(1, 200, True, 7, 1)
    doc = doc_of(out)
    assert checks.check_search(doc, code, 1, 200, centers, 7) == []
    assert checks.check_search(doc, 1, 1, 200, centers, 7)
    bad = copy.deepcopy(doc)
    bad["results"]["pruned_centers"] += 1
    assert checks.check_search(bad, code, 1, 200, centers, 7)
    bad = copy.deepcopy(doc)
    # magic and square-entried, but not nine distinct squares
    bad["results"]["hits"].append({"cells": [[25] * 3] * 3})
    bad["results"]["hit_count"] = 1
    assert checks.check_search(bad, 10, 1, 200, centers, 7)
    # Nine distinct squares around 65², its four pairs x² + y² = 2·65² on the
    # lines through the center: those four lines are magic, the outer four
    # not. Such grids have 4, 6 or 8 magic lines, never 7, so the program
    # reports none at its default threshold 7; at threshold 4 this is a
    # correct near miss, and it is never a hit.
    grid = {"cells": [[169, 2209, 529], [1225, 4225, 7225], [7921, 6241, 8281]]}
    good = copy.deepcopy(doc)
    good["results"]["near_misses"].append(grid)
    good["results"]["near_miss_count"] += 1
    assert checks.check_search(good, code, 1, 200, centers, 4) == []
    assert checks.check_search(good, code, 1, 200, centers, 7)
    short = copy.deepcopy(good)  # the same grid from a range that ends below its center root
    short["results"]["e_max"] = 64
    short["results"]["pruned_centers"] = centers.pruned_count(1, 64)
    assert checks.check_search(short, code, 1, 64, centers, 4)
    bad = copy.deepcopy(good)
    bad["results"]["near_miss_count"] -= 1
    assert checks.check_search(bad, code, 1, 200, centers, 4)
    bad = copy.deepcopy(good)
    bad["results"]["near_misses"][-1]["cells"][0][0] = 170  # not a square
    assert checks.check_search(bad, code, 1, 200, centers, 4)
    bad = copy.deepcopy(doc)
    bad["results"]["hits"].append(grid)
    bad["results"]["hit_count"] = 1
    assert checks.check_search(bad, 10, 1, 200, centers, 4)


def test_center_table_matches_reference_range():
    """The search counts for [1, 2000]: 113,136 candidates and 1,500 pruned."""
    from residuum.search import center_has_inadmissible_factor, pair_decompositions

    centers = oracle.CenterTable(2000)
    assert 48 * centers.quads(1, 2000) == 113_136
    assert centers.pruned_count(1, 2000) == 1_500
    for e in range(1, 300):
        assert centers.k[e] == len(pair_decompositions(e))
        assert centers.pruned[e] == center_has_inadmissible_factor(e)


def test_search_windows_keep_the_heavy_mix():
    centers = oracle.CenterTable(workloads.SEARCH_STARTS[1] + workloads.SEARCH_WIDTH)
    starts = workloads.search_windows(centers)
    assert len(starts) > 50
    quads = {centers.quads(s, s + workloads.SEARCH_WIDTH - 1) for s in starts}
    assert max(quads) - min(quads) <= 0.02 * min(quads)


def test_version_check():
    assert checks.check_version("residuum 0.1.0\n") == []
    assert checks.check_version("Traceback (most recent call last)")


def test_self_time_subtracts_children():
    t = trace.Tracer()
    t.spans[:] = [
        ["cli.run_table", 0.0, 10.0, -1, 0],
        ["fp.make_context", 1.0, 4.0, 0, 0],
        ["residue.count_bound", 5.0, 9.0, 0, 0],
        ["residue.consecutive_triples", 6.0, 8.0, 2, 0],
        ["congrua.construct", 9.0, 9.5, 0, 0],
        ["congrua.construct", 9.1, 9.4, 4, 0],
    ]
    s = t.summary()
    assert s["layer_self"] == pytest.approx(
        {"cli": 2.5, "fp": 3.0, "residue": 4.0, "congrua": 0.5, "intgrid": 0.0, "search": 0.0})
    assert s["inclusive"]["congrua.construct"] == pytest.approx(0.5)
    assert s["inclusive"]["residue.count_bound"] == pytest.approx(4.0)
