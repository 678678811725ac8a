"""The boundary sweep: one argument of one command at a time, over small and
negative values, numbers written in ways `int` reads or refuses (the command
line, like a grid file, takes only ASCII digits after at most one sign), the
numbers earlier refusals met, and every ceiling with the value just past it,
in every form the command takes.

A call's whole input is its command line and the grid file `verify` reads:
the package reads no environment variable, which the last test holds, so
varying argv covers it. No exception may escape `main`, every exit code must
be a documented one, and each refusal (exit 2 or 3) must say why on stderr
and meet `test_refusal_is_pinned`'s invariant: nothing written to stdout and
no root table, sieve or process pool made. Which values are refused, and
with what message, is pinned by `test_golden.REFUSALS`.
"""

import io
import re
import sys
from pathlib import Path

import pytest

from residuum.cli import MAX_GRID_BYTES
from residuum.congrua import MAX_SWEEP_M
from residuum.fp import MAX_CENTER_ROOT, MAX_CONTEXT_P, MAX_WORKERS
from residuum.residue import MAX_COUNT_P
from test_golden import forms, main_and_made

ROOT = Path(__file__).resolve().parents[1]

# the largest value each bound takes, 8 being the near-miss threshold's; each
# lower bound (0, 1, 2 or 5) is among the values below already
CEILINGS = (MAX_CONTEXT_P, MAX_COUNT_P, MAX_SWEEP_M, MAX_WORKERS, MAX_CENTER_ROOT, 8, MAX_GRID_BYTES)
VALUES = [
    "0", "1", "2", "3", "4", "5", "-1", "-5", "+7", "07", "1_3", "٣", "4.0", "", " 5", "1e3",
    # a prime = 3 (mod 4) past the last Miller-Rabin bound, a Mersenne prime
    # below it, an Euler pseudoprime to base 2 and a square
    str(2**89 - 1), str(2**61 - 1), "3277", "25",
    *[str(v) for c in CEILINGS for v in (c, c + 1)],
]

# each command line with the varied argument as V, the others cheap. search's
# e_max is varied with e_min, over windows of one center: a window from 1 to
# the factoring ceiling would take years.
V = None
SWEEP = [
    ["analyze", V],
    ["analyze", "13", "--max-oracle-p", V],
    ["table", V],
    ["verify", V],
    ["construct", V],
    ["construct", "29", "--sweep-max-m", V],
    ["search", V, "30"],
    ["search", V, V],
    ["search", "1", "30", "--near-miss-threshold", V],
    ["search", "1", "30", "--workers", V],
]
EXIT_CODES = {0, 1, 2, 3, 10}


class Discard(io.TextIOBase):
    """A stdout that counts the characters written to it and keeps none. Like
    a reader that has seen enough, it stops taking a command's pieces after
    the first 2**16 characters, so an accepted call at `table`'s ceiling
    makes only the rows it has written by then. Every refusal comes before
    the first piece."""

    written = 0

    def write(self, s):
        self.written += len(s)
        return len(s)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)
            if self.written > 2**16:
                break


@pytest.mark.parametrize(
    "template", SWEEP, ids=[" ".join("V" if t is V else t for t in s) for s in SWEEP]
)
def test_every_boundary_value_exits_with_a_documented_code(
    capsys, tmp_path, monkeypatch, pool_sizes, template
):
    # verify's paths name no file here; search starts no process (pool_sizes)
    monkeypatch.chdir(tmp_path)
    out = Discard()
    monkeypatch.setattr(sys, "stdout", out)
    wrong = []
    for value in VALUES:
        argv = [value if t is V else t for t in template]
        for fmt in forms(argv[0]):
            run = [*argv, "--format", fmt]
            out.written = 0
            try:
                code, made = main_and_made(monkeypatch, pool_sizes, run)
            except Exception as exc:
                wrong.append((run, "escaped", repr(exc)))
                continue
            err = capsys.readouterr().err
            if code not in EXIT_CODES:
                wrong.append((run, code, err))
            elif code in (2, 3) and (out.written or made or not err):
                wrong.append((run, code, out.written, made, err))
    assert wrong == []


def test_the_package_reads_no_environment():
    # the command line and verify's file are the whole input; README says so
    paths = [*(ROOT / "src" / "residuum").glob("*.py"), ROOT / "README.md"]
    assert len(paths) > 2
    for path in paths:
        found = re.findall(r".*(?:environ|getenv|RESIDUUM_THREADS).*", path.read_text("utf-8"))
        assert found == [], path
