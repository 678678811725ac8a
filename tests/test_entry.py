"""The process entry point, `cli.entry`: `python -m residuum` and the
`residuum` script run `main` through it, and it freezes the garbage collector
once `main` has returned, so that shutdown's collections skip what the call
made. These tests hold it to the output of `main` and to a normal shutdown."""

import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import residuum
from residuum.cli import main

SRC = Path(residuum.__file__).resolve().parents[1]

# the console script's wrapper, as pip writes it, less its argv[0] rewrite
SCRIPT = "import sys; from residuum.cli import entry; sys.exit(entry())"


def _spawn(*args, timeout=60):
    """A `python -S` child run from the source tree, its stdout buffered, so
    that output `main` leaves unflushed is lost unless shutdown flushes it.
    The timeout also fails a call whose pool worker still holds the stdout
    pipe after `main` returns."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-S", *args], cwd=SRC, env=env, capture_output=True, timeout=timeout
    )


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        # 4.5 MB, far more than a pipe holds
        (["analyze", "50021", "--format", "structured"], 0),
        (["construct", "113"], 1),
        (["analyze", "4"], 2),
        (["verify", "{missing}"], 3),
        (["--version"], 0),
        (["search", "1", "2000", "--workers", "2"], 0),
    ],
)
def test_process_entry_loses_nothing(argv, exit_code, tmp_path):
    argv = [a.format(missing=tmp_path / "missing.txt") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    expected = (code, out.getvalue().encode(), err.getvalue().encode())
    assert code == exit_code
    for args in (["-m", "residuum", *argv], ["-c", SCRIPT, *argv]):
        done = _spawn(*args)
        assert (done.returncode, done.stdout, done.stderr) == expected, args[:2]


def test_console_script_names_the_entry():
    text = (SRC.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert section.strip() == 'residuum = "residuum.cli:entry"'


def test_main_never_freezes(capsys):
    before = gc.get_freeze_count()
    for argv in (["analyze", "29"], ["construct", "113"], ["analyze", "4"], ["--version"]):
        main(argv)
        assert gc.get_freeze_count() == before, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "call",
    [
        "sys.exit(entry())",
        "runpy.run_module('residuum', run_name='__main__')",
    ],
    ids=["script", "python-m"],
)
def test_entry_freezes_and_shuts_down_normally(call):
    # atexit callbacks run after the freeze, and the last flush of stdout
    # still writes the version line, which `main` leaves buffered
    code = (
        "import atexit, gc, runpy, sys\n"
        "from residuum.cli import entry\n"
        "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['residuum', '--version']\n"
        f"{call}\n"
    )
    done = _spawn("-c", code)
    assert done.returncode == 0
    assert done.stdout == f"residuum {residuum.__version__}\n".encode()
    assert done.stderr == b"atexit True\n"


def test_profiler_still_reports():
    # an exit that skipped the interpreter's shutdown would lose the profile
    done = _spawn("-m", "cProfile", "-m", "residuum", "--version")
    assert done.returncode == 0
    assert done.stdout.startswith(f"residuum {residuum.__version__}\n".encode())
    assert b"function calls" in done.stdout

