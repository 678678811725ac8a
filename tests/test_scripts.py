"""The experiment scripts under scripts/ import the library's public API, so
each is run once as a subprocess on a small input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_bound_ratio_is_one_half_up_to_30():
    done = run_script("bound_ratio.py", "--max-p", "30")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == ["5", "13", "17", "29"]
    for row in rows:
        assert row[-2:] == ["0.500", "True"], row


def test_coverage_sweep_runs():
    done = run_script("coverage_sweep.py", "--max-p", "200", "--max-m", "6")
    assert done.returncode == 0, done.stderr
    assert "p= 113: (3,2)" in done.stdout
