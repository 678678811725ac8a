"""The experiment script under scripts/ imports the library's public API, so
it is run once as a subprocess on a small input."""

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


def test_coverage_sweep_runs():
    done = run_script("coverage_sweep.py", "--max-p", "200", "--max-m", "6")
    assert done.returncode == 0, done.stderr
    assert "p= 113: (3,2)" in done.stdout
