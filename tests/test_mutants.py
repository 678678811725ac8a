"""Each row of tests/mutants.py fails its tests, and a clean copy passes them.

pyproject.toml's `pythonpath = ["src"]` puts src ahead of PYTHONPATH, so a
run that pointed only PYTHONPATH at a mutated src would load the clean
package: each run gets its own copy of src, tests, pyproject.toml and
bench/trace.py.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    # tests/test_bench_contract.py reads the tracer's table from its source
    (dest / "bench").mkdir()
    shutil.copy2(ROOT / "bench" / "trace.py", dest / "bench")
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_node_ids(tree: Path, node_ids) -> tuple[int, set[str], str]:
    """pytest's exit code, the node ids that failed or errored, and its output.
    A fixed hypothesis seed makes a mutant's verdict the same on every run."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *node_ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900,
    )
    # a node id may hold spaces, as the golden commands do; a summary line
    # puts " - " and the message after it
    failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", run.stdout, re.M)
    return run.returncode, set(failed), run.stdout


@pytest.mark.slow
def test_every_mutant_fails_its_tests_and_a_clean_copy_passes_them(tmp_path):
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    clean = tmp_path / "clean"
    copy_tree(clean)
    code, _, out = run_node_ids(clean, sorted({i for m in MUTANTS for i in m.node_ids}))
    assert code == 0, out
    survivors = []
    for m in MUTANTS:
        tree = tmp_path / m.name
        copy_tree(tree)
        target = tree / "src" / "residuum" / m.path
        text = target.read_text()
        count = text.count(m.old)
        assert count == 1, (
            f"{m.name}: its old text occurs {count} times in src/residuum/{m.path}; "
            "re-target the row or retire it"
        )
        target.write_text(text.replace(m.old, m.new))
        code, failed, out = run_node_ids(tree, m.node_ids)
        # exit 1 is failed tests; 2 or 4 would be a collection or usage error
        if code != 1 or not failed >= set(m.node_ids):
            survivors.append((m.name, code, sorted(set(m.node_ids) - failed), out[-2000:]))
        shutil.rmtree(tree)
    assert survivors == []
