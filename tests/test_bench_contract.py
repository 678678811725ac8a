"""The benchmark's tracer patches residuum functions by name, so a refactor
that moves or renames one must fail here, not only in a traced run.

TRACED is read from bench/trace.py's source; nothing under bench/ is
imported or written.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from residuum import fp, search

TRACE_PY = Path(__file__).resolve().parent.parent / "bench" / "trace.py"
SRC = Path(fp.__file__).resolve().parents[1]


def traced_names() -> dict:
    for node in ast.parse(TRACE_PY.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACE_PY}")


def test_every_traced_name_resolves():
    traced = traced_names()
    assert traced
    for layer, entries in traced.items():
        home = importlib.import_module(f"residuum.{layer}")
        for entry in entries:
            names = (entry,) if isinstance(entry, str) else entry[1]
            for name in names:
                target = home
                for part in name.split("."):
                    assert hasattr(target, part), f"residuum.{layer}.{name}"
                    target = getattr(target, part)
                assert callable(target), f"residuum.{layer}.{name}"


def test_context_cache_is_observable():
    assert callable(fp.make_context.cache_clear)
    assert callable(fp.make_context.cache_info)


def test_scan_center_prunes_through_module_global():
    # the tracer swaps search.center_has_inadmissible_factor in place
    assert "center_has_inadmissible_factor" in search._scan_center.__code__.co_names


def test_bench_imports_load_every_traced_layer():
    # bench/run.py imports residuum and its cli, fp and search, then
    # Tracer.install reads sys.modules["residuum.<layer>"] for each layer;
    # a layer loaded only on first use would be missing there
    code = (
        "import sys, residuum, residuum.cli, residuum.fp, residuum.search; "
        "print(*(m for m in sys.modules if m.startswith('residuum.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    missing = {f"residuum.{layer}" for layer in traced_names()} - set(done.stdout.split())
    assert missing == set()
