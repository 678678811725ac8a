"""The package ships what its commands run: every public function that a
submodule of `residuum` defines, and every public method and property of a
class it defines, is called by some command of `tests/test_golden.py`.

The walk covers every submodule and every public module-level function or
class whose `__module__` is that submodule, so a name counts wherever it is
imported from. A function no command calls belongs beside the tests that
read it. The exemptions are the names that `bench/trace.py`'s TRACED
patches, since the benchmark's tracer needs them in the package (once TRACED
stops naming one, this test asks for it to move), the two entry points in
ENTRIES, which the golden commands, each a call of `main` in process, do not
take, and the methods in BENCH_CALLS, which the benchmark calls itself.
"""

import json
import os
import subprocess
import sys

from test_bench_contract import SRC, traced_names
from test_golden import GOLDEN, VERIFY_FILES

# entry points no golden command takes, each with the test that runs it
ENTRIES = {
    # the process entry; tests/test_entry.py runs it in a child
    "cli.entry",
    # the parser of record for help and the forms `_read_argv` leaves to
    # argparse; the golden commands are all forms `_read_argv` reads, and
    # tests/test_cli.py holds the two readers to the same answers
    "cli.build_parser",
}

# methods that bench/ calls outside the traced layers
BENCH_CALLS = {
    # bench/run.py's search replay writes each hit and near miss as its rows
    "intgrid.IntGrid.rows",
}

# Profiles every Python call from before residuum is imported, so calls made
# at import time count, then runs each command given as a JSON list of argv.
# It then imports every submodule and writes (exit codes, functions never
# called, as "module.name" or "module.Class.name") as JSON to the path in
# argv[1]. The commands' own output goes to the parent's devnull.
CHILD = """
import json, pkgutil, sys
from importlib import import_module
from types import FunctionType

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)
import residuum
from residuum.cli import main

codes = [main(argv) for argv in json.loads(sys.stdin.read())]
sys.setprofile(None)
unused = []
for info in pkgutil.iter_modules(residuum.__path__):
    if info.name.startswith("_"):
        continue
    module = import_module(f"residuum.{info.name}")
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        fn = getattr(value, "__wrapped__", value)  # a cached function's own code
        if isinstance(fn, FunctionType) and fn.__code__ not in called:
            unused.append(f"{info.name}.{name}")
        if isinstance(value, type):
            for attr, member in vars(value).items():
                fn = member.fget if isinstance(member, property) else member
                if attr.startswith("_") or not isinstance(fn, FunctionType):
                    continue
                if fn.__code__ not in called:
                    unused.append(f"{info.name}.{name}.{attr}")
with open(sys.argv[1], "w") as out:
    json.dump([codes, unused], out)
"""


def test_every_public_function_runs_under_a_golden_command(tmp_path):
    for name, cells in VERIFY_FILES.items():
        (tmp_path / name).write_text(" ".join(map(str, cells)) + "\n")
    argvs = [
        command.split() + ([] if "--format" in command else ["--format", "structured"])
        for command in GOLDEN
    ]
    result = tmp_path / "reach.json"
    subprocess.run(
        [sys.executable, "-c", CHILD, str(result)],
        input=json.dumps(argvs),
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=300,
        check=True,
    )
    codes, unused = json.loads(result.read_text())
    assert codes == [code for code, _ in GOLDEN.values()]
    traced = {
        f"{layer}.{name}"
        for layer, entries in traced_names().items()
        for entry in entries
        for name in ((entry,) if isinstance(entry, str) else entry[1])
    }
    assert sorted(set(unused) - traced - ENTRIES - BENCH_CALLS) == []
