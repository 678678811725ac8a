"""The package ships what its commands run: every function that `residuum`
exports is called by some command of `tests/test_golden.py`.

A function no command calls belongs beside the tests that read it. The one
exemption is a name that `bench/trace.py`'s TRACED patches, since the
benchmark's tracer needs it in the package; once TRACED stops naming it,
this test asks for it to move.
"""

import json
import os
import subprocess
import sys

from test_bench_contract import SRC, traced_names
from test_golden import GOLDEN, VERIFY_FILES

# Profiles every Python call from before residuum is imported, so calls made
# at import time count, then runs each command given as a JSON list of argv
# and writes (exit codes, exported functions never called) as JSON to the
# path in argv[1]. The commands' own output goes to the parent's devnull.
CHILD = """
import json, sys
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
for name in residuum.__all__:
    fn = getattr(residuum, name)
    fn = getattr(fn, "__wrapped__", fn)  # a cached function's own code
    if isinstance(fn, FunctionType) and fn.__code__ not in called:
        unused.append(name)
with open(sys.argv[1], "w") as out:
    json.dump([codes, unused], out)
"""


def test_every_exported_function_runs_under_a_golden_command(tmp_path):
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
        name
        for entries in traced_names().values()
        for entry in entries
        for name in ((entry,) if isinstance(entry, str) else entry[1])
    }
    assert sorted(set(unused) - traced) == []
