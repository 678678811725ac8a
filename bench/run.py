#!/usr/bin/env python3
"""Benchmark for the residuum CLI, end to end and layer by layer.

    python3 bench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

With --trace 0 one client calls `python -m residuum ...` as subprocesses,
one call at a time, checks every output with bench/checks.py and reports
the end-to-end metrics. With --trace 1 the same operations are replayed
in-process, each once plain and once with every layer boundary traced, and
the per-layer metrics are reported. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give the
run record and every metric by name with its unit.

--smoke runs every workload on tiny inputs, untraced and traced, and exits
non-zero unless every run is correct.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import checks, oracle, trace, workloads  # noqa: E402

SRC = ROOT / "src"
STATE = ROOT / "bench" / ".state"
SETUP_REPEATS = 9
SPEED_LOOP = 150_000
# About the speed loop's median time on the reference host (Intel Xeon,
# 2 vCPUs, Python 3.11.7); scaled times are wall times on a host where the
# loop takes this long.
NOMINAL_LOOP_S = 0.012
IMPORT_REPEATS = 5
MAX_ORACLE_P = 100
NEAR_MISS_THRESHOLD = 7
SWEEP_MAX_M = 10

# What each workload's unit of work is, for work_per_s.
WORK_UNIT = {"table": "primes_per_s", "search": "centers_per_s", "query": "calls_per_s"}


class Run:
    """Operations attempted and failed, with the reasons, for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]


# ---------------------------------------------------------------- records


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "residuum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ------------------------------------------------------------ exact counts


def compare_counts(key: str, counts: dict) -> list[str]:
    """Exact counts must repeat for the same inputs; the first run of a key
    stores them in bench/.state/counts.json, later runs compare."""
    path = STATE / "counts.json"
    try:
        stored = json.loads(path.read_text())
    except (OSError, ValueError):
        stored = {}
    previous = stored.get(key, {})
    problems = [
        f"exact count {name} = {value}, an earlier run had {previous[name]}"
        for name, value in counts.items()
        if name in previous and previous[name] != value
    ]
    stored[key] = {**previous, **counts}
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


def counts_key(wl: workloads.Workload, mode: str) -> str:
    """Counts are compared only between runs of the same inputs and the same
    program sources, since a change to the program may change them on purpose."""
    digest = hashlib.sha256(json.dumps(wl.inputs, sort_keys=True).encode()).hexdigest()[:16]
    return f"{wl.name}:{mode}:{digest}:{source_digest()}"


# -------------------------------------------------------------- end to end


class HostSpeed:
    """Times a fixed pure-Python loop on the CPU the calls run on.

    On a shared host the same code runs up to 1.5x slower for tens of
    seconds at a time, whatever this process does, and ten runs of one
    workload spread by up to 25% in wall time. A call's wall time over the
    loop time measured just before and just after it moves less (5-12% over
    ten runs where wall time moved 15-23%), so the end-to-end times are
    reported scaled to a host on which the loop takes NOMINAL_LOOP_S, and the
    unscaled times are printed beside them.
    """

    def __init__(self):
        self.last = self.measure()
        self.loops = [self.last]

    @staticmethod
    def measure() -> float:
        start = time.perf_counter()
        x = 0
        for i in range(SPEED_LOOP):
            x += i * i
        return time.perf_counter() - start

    def scale(self) -> float:
        """Factor for the call that just ended."""
        after = self.measure()
        self.loops.append(after)
        factor = 2 * NOMINAL_LOOP_S / (self.last + after)
        self.last = after
        return factor


class Client:
    """The single closed-loop client: one `python -m residuum` call at a time.

    The client pins itself, and so every call, to one CPU, where the speed
    loop runs too.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        # calls read and write bytecode caches, as an installed package's do
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(SRC)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.speed = HostSpeed()

    def call(self, args: list[str]) -> tuple[float, float, int, str, float]:
        """Run one CLI call; returns its wall seconds, the same scaled to the
        nominal host, exit code, stdout and the peak RSS in MB of the call's
        process tree (wait4 counts any child it reaped)."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "residuum", *args],
                cwd=self.workdir, env=self.env, stdout=subprocess.PIPE, stderr=err,
            )
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        scaled = wall * self.speed.scale()
        return wall, scaled, proc.returncode, out.decode(), usage.ru_maxrss / 1024


def check_output(op: workloads.Op, code: int, text: str, wl, seed: int) -> list[str]:
    if op.kind == "table":
        return ([f"table exit {code}"] if code else []) + checks.check_table(text, op.p, seed)
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"{op.kind} {op.args[1]}: exit {code}, output is not JSON"]
    if op.kind == "search":
        return checks.check_search(doc, code, *op.window, wl.centers, NEAR_MISS_THRESHOLD)
    if op.kind == "construct":
        return checks.check_construct(doc, op.p, code)
    problems = [f"{op.kind} {op.args[1]}: exit {code}"] if code else []
    if op.kind == "analyze":
        return problems + checks.check_analyze(doc, op.p)
    return problems + checks.check_verify(doc, op.cells)


def output_counts(op: workloads.Op, text: str) -> dict:
    """Exact counts read from one output: search candidates and pruned
    centers, and the nontrivial classes a query call emitted."""
    if op.kind in ("table", "verify"):
        return {}
    try:
        r = json.loads(text).get("results", {})
    except ValueError:
        return {}
    if op.kind == "search":
        return {"search.candidates": r.get("candidates_tested"), "search.pruned": r.get("pruned_centers")}
    if op.kind == "analyze":
        return {"residue.classes_emitted": len(r.get("nontrivial_classes") or [])}
    return {"residue.classes_emitted": 1 if r.get("constructed") else 0}


def measure_setup(client: Client, run: Run, repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of `--version`, unscaled and scaled: interpreter start plus
    the package import. One untimed call first writes the bytecode caches a
    user would have."""
    client.call(["--version"])
    raw, scaled = [], []
    for _ in range(repeats):
        wall, wall_scaled, code, out, _ = client.call(["--version"])
        run.record(([f"--version exit {code}"] if code else []) + checks.check_version(out))
        raw.append(wall)
        scaled.append(wall_scaled)
    return raw, scaled


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(setup: list[float], walls: list[float], work: int, rss: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        # a total over the run rather than a median per call, so that it
        # averages what scaling leaves of the host's speed swings
        "work_per_s": (work / sum(walls), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(walls), "ms"),
        "latency_p90_ms": (1000 * quantile(walls, 90), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def run_e2e(wl, seed: int, seconds: float, client: Client, run: Run, smoke: bool) -> dict:
    setup_raw, setup = measure_setup(client, run, 3 if smoke else SETUP_REPEATS)
    raw, walls, rss = [], [], []
    work = 0
    pass_counts: list[dict] = []
    pass_walls: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        counts: dict = {}
        for op in wl.ops:
            wall, scaled, code, out, peak = client.call(op.args)
            run.record(check_output(op, code, out, wl, seed))
            raw.append(wall)
            walls.append(scaled)
            rss.append(peak)
            work += op.work
            for name, value in output_counts(op, out).items():
                counts[name] = counts.get(name, 0) + value
        pass_counts.append(counts)
        pass_walls.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within the measuring time
        if elapsed + statistics.median(pass_walls) > seconds:
            break
    problems = [f"exact counts differ between passes: {pass_counts}"] if any(
        c != pass_counts[0] for c in pass_counts) else []
    problems += compare_counts(counts_key(wl, "e2e"), pass_counts[0])
    return {
        "metrics": e2e_metrics(setup, walls, work, rss),
        "unscaled": e2e_metrics(setup_raw, raw, work, rss),
        "speed_loop_s": statistics.median(client.speed.loops),
        "samples": len(walls),
        "setup_samples": len(setup),
        "counts": pass_counts[0],
        "problems": problems,
    }


# ------------------------------------------------------------------ traced


def measure_import(client: Client) -> float:
    """Median time to import residuum.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import residuum.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=client.workdir, env=client.env,
                             capture_output=True, text=True, check=True).stdout
        times.append(float(out))
    return statistics.median(times)


def table_csv(results: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(checks.TABLE_COLUMNS)
    for row in results["rows"]:
        writer.writerow([row[c] for c in checks.TABLE_COLUMNS])
    return buf.getvalue()


class Replay:
    """The workload's operations called in-process, through the public
    functions the CLI uses, each op starting from an empty context cache as
    a fresh CLI process would.

    Every op runs twice, plain and traced, in alternating order, so that
    both runs of an op see the same host speed and their difference is the
    tracing overhead.
    """

    def __init__(self, wl, seed: int, workdir: Path, tracer: trace.Tracer):
        import residuum
        from residuum import cli, fp, search

        if not Path(residuum.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported residuum from {residuum.__file__}, not {SRC}")
        self.wl, self.seed, self.workdir, self.tracer = wl, seed, workdir, tracer
        self.cli, self.search = cli, search
        self.cache_clear = fp.make_context.cache_clear
        self.cache_info = fp.make_context.cache_info
        tracer.install()
        self.plain_s = self.traced_s = 0.0
        self.center_s: list[float] = []
        self.cache_entries = self.residues_held = 0
        self.candidates = self.pruned = 0

    def _twice(self, call, traced_first: bool):
        """Run `call` plain and traced in the given order; returns the traced
        run's result and the plain run's wall time."""
        for traced in (traced_first, not traced_first):
            self.cache_clear()
            if traced:
                self.tracer.context_primes.clear()
                self.tracer.enable()
            try:
                start = time.perf_counter()
                result = call()
                wall = time.perf_counter() - start
            finally:
                self.tracer.disable()
            if traced:
                self.traced_s += wall
                traced_result = result
            else:
                self.plain_s += wall
                plain_wall = wall
        return traced_result, plain_wall

    def __call__(self, run: Run) -> None:
        """Replay every op; output checks run outside the timed part."""
        for i, op in enumerate(self.wl.ops):
            self.tracer.op = i
            try:
                if op.kind == "search":
                    self._search(op, run)
                    continue
                (code, text, results), _ = self._twice(lambda: self._call(op), i % 2 == 1)
            except Exception as exc:  # a crash is a failed op, not a crashed benchmark
                run.record([f"{op.kind} {op.args[1]}: {type(exc).__name__}: {exc}"])
                continue
            self.cache_entries = max(self.cache_entries, self.cache_info().currsize)
            held = sum((p - 1) // 2 for p in self.tracer.context_primes)
            self.residues_held = max(self.residues_held, held)
            if op.kind == "table":
                text = table_csv(results)
            run.record(check_output(op, code, text, self.wl, self.seed))

    def _call(self, op):
        cli = self.cli
        if op.kind == "table":
            doc = cli.run_table(op.p)
            return 0, "", doc.results
        if op.kind == "analyze":
            doc, code = cli.run_analyze(op.p, MAX_ORACLE_P), 0
        elif op.kind == "construct":
            doc, code = cli.run_construct(op.p, SWEEP_MAX_M)
        else:
            doc, code = cli.run_verify(str(self.workdir / op.path)), 0
        return code, doc.to_json(), None

    def _search(self, op, run: Run) -> None:
        """One search_msos(e, e) call per center, so each center's time shows."""
        a, b = op.window
        hits, near = [], []
        for e in range(a, b + 1):
            report, plain = self._twice(
                lambda: self.search.search_msos(
                    e, e, True, near_miss_threshold=NEAR_MISS_THRESHOLD, workers=1),
                e % 2 == 1)
            self.center_s.append(plain)
            self.candidates += report.candidates_tested
            self.pruned += report.pruned_centers
            hits += [{"cells": g.rows()} for g in report.hits]
            near += [{"cells": g.rows()} for g in report.near_misses]
        doc = {"command": "search", "results": {
            "e_min": a, "e_max": b, "pruned_centers": self.pruned,
            "hit_count": len(hits), "hits": hits, "near_miss_count": len(near), "near_misses": near}}
        run.record(checks.check_search(doc, 10 if hits else 0, a, b, self.wl.centers,
                                       NEAR_MISS_THRESHOLD))


def per_layer_metrics(tracer, replay: Replay, import_s: float, nproc: int) -> dict:
    summary = tracer.summary()
    inc, calls, layer_self = summary["inclusive"], summary["calls"], summary["layer_self"]
    traced = replay.traced_s
    m = {
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (replay.plain_s, "s"),
        "trace.overhead_s": (traced - replay.plain_s, "s"),
        "trace.self_coverage": (sum(layer_self.values()) / traced if traced else 0.0, "ratio"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in trace.LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    for name in TIMED:
        m[f"{name}.s"] = (inc.get(name, 0.0), "s")
    m["cli.json_bytes"] = (tracer.counts.get("cli.json_bytes", 0), "bytes")
    m["fp.make_context.calls"] = (calls.get("fp.make_context", 0), "count")
    m["fp.context_cache.entries"] = (replay.cache_entries, "count")
    m["fp.residues_held"] = (replay.residues_held, "count")
    m["residue.consecutive_triples.calls"] = (calls.get("residue.consecutive_triples", 0), "count")
    m["residue.triple_from_member.calls"] = (calls.get("residue.triple_from_member", 0), "count")
    m["residue.classes_emitted"] = (tracer.counts.get("residue.classes_emitted", 0), "count")
    pairs = tracer.pair_counts
    layouts = sum(comb(k, 4) * 384 for k in pairs)
    searched = replay.center_s
    total = sum(searched)
    slowest = max(searched, default=0.0)
    m["search.pruned"] = (replay.pruned, "count")
    m["search.pairs"] = (sum(pairs), "count")
    m["search.heavy_centers"] = (sum(1 for k in pairs if k >= oracle.HEAVY_K), "count")
    m["search.layouts"] = (layouts, "count")
    m["search.candidates"] = (replay.candidates, "count")
    m["search.candidates_per_layout"] = (replay.candidates / layouts if layouts else 0.0, "ratio")
    m["search.assembly.self_s"] = (
        inc.get("search.search_msos", 0.0)
        - inc.get("search.center_has_inadmissible_factor", 0.0)
        - inc.get("search.pair_decompositions", 0.0), "s")
    m["search.slowest_center_s"] = (slowest, "s")
    m["search.top3_share"] = (sum(sorted(searched)[-3:]) / total if total else 0.0, "ratio")
    m["search.pool.ideal_s"] = (max(total / nproc, slowest), "s")
    return m


# Span names whose inclusive time is reported as <name>.s.
TIMED = (
    "cli.run_table", "cli.run_analyze", "cli.run_construct", "cli.run_verify", "cli.to_json",
    "fp.primes_up_to", "fp.make_context",
    "residue.consecutive_triples", "residue.count_bound", "residue.triple_from_member",
    "residue.gen_nontrivial", "residue.enumerate_all",
    "congrua.coverage_status", "congrua.construct",
    "intgrid.admissible_center_check", "intgrid.reduce_primitive",
    "search.search_msos", "search.center_has_inadmissible_factor", "search.pair_decompositions",
)
EXACT_COUNTS = ("search.layouts", "search.candidates", "search.pruned",
                "fp.residues_held", "residue.classes_emitted")


def run_traced(wl, seed: int, client: Client, run: Run, nproc: int) -> dict:
    import_s = measure_import(client)
    sys.path.insert(0, str(SRC))
    tracer = trace.Tracer()
    replay = Replay(wl, seed, client.workdir, tracer)
    replay(run)
    metrics = per_layer_metrics(tracer, replay, import_s, nproc)
    counts = {name: metrics[name][0] for name in EXACT_COUNTS}
    problems = compare_counts(counts_key(wl, "trace"), counts)
    tracer.write(STATE / f"spans-{wl.name}-seed{seed}.csv.gz")
    return {"metrics": metrics, "counts": counts, "problems": problems,
            "spans": len(tracer.spans)}


# -------------------------------------------------------------------- main


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def run_one(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> int:
    record = run_record()
    wl = workloads.build(name, seed, smoke)
    STATE.mkdir(parents=True, exist_ok=True)
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        for path, text in wl.files.items():
            (workdir / path).write_text(text)
        client = Client(workdir)
        run = Run()
        if traced:
            out = run_traced(wl, seed, client, run, record["nproc"])
        else:
            out = run_e2e(wl, seed, seconds, client, run, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.problems += out["problems"]
    print("run_record " + json.dumps(record, sort_keys=True))
    print(f"workload {name} seed {seed}: " + json.dumps(wl.inputs, sort_keys=True))
    metrics = out["metrics"]
    if traced:
        print(f"traced run: {out['spans']} spans; exact counts {json.dumps(out['counts'], sort_keys=True)}")
    else:
        work, unit = metrics["work_per_s"]
        print(f"{WORK_UNIT[name]} = {fmt(work)} {unit} (reported as work_per_s)")
        print(f"latency over {out['samples']} calls; setup_s median of {out['setup_samples']}")
        print(f"speed loop median {fmt(out['speed_loop_s'])} s (nominal {NOMINAL_LOOP_S} s); unscaled: "
              + ", ".join(f"{k} = {fmt(v)} {u}" for k, (v, u) in out["unscaled"].items()))
        fail_ratio = run.failed / run.attempted
        print(f"fail_ratio = {fmt(fail_ratio)} ({run.failed}/{run.attempted} calls)")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {fmt(value)} {unit}")
    for problem in run.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload on tiny inputs, untraced and traced, each in its own process."""
    bad = []
    for name in workloads.WORKLOADS:
        for traced in ("0", "1"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "0", "--seconds", "0", "--trace", traced, "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            ok = proc.returncode == 0 and result.get("correct") is True
            print(f"{'ok  ' if ok else 'FAIL'} {name} trace={traced} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            if not ok:
                bad.append(name)
                sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; without --workload, run all")
    args = ap.parse_args(argv)
    if not (SRC / "residuum" / "__main__.py").is_file():
        print(f"error: no residuum sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        if args.smoke:
            return smoke()
        ap.error("--workload is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
