"""In-process tracing of residuum's layers.

`Tracer.install` wraps the public functions listed in TRACED, and `enable`
puts the wrappers in every residuum module that refers to them, so each call
records a span: name, start, end, parent span and operation id. Spans stay in memory until the
run ends. Hooks on some functions count work (pairs, classes, bytes) where
it happens.
"""

from __future__ import annotations

import gzip
import sys
import time

# Layer -> public functions timed at that layer's boundary. A tuple groups
# several functions under one metric name. grid_ops has no public entry of
# its own; its cost lands in the self time of `search`.
TRACED = {
    "cli": ("run_table", "run_analyze", "run_construct", "run_verify", "OutputDocument.to_json"),
    "fp": ("primes_up_to", "make_context", "sqrt_mod"),
    "residue": (
        "consecutive_triples", "count_bound", "triple_from_member",
        "gen_nontrivial", "enumerate_all",
    ),
    "congrua": (
        "coverage_status",
        ("construct", ("construct_mod20", "construct_mod24", "ap_to_unit_triple")),
    ),
    "intgrid": ("admissible_center_check", "reduce_primitive"),
    "search": ("search_msos", "center_has_inadmissible_factor", "pair_decompositions"),
}
LAYERS = tuple(TRACED)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.pair_counts: list[int] = []   # k per scanned center, in call order
        self.context_primes: set[int] = set()
        self.patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self) -> dict:
        def add(key, n=1):
            self.counts[key] = self.counts.get(key, 0) + n

        return {
            "fp.make_context": lambda a, r: self.context_primes.add(a[0]),
            "residue.gen_nontrivial": lambda a, r: add("residue.classes_emitted"),
            "search.pair_decompositions": lambda a, r: self.pair_counts.append(len(r)),
            "cli.to_json": lambda a, r: add("cli.json_bytes", len(r.encode())),
        }

    def install(self) -> None:
        """Find every residuum module attribute that refers to a traced
        function and prepare its wrapper; `enable` swaps the wrappers in."""
        hooks = self._hooks()
        modules = [m for n, m in sys.modules.items() if n == "residuum" or n.startswith("residuum.")]
        for layer, entries in TRACED.items():
            home = sys.modules[f"residuum.{layer}"]
            for entry in entries:
                group, names = (entry, (entry,)) if isinstance(entry, str) else entry
                for name in names:
                    if "." in name:
                        cls_name, attr = name.split(".")
                        cls = getattr(home, cls_name)
                        key = f"{layer}.{attr}"
                        original = getattr(cls, attr)
                        self.patches.append((cls, attr, original, self._wrap(key, original, hooks.get(key))))
                        continue
                    original = getattr(home, name)
                    key = f"{layer}.{group}"
                    wrapper = self._wrap(key, original, hooks.get(key))
                    for mod in modules:
                        for attr, value in vars(mod).items():
                            if value is original:
                                self.patches.append((mod, attr, original, wrapper))

    def enable(self) -> None:
        for target, attr, _, wrapper in self.patches:
            setattr(target, attr, wrapper)

    def disable(self) -> None:
        for target, attr, original, _ in self.patches:
            setattr(target, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[OP]}\n")

    def summary(self) -> dict[str, dict]:
        """Inclusive time per span name (outermost calls only), self time per
        layer, and call counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += dur
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            # a grouped name nested in itself (construct_mod20 -> ap_to_unit_triple)
            # is counted once, at the outermost call
            parent = s[PARENT]
            nested = False
            while parent >= 0:
                if spans[parent][NAME] == s[NAME]:
                    nested = True
                    break
                parent = spans[parent][PARENT]
            if not nested:
                inclusive[s[NAME]] = inclusive.get(s[NAME], 0.0) + dur
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            layer_self[s[NAME].split(".")[0]] += (s[END] - s[START]) - child_time[i]
        return {"inclusive": inclusive, "calls": calls, "layer_self": layer_self}
