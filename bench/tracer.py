"""In-memory span tracer for the geohmm layers, installed from outside.

The tracer rebinds each traced function of the package at every module
that holds a reference to it (for example `forward_backward` in
`inference`, `estimation`, `evalkl` and the package namespace), so calls
made anywhere inside geohmm are seen. Each call records a span
[name, start, end, parent, op]; the benchmark sets `op` before each phase.
Hot leaf functions are counted, not spanned, to keep the overhead small.
Hooks turn a call's arguments or result into counts (iterations, bytes).
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _pair_tensor_bytes(model, e):
    # Computed, not measured: one float64 (T-1, N, N) tensor.
    return 8 * (len(e) - 1) * model.n_states ** 2


# (module, function) -> hook(bound arguments, result) -> {counter: increment}
SPANNED = {
    ("inference", "emission_probs"): None,
    ("inference", "relation_density_tensor"): None,
    # Each forward_backward call builds the pair-density tensor, each
    # posteriors call the xi tensor.
    ("inference", "forward_backward"): lambda a, r: {
        "inference.pair_tensor_bytes": _pair_tensor_bytes(a["model"], a["e"])},
    ("inference", "posteriors"): lambda a, r: {
        "inference.pair_tensor_bytes": _pair_tensor_bytes(a["model"], a["e"])},
    ("estimation", "em_learn"): lambda a, r: {
        "estimation.em_learn.iterations": r[1].iterations_run,
        "estimation.em_learn.rejected_steps":
            len(r[1].monotonicity_violations)},
    ("estimation", "update_transitions"): None,
    ("estimation", "update_observations"): None,
    ("estimation", "update_relations_additive"): None,
    ("estimation", "project_headings"): None,
    ("estimation", "solve_positions"): None,
    ("initialization", "init_model"): None,
    ("initialization", "bucketize"): None,
    ("initialization", "tag_states"): None,
    ("initialization", "perturb_model"): None,
    ("initialization", "random_model"): None,
    ("pipeline", "learn_runs"): lambda a, r: {
        "pipeline.learn_runs.restarts": len(r)},
    ("simgen", "sample_path"): lambda a, r: {
        "simgen.sample_path.steps": a["length"]},
    ("evalkl", "kl_sampled"): lambda a, r: {
        "evalkl.kl_sampled.impossible": r.n_impossible},
    ("model", "check_consistency"): lambda a, r: {
        "model.check_consistency.violations": len(r.violations)},
    ("render", "render_svg"): None,
    ("render", "embed_model_positions"): None,
    ("io", "load_experience"): None,
    ("io", "load_model"): None,
    ("io", "save_model"): None,
    ("io", "atomic_write_text"): lambda a, r: {
        "io.bytes_written": len(a["text"].encode("utf-8"))},
    ("cli", "main"): lambda a, r: {"cli.main.nonzero_exits": int(r != 0)},
}

# Called once per relation entry per tensor: counted only.
COUNTED = [("circstats", "log_bessel_i0")]


class Tracer:
    """Spans and counts of one benchmark process, kept in memory."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, op]
        self.counts = collections.defaultdict(collections.Counter)
        self.op = "setup"
        self.active = True
        self._stack = []

    def install(self, package="geohmm"):
        """Rebind every traced function at every module referencing it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        targets = [(mod, fn, self._spanned) for (mod, fn) in SPANNED]
        targets += [(mod, fn, self._counted) for (mod, fn) in COUNTED]
        for mod_name, fn_name, make in targets:
            original = getattr(importlib.import_module(
                "%s.%s" % (package, mod_name)), fn_name)
            wrapper = make("%s.%s" % (mod_name, fn_name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _spanned(self, name, fn):
        hook = SPANNED[tuple(name.split("."))]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[self.op].update(hook(bound.arguments, result))
            return result
        return wrapper

    def _counted(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[self.op][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run correctness checks without recording them."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def per_op(self):
        """{op: {"s": inclusive, "self_s": self, "calls": n}} per span name.

        Self time is the span's duration minus the time its child spans
        cover. Inclusive time sums only the outermost span of a name, so
        recursion (replay calling main) is not counted twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = collections.defaultdict(
            lambda: collections.defaultdict(collections.Counter))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            stats = out[op][name]
            stats["calls"] += 1
            stats["self_s"] += end - start - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                stats["s"] += end - start
        return out

    def layer_metrics(self, names, ops):
        """Mean per op, over the given ops, of each named layer metric.

        A name is "<module>.<function>.<s|self_s|calls>" for a span or a
        counter name recorded by a hook. A layer the ops never entered
        reads 0.
        """
        per_op = self.per_op()
        values = {}
        for name in names:
            stem, _, field = name.rpartition(".")
            total = 0.0
            for op in ops:
                spans = per_op.get(op, {})
                if stem in spans and field in ("s", "self_s", "calls"):
                    total += spans[stem][field]
                else:
                    total += self.counts[op][name]
            values[name] = total / len(ops)
        return values

    def unattributed(self, ops):
        """Per op: (traced wall time, self time of the benchmark's phase
        spans), i.e. the part of the op no layer span accounts for."""
        per_op = self.per_op()
        rows = {}
        for op in ops:
            phases = [s for n, s in per_op.get(op, {}).items()
                      if n.startswith("bench.")]
            wall = sum(s["s"] for s in phases)
            rest = sum(s["self_s"] for s in phases)
            rows[op] = (wall, rest)
        return rows

    def write(self, path):
        """Spans, one JSON object a line, then the counts per op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent,
                                     "op": op}) + "\n")
            for op, counts in self.counts.items():
                fh.write(json.dumps({"op": op, "counts": dict(counts)})
                         + "\n")
