"""geohmm benchmark: run one workload for a fixed time and report it.

    python3 bench/run.py --workload desk_odometry --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the checkout's src/ is put on the
import path, nothing needs installing. Each op is timed in two phases,
learn and eval, with tracing off (--trace 0) for the end-to-end metrics.
Every timed phase, and every set-up, is bracketed by a fixed speed probe
(probe_s), and the reported time is its wall time scaled to the probe's
reference time, so that the host's changes of speed cancel out.
With --trace 1 the geohmm layers are wrapped (see tracer.py) and the
per-layer metrics are reported instead, as the mean per op over the
workload's first `trace_ops` ops. The last line of standard output is
the JSON result; a human-readable table precedes it, and the full record
(samples, machine, failures; spans when traced) is written to bench/out/.
Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 25

# What each end-to-end metric is called on each workload in the design
# notes (bench/README.md).
ALIASES = {
    "desk_odometry": {"learn_s": "odometry_learn_s",
                      "eval_s": "check_render_s"},
    "desk_baseline": {"learn_s": "baseline_learn_s", "eval_s": "kl_eval_s"},
}

# The speed probe: fixed work that never calls geohmm, of the three kinds
# the workloads are made of: a 16-state forward recursion over 1000 steps,
# plain Python arithmetic, and vectorised numpy over a small tensor.
_PROBE_RNG = np.random.default_rng(0)
PROBE_A = _PROBE_RNG.dirichlet(np.ones(16), size=16)
PROBE_B = _PROBE_RNG.random((1000, 16))
PROBE_M = _PROBE_RNG.random((200, 16, 16))
# The probe's median time on the reference machine (a 2-vCPU VM whose CPU
# reports as "Intel(R) Xeon(R) Processor"), so that a scaled time reads as
# seconds at that machine's usual speed.
PROBE_REF_S = 0.030


def probe_s():
    """Wall time of the speed probe (three rounds of each kind of work)."""
    start = time.perf_counter()
    for _ in range(3):
        a = np.full(16, 1.0 / 16)
        for row in PROBE_B:
            a = (a @ PROBE_A) * row
            a /= a.sum()
    for _ in range(3):
        total = 0.0
        for i in range(30000):
            total += (i % 7) * 0.5
    for _ in range(15):
        np.log(PROBE_M * 1.0001 + 0.1).sum(axis=0)
    return time.perf_counter() - start


def scaled(wall, probe_before, probe_after):
    """A wall time in seconds at the probe's reference speed: the host's
    speed is taken as the mean of the probes just before and after."""
    return wall * PROBE_REF_S / ((probe_before + probe_after) / 2.0)


def high_percentile(values):
    """(p, value): the highest whole percentile with at least ten samples
    above it, by nearest rank; None below twenty samples, where that
    percentile would not lie above the median."""
    n = len(values)
    if n < 20:
        return None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def git_commit(root):
    if not (root / ".git").exists():  # an exported tree, not a clone
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_info():
    import numpy
    import scipy

    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    cpu = [line.split(":", 1)[1].strip()
           for line in read("/proc/cpuinfo").splitlines()
           if line.startswith("model name")]
    l3 = None
    for index in range(8):
        base = "/sys/devices/system/cpu/cpu0/cache/index%d/" % index
        if read(base + "level").strip() == "3":
            l3 = read(base + "size").strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else platform.processor() or None,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def import_checkout():
    """Import geohmm from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "geohmm" / "__init__.py").is_file():
        sys.exit("bench: no geohmm sources under %s" % src)
    sys.path.insert(0, str(src))
    import geohmm
    if Path(geohmm.__file__).resolve().parent != src / "geohmm":
        sys.exit("bench: imported geohmm from %s, not the checkout"
                 % geohmm.__file__)


class NullTracer:
    """Stands in for the tracer when tracing is off."""

    op = None

    def span(self, name):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


def timed_phase(tracer, name, k, fn, probe_before, samples, walls,
                failures):
    """Run one phase of op k; its time goes into samples (scaled) and walls
    whether it succeeds or fails. Returns its output, or None when it
    failed, and the probe time taken after it."""
    tracer.op = k
    start = time.perf_counter()
    try:
        with tracer.span("bench." + name):
            result = fn(k)
    except Exception as exc:  # a failed op is counted; the run goes on
        failures["%s: %s: %s" % (name, type(exc).__name__, exc)] += 1
        result = None
    wall = time.perf_counter() - start
    probe_after = probe_s()
    samples[name + "_s"].append(scaled(wall, probe_before, probe_after))
    walls[name + "_s"].append(wall)
    return result, probe_after


def run_setups(wl, tracer, samples, walls):
    probe_before = probe_s()
    for rep in range(SETUP_REPEATS):
        tracer.op = "setup-%d" % rep
        start = time.perf_counter()
        wl.setup()
        wall = time.perf_counter() - start
        probe_after = probe_s()
        samples["setup_s"].append(scaled(wall, probe_before, probe_after))
        walls["setup_s"].append(wall)
        probe_before = probe_after


def run_workload(wl, seconds, min_ops, tracer, samples, walls):
    """Closed loop: start the next op while it is expected to end within
    `seconds`, judging by the last op, and until min_ops are done."""
    from workloads import CheckFailed
    failures = collections.Counter()
    wrong = collections.Counter()
    attempted = failed = 0
    start = time.perf_counter()
    last_op = 0.0
    while (attempted < min_ops
           or time.perf_counter() - start + last_op <= seconds):
        began = time.perf_counter()
        k = attempted
        tracer.op = "prep-%d" % k
        wl.prep(k)
        before = failures.total()
        learned, probe = timed_phase(tracer, "learn", k, wl.learn, probe_s(),
                                     samples, walls, failures)
        evaluated = None
        if learned is not None or not wl.eval_needs_learn:
            evaluated, probe = timed_phase(tracer, "eval", k, wl.evaluate,
                                           probe, samples, walls, failures)
        ok = failures.total() == before
        tracer.op = "check-%d" % k
        try:
            with tracer.paused():
                wl.check(k, learned, evaluated)
        except CheckFailed as exc:
            wrong[str(exc)] += 1
            ok = False
        attempted += 1
        failed += not ok
        last_op = time.perf_counter() - began
    return failures, wrong, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_checkout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS, CheckFailed
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (one of %s)"
                     % (args.workload, ", ".join(WORKLOADS)))
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        tracer = NullTracer()

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        samples = collections.defaultdict(list)
        walls = collections.defaultdict(list)
        run_setups(wl, tracer, samples, walls)
        trace_ops = wl.trace_ops if args.trace else 1
        failures, wrong, attempted, failed = run_workload(
            wl, args.seconds, trace_ops, tracer, samples, walls)
        tracer.op = "replay"
        try:
            with tracer.paused():
                wl.replay_check()
        except CheckFailed as exc:
            wrong[str(exc)] += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    table = {}
    for name, values in samples.items():
        table[name] = {"median": statistics.median(values), "n": len(values),
                       "high": high_percentile(values),
                       "wall_median": statistics.median(walls[name])}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        ops = list(range(trace_ops))
        values = tracer.layer_metrics([m["name"] for m in spec["per_layer"]],
                                      ops)
        remainder = tracer.unattributed(ops)
    else:
        values = {}
        for m in spec["end_to_end"]:
            if m["name"] == "peak_rss_mb":
                values[m["name"]] = peak_rss_mb
            elif m["name"] in table:
                values[m["name"]] = table[m["name"]]["median"]
            else:
                sys.exit("bench: no samples of %s" % m["name"])
        remainder = {}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(ROOT), "machine": machine_info(),
        "attempted": attempted, "failed": failed,
        "failures": dict(failures), "wrong_outputs": dict(wrong),
        "samples": dict(samples), "wall_samples": dict(walls),
        "probe_ref_s": PROBE_REF_S, "timings": table,
        "peak_rss_mb": peak_rss_mb, "metrics": values,
        "unattributed": {str(op): v for op, v in remainder.items()},
    }
    stem = OUT / ("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(str(stem) + ".spans.jsonl")

    print_table(record, units)
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


def print_table(record, units):
    m = record["machine"]
    print("geohmm benchmark: workload %s, seed %d, %gs, trace %d"
          % (record["workload"], record["seed"], record["seconds"],
             record["trace"]))
    print("commit %s; %s, nproc %d, L3 %s; python %s, numpy %s, scipy %s, "
          "blas %s, threads %s"
          % (record["commit"], m["cpu_model"], m["nproc"], m["l3_cache"],
             m["python"], m["numpy"], m["scipy"], m["blas"],
             m["threads_env"] or "default"))
    aliases = ALIASES[record["workload"]]
    print("times are scaled to the speed probe's reference %.3fs; the last "
          "column is the unscaled wall median" % record["probe_ref_s"])
    print("%-14s %-18s %-6s %12s %22s %12s" % (
        "metric", "a.k.a.", "unit", "median", "high percentile", "wall"))
    for name, t in record["timings"].items():
        high = ("p%d %.6f (n=%d)" % (t["high"][0], t["high"][1], t["n"])
                if t["high"] else "- (n=%d)" % t["n"])
        print("%-14s %-18s %-6s %12.6f %22s %12.6f" % (
            name, aliases.get(name, ""), "s", t["median"], high,
            t["wall_median"]))
    print("%-14s %-18s %-6s %12.1f" % ("peak_rss_mb", "", "MB",
                                       record["peak_rss_mb"]))
    attempted, failed = record["attempted"], record["failed"]
    print("ops_failed_frac %.4f (%d of %d ops failed)"
          % (failed / attempted, failed, attempted))
    for cause, count in list(record["failures"].items()) + list(
            record["wrong_outputs"].items()):
        print("  %4d x %s" % (count, cause))
    if record["trace"]:
        rows = record["unattributed"].values()
        wall = sum(r[0] for r in rows)
        rest = sum(r[1] for r in rows)
        print("per-layer, mean per op over ops 0..%d; unattributed %.6fs of "
              "%.6fs traced op wall (%.2f%%)"
              % (len(rows) - 1, rest, wall, 100.0 * rest / wall))
        for name, value in record["metrics"].items():
            print("  %-48s %16.6f %s" % (name, value, units[name]))


if __name__ == "__main__":
    sys.exit(main())
