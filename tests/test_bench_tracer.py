"""The traced benchmark's hooks still fit the package they wrap.

bench/tracer.py rebinds geohmm functions by name and reads their
arguments and results by name. A rename in the package would break the
traced benchmark run, not the untraced one; this test catches it first.
The tracer runs in a subprocess, so its rebinding stays out of the other
tests' process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import json, os, sys, tempfile
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import numpy as np
from geohmm import cli
from tracer import SPANNED, Tracer

tracer = Tracer()
tracer.install()
# Imported after install, so these names are the tracer's wrappers.
from geohmm import (ConstraintLevel, LearnConfig, LoopSpec, kl_sampled,
                    learn_runs, make_loop_model, render_svg, sample_sequence,
                    save_model)

true = make_loop_model(LoopSpec())
seq = sample_sequence(true, 100, np.random.default_rng(3))
runs = learn_runs(seq, 16, LearnConfig(
    constraint_level=ConstraintLevel.ADDITIVE, max_iters=3),
    restarts=2, seed=1)
learned = runs[0].model
kl_sampled(true, learned, seq_length=50, n_sequences=2,
           rng=np.random.default_rng(4))
render_svg(learned)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "m.json")
    save_model(learned, path)
    assert cli.main(["check", path, "--level", "additive"]) == 0

spans = {name for name, *_ in tracer.spans}
counters = set()
for counts in tracer.counts.values():
    counters.update(counts)
print(json.dumps({
    "spanned": sorted("%s.%s" % key for key in SPANNED),
    "hooked": sorted("%s.%s" % key for key, hook in SPANNED.items()
                     if hook is not None),
    "spans": sorted(spans),
    "counters": sorted(counters),
}))
"""


def test_every_hook_records_its_counter():
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT],
                          capture_output=True, text=True, timeout=300,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(seen["hooked"]) <= set(seen["spans"])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    # Every metric but a span's s, self_s or calls is a hook's counter.
    counter_metrics = set()
    for name in metrics:
        stem, _, field = name.rpartition(".")
        if not (stem in seen["spanned"] and field in ("s", "self_s", "calls")):
            counter_metrics.add(name)
    assert counter_metrics <= set(seen["counters"])
