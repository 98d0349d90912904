"""The benchmark's workloads still run against the package.

bench/workloads.py calls into geohmm by name (cli.write_manifest,
cli._learn_config, pipeline.best_run, ...). A signature change there
would first show as a failed benchmark run; this test runs one op of
every workload instead. It runs in a subprocess, as test_bench_tracer.py
does, so importing the bench scripts stays out of the other tests'
process.
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
from workloads import WORKLOADS

done = {}
for name, cls in WORKLOADS.items():
    with tempfile.TemporaryDirectory() as workdir:
        wl = cls(1, workdir)
        wl.setup()
        wl.prep(0)
        learned = wl.learn(0)
        evaluated = wl.evaluate(0)
        wl.check(0, learned, evaluated)
        wl.replay_check()
    done[name] = True
print(json.dumps(done))
"""


def test_every_workload_runs_one_checked_op(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, ROOT],
                          capture_output=True, text=True, timeout=300,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    done = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert set(done) == declared
