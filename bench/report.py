"""Run every workload untraced and traced, and print their tables.

    python3 bench/report.py --seed 1 [--seconds N]

For each workload this prints the untraced table (every end-to-end
metric with its unit, median, high percentile and sample count, and the
failed ops with their causes), the traced table with the per-layer
metrics, and the tracing overhead: traced medians minus untraced ones.
Each run is its own process (bench/run.py), so peak RSS is per workload.
--seconds defaults to BENCHMARK.json's run_seconds; the whole report takes
about 2 x (number of workloads) x (seconds + 6) seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from run import OUT, print_table  # noqa: E402


def run(workload, seed, seconds, trace):
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    return json.loads(path.read_text())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for w in spec["workloads"]:
        plain = run(w["name"], args.seed, seconds, 0)
        traced = run(w["name"], args.seed, seconds, 1)
        print("== %s: %s" % (w["name"], w["why"]))
        print_table(plain, units)
        print_table(traced, units)
        print("tracing overhead (traced median - untraced median):")
        for name, t in plain["timings"].items():
            print("  %-12s %+.6f s" % (name, traced["timings"][name]["median"]
                                       - t["median"]))
        print("  %-12s %+.1f MB" % ("peak_rss_mb", traced["peak_rss_mb"]
                                    - plain["peak_rss_mb"]))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
