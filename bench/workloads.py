"""The benchmark's workloads: set-up, per-op inputs, the two timed phases
of an op (learn, eval), and the correctness checks of their outputs.

Every op k of a run gets its own experience sequence and seeds, derived
from (run seed, k), so one run averages over many inputs and two runs
with one seed do the same ops. Inputs are made before the op's timer
starts. CLI commands go through `geohmm.cli.main(argv)` in-process; the
one exception is desk_odometry's learn (see DeskOdometry.learn).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

from geohmm import cli, io as gio, model, pipeline

LENGTH = 800
TAG_SIMULATE, TAG_LEARN, TAG_EVAL, TAG_REFERENCE = range(4)


class OpFailed(Exception):
    """A command exited non-zero or the library raised."""


class CheckFailed(Exception):
    """An op's output is wrong."""


def derive_seed(seed, tag, k=0):
    words = [seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF, tag, k]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def cli_ok(*argv):
    """geohmm.cli.main(argv) with its output captured; returns stdout,
    raises OpFailed on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        lines = err.getvalue().strip().splitlines() or ["(no message)"]
        raise OpFailed("%s exit %d: %s" % (argv[0], code, lines[-1]))
    return out.getvalue()


def check_trace(trace, what):
    drops = [b - a for a, b in zip(trace, trace[1:]) if b < a]
    if drops:
        raise CheckFailed("%s: loglik trace decreases by %g"
                          % (what, -min(drops)))


def check_additive(learned, what):
    rep = model.check_consistency(learned, model.ConstraintLevel.ADDITIVE,
                                  1e-9)
    if not rep.consistent:
        raise CheckFailed("%s: %d consistency violations"
                          % (what, len(rep.violations)))


class DeskLoop:
    """The `make-loop` default 16-state loop driven through the CLI, as
    experiments/loop.sh drives it; closed loop, one op at a time.
    Subclasses define the two timed phases and their checks."""

    name = ""
    n_states = 16
    # The eval phase reads what learn wrote, so it is skipped when learn
    # fails.
    eval_needs_learn = True
    # Ops whose per-layer figures a traced run reports.
    trace_ops = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        cli_ok("make-loop", "-o", self.path("true.json"))
        cli_ok("simulate", self.path("true.json"), "-o",
               self.path("reference.txt"), "-T", LENGTH,
               "--seed", derive_seed(self.seed, TAG_REFERENCE))

    def prep(self, k):
        for stale in ("learned.json", "learned.json.report.json"):
            if os.path.exists(self.path(stale)):
                os.remove(self.path(stale))
        cli_ok("simulate", self.path("true.json"), "-o", self.path("exp.txt"),
               "-T", LENGTH, "--seed", derive_seed(self.seed, TAG_SIMULATE, k))

    def learn(self, k):
        raise NotImplementedError

    def evaluate(self, k):
        raise NotImplementedError

    def check(self, k, learned, evaluated):
        """Raise CheckFailed on a wrong output; either may be None."""
        raise NotImplementedError

    def check_learned(self):
        with open(self.path("learned.json.report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for i, run in enumerate(report["runs"]):
            check_trace(run["loglik_trace"], "learn run %d" % i)
        check_additive(gio.load_model(self.path("learned.json")),
                       "learned model")

    def replay_check(self):
        """`geohmm replay` of the set-up simulate manifest must rewrite
        the experience file byte for byte."""
        ref = self.path("reference.txt")
        with open(ref, "rb") as fh:
            before = fh.read()
        os.remove(ref)
        cli_ok("replay", ref + ".manifest.json")
        with open(ref, "rb") as fh:
            if fh.read() != before:
                raise CheckFailed("replay did not reproduce %s" % ref)


class DeskOdometry(DeskLoop):
    name = "desk_odometry"
    eval_needs_learn = False
    trace_ops = 16
    # Uncapped, a restart runs 2 to 13 iterations depending on the
    # sequence, and a run's median learn time moved by 23% between seeds.
    # Most restarts reach this cap, so every learn does about the same work.
    max_iters = 4

    def learn(self, k):
        """What `geohmm learn` does with these options, through the
        library: the CLI's own parser and config builders, learn_runs, and
        the same model, report and manifest files. Only the choice of the
        best run differs: it is found by identity, because the CLI's
        `results.index(best_run(results))` raises whenever restart 0 is not
        the best run (see README.md)."""
        argv = ["learn", self.path("exp.txt"), "-o", self.path("learned.json"),
                "-n", self.n_states, "--constraints", "additive",
                "--smoothing", "0.005", "--restarts", 3,
                "--max-iters", self.max_iters,
                "--seed", derive_seed(self.seed, TAG_LEARN, k)]
        argv = [str(a) for a in argv]
        args = cli.build_parser().parse_args(argv)
        started = time.time()
        seq = gio.load_experience(args.experience)
        results = pipeline.learn_runs(
            seq, args.n_states, cli._learn_config(args, cli._MODES[args.mode]),
            restarts=args.restarts, seed=args.seed,
            bucket_cfg=cli._bucket_config(args, seq))
        best = pipeline.best_run(results)
        chosen = next(i for i, r in enumerate(results) if r is best)
        gio.save_model(best.model, args.output)
        report_path = args.output + ".report.json"
        cli.dump_json(report_path, {"command": "learn",
                                    **cli.report_payload(results, chosen)})
        cli.write_manifest(
            args.output + ".manifest.json", "learn", argv, args.seed,
            [args.experience], [args.output, report_path], started,
            {"best_final_loglik": best.final_loglik,
             "iterations": best.report.iterations_run})
        return best

    def evaluate(self, k):
        # Reads the model written in set-up, so these samples do not depend
        # on whether this op's learn succeeded.
        report = cli_ok("check", self.path("true.json"), "--level",
                        "additive", "--format", "json")
        cli_ok("render", self.path("true.json"), "-o", self.path("map.svg"))
        return report

    def check(self, k, learned, evaluated):
        if learned is not None:
            self.check_learned()
        if evaluated is not None:
            if not json.loads(evaluated)["consistent"]:
                raise CheckFailed("check reports the set-up model inconsistent")
            with open(self.path("map.svg"), encoding="utf-8") as fh:
                svg = fh.read()
            if (not svg.rstrip().endswith("</svg>")
                    or svg.count("<circle") != self.n_states):
                raise CheckFailed("render wrote a malformed map")


class DeskBaseline(DeskLoop):
    name = "desk_baseline"
    trace_ops = 4
    # Uncapped, a learn converges after 84 to 200 iterations depending on
    # the sequence, and a run's median learn time moved by 40% between
    # seeds. Capped below that range, every learn does the same work; the
    # price is that a change in how fast EM converges does not show here.
    max_iters = 50

    def learn(self, k):
        return cli_ok("learn", self.path("exp.txt"), "-o",
                      self.path("learned.json"), "-n", self.n_states,
                      "--no-odometry", "--smoothing", "0.005",
                      "--restarts", "1", "--max-iters", self.max_iters,
                      "--seed", derive_seed(self.seed, TAG_LEARN, k))

    def evaluate(self, k):
        return cli_ok("eval-kl", self.path("true.json"),
                      self.path("learned.json"), "-L", 1000, "-n", 10,
                      "--seed", derive_seed(self.seed, TAG_EVAL, k),
                      "--format", "json")

    def check(self, k, learned, evaluated):
        if learned is not None:
            self.check_learned()
        if evaluated is not None:
            kl = json.loads(evaluated)
            if not math.isfinite(kl["value_nats_per_symbol"]):
                raise CheckFailed("KL estimate is not finite: %r" % kl)


WORKLOADS = {w.name: w for w in (DeskOdometry, DeskBaseline)}
