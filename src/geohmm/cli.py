"""Command-line pipeline: simulate, learn, eval-kl, check, render, replay.

Every run that writes files also writes a JSON manifest recording its
argv, working directory, seed, inputs, outputs, timing and a summary. All
randomness flows from --seed (default 0) and no environment variable
changes a run, so the argv and the input files are a run's whole input:
`geohmm replay <manifest>` re-executes the recorded command in the
recorded directory and, given the same input files, reproduces the
outputs byte for byte.

Exit codes: 0 success, 2 input error, 3 impossible sequence under the
model, 4 consistency-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .estimation import LearnConfig
from .evalkl import kl_sampled
from .initialization import BucketConfig
from .io import atomic_write_text, load_experience, load_model, save_experience, save_model
from .model import (ConstraintLevel, CoordinateMode, GeoHmmError,
                    ImpossibleSequenceError, ModelFormatError,
                    check_consistency)
from .pipeline import best_index, default_bucket_config, learn_runs
from .render import MARGIN, render_svg
from .simgen import LoopSpec, make_loop_model, sample_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IMPOSSIBLE = 3
EXIT_INCONSISTENT = 4

_LEVELS = {"none": ConstraintLevel.UNCONSTRAINED,
           "antisym": ConstraintLevel.ANTISYMMETRIC,
           "additive": ConstraintLevel.ADDITIVE}
_MODES = {"global": CoordinateMode.GLOBAL,
          "relative": CoordinateMode.RELATIVE}
# The learn option that sets each validated LearnConfig field.
_LEARN_OPTIONS = {"pseudocount": "--smoothing", "max_iters": "--max-iters",
                  "density_floor": "--density-floor"}


class CliError(Exception):
    def __init__(self, message, code=EXIT_INPUT):
        super().__init__(message)
        self.code = code


def dump_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True)
                      + "\n")


def write_manifest(path, command, argv, seed, inputs, outputs, started,
                   summary):
    manifest = {
        "format": "geohmm-manifest",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "cwd": os.getcwd(),
        "seed": seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "elapsed_seconds": round(time.time() - started, 3),
        "summary": summary,
    }
    dump_json(path, manifest)


def record(args, inputs, outputs, summary):
    """Write the manifest of the run `main` parsed into args: to
    --manifest, else next to the first output (seed null if none)."""
    write_manifest(getattr(args, "manifest", None)
                   or outputs[0] + ".manifest.json",
                   args.command, args.argv, getattr(args, "seed", None),
                   inputs, outputs, args.started, summary)


def report_payload(results, chosen):
    runs = []
    for k, r in enumerate(results):
        runs.append({
            "restart": k,
            "iterations": r.report.iterations_run,
            "converged": r.report.converged,
            "final_loglik": r.final_loglik,
            "loglik_trace": r.report.loglik_trace,
            "monotonicity_violations": [
                {"iteration": it, "drop": drop}
                for it, drop in r.report.monotonicity_violations],
        })
    return {"runs": runs, "best_index": chosen}


def cmd_simulate(args):
    model = load_model(args.model)
    seq = sample_sequence(model, args.length,
                          np.random.default_rng(args.seed))
    save_experience(seq, args.output)
    record(args, [args.model], [args.output],
           {"length": args.length, "n_dims": seq.n_dims})
    print("wrote %s (%d steps, %d readings)" % (args.output, len(seq),
                                                len(seq) - 1))
    return EXIT_OK


def cmd_make_loop(args):
    spec = LoopSpec(
        corridor_lengths=tuple(float(v) for v in args.lengths.split(",")),
        states_per_corridor=tuple(int(v) for v in args.states.split(",")),
        obs_noise=args.obs_noise, sigma_x=args.sigma_xy,
        sigma_y=args.sigma_xy, kappa=args.kappa, mode=_MODES[args.mode])
    model = make_loop_model(spec)
    save_model(model, args.output)
    record(args, [], [args.output], {"n_states": model.n_states})
    print("wrote %s (%d states)" % (args.output, model.n_states))
    return EXIT_OK


def _learn_config(args, mode):
    try:
        return LearnConfig(
            constraint_level=_LEVELS[args.constraints],
            mode=mode,
            use_odometry=not args.no_odometry,
            max_iters=args.max_iters,
            pseudocount=args.smoothing,
            density_floor=args.density_floor,
        )
    except ValueError as exc:
        # LearnConfig's messages start with the field name.
        field, _, rest = str(exc).partition(" ")
        raise CliError("%s %s" % (_LEARN_OPTIONS[field], rest))


def _bucket_config(args, seq):
    if args.sigma_x is None and args.sigma_y is None and args.sigma_theta is None:
        return default_bucket_config(seq)
    if None in (args.sigma_x, args.sigma_y, args.sigma_theta):
        raise CliError("give all of --sigma-x/--sigma-y/--sigma-theta "
                       "or none")
    return BucketConfig(sigma_x=args.sigma_x, sigma_y=args.sigma_y,
                        sigma_theta=args.sigma_theta)


def cmd_learn(args):
    seq = load_experience(args.experience)
    initial = load_model(args.initial) if args.initial else None
    if initial is None and args.n_states is None:
        raise CliError("either --initial or --n-states is required")
    # learn_runs rejects an -n that disagrees with --initial.
    n_states = initial.n_states if args.n_states is None else args.n_states
    mode = _MODES[args.mode] if initial is None else initial.mode
    cfg = _learn_config(args, mode)
    bucket_cfg = None
    if initial is None and cfg.use_odometry:
        bucket_cfg = _bucket_config(args, seq)

    inputs = [args.experience] + ([args.initial] if args.initial else [])
    outputs = []
    summary = {}

    def learn_best(sub, model_path):
        results = learn_runs(sub, n_states, cfg, restarts=args.restarts,
                             seed=args.seed, initial=initial,
                             bucket_cfg=bucket_cfg)
        chosen = best_index(results)
        save_model(results[chosen].model, model_path)
        outputs.append(model_path)
        return results, chosen

    if args.prefix_lengths:
        lengths = [int(v) for v in args.prefix_lengths.split(",")]
        for k, length in enumerate(lengths):
            if not 1 <= length <= len(seq):
                raise CliError("prefix length %d out of range" % length)
            if length in lengths[:k]:
                raise CliError("prefix length %d given twice" % length)
        base, ext = os.path.splitext(args.output)
        if ext != ".json":
            base = args.output
        sweep = {}
        for length in lengths:
            results, chosen = learn_best(seq.prefix(length),
                                         "%s.p%d.model.json" % (base, length))
            sweep[str(length)] = report_payload(results, chosen)
        report_path = args.report or "%s.report.json" % base
        dump_json(report_path, {"command": "learn", "prefix_sweep": sweep})
        outputs.append(report_path)
        summary["prefix_lengths"] = lengths
    else:
        results, chosen = learn_best(seq, args.output)
        report_path = args.report or args.output + ".report.json"
        dump_json(report_path, {"command": "learn",
                                **report_payload(results, chosen)})
        outputs.append(report_path)
        summary.update({
            "best_final_loglik": results[chosen].final_loglik,
            "iterations": results[chosen].report.iterations_run,
        })
        print("learned %s: loglik %.4f after %d iterations (%d restarts)"
              % (args.output, results[chosen].final_loglik,
                 results[chosen].report.iterations_run, args.restarts))

    record(args, inputs, outputs, summary)
    return EXIT_OK


def cmd_eval_kl(args):
    true_model = load_model(args.true_model)
    learned = load_model(args.learned_model)
    est = kl_sampled(true_model, learned, seq_length=args.length,
                     n_sequences=args.sequences,
                     rng=np.random.default_rng(args.seed))
    payload = {
        "value_nats_per_symbol": est.value,
        "std_error": est.std_error,
        "n_sequences": est.n_sequences,
        "seq_length": est.seq_length,
        "n_impossible": est.n_impossible,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(est)
    outputs = [args.output] if args.output else []
    if outputs:
        dump_json(args.output, payload)
    if outputs or args.manifest:
        record(args, [args.true_model, args.learned_model], outputs, payload)
    return EXIT_OK


def cmd_check(args):
    model = load_model(args.model)
    report = check_consistency(model, _LEVELS[args.level], args.tol)
    payload = {
        "level": args.level,
        "tol": args.tol,
        "consistent": report.consistent,
        "violations": [dataclasses.asdict(v) for v in report.violations],
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.summary())
    if args.output:
        dump_json(args.output, payload)
        record(args, [args.model], [args.output],
               {"consistent": report.consistent})
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def cmd_render(args):
    if min(args.width, args.height) <= 2 * MARGIN:
        raise CliError("--width and --height must exceed %d px, the margins"
                       % (2 * MARGIN))
    model = load_model(args.model)
    svg = render_svg(model, width=args.width, height=args.height)
    atomic_write_text(args.output, svg)
    record(args, [args.model], [args.output], {"n_states": model.n_states})
    print("wrote %s" % args.output)
    return EXIT_OK


def cmd_replay(args):
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("cannot read manifest %s: %s" % (args.manifest, exc))
    if not (isinstance(manifest, dict)
            and manifest.get("format") == "geohmm-manifest"):
        raise CliError("%s is not a geohmm manifest" % args.manifest)
    here = os.getcwd()
    argv, cwd = manifest.get("argv"), manifest.get("cwd", here)
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise CliError("%s: argv must be a list of strings" % args.manifest)
    if argv[:1] == ["replay"]:
        raise CliError("%s: argv replays a manifest; no run records one"
                       % args.manifest)
    if not isinstance(cwd, str):
        raise CliError("%s: cwd must be a string" % args.manifest)
    os.chdir(cwd)
    try:
        return main(argv)
    finally:
        os.chdir(here)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call:
    parse_args gives each call a fresh Namespace, and no caller may add
    to the parser."""
    parser = argparse.ArgumentParser(
        prog="geohmm",
        description="Learn and evaluate HMMs with geometrically consistent "
                    "odometric relations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo experience from a model")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-T", "--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("make-loop", help="build a corridor-loop model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lengths", default="10,6,10,6",
                   help="comma-separated corridor lengths")
    p.add_argument("--states", default="5,4,4,3",
                   help="comma-separated states per corridor")
    p.add_argument("--obs-noise", type=float, default=0.15)
    p.add_argument("--sigma-xy", type=float, default=0.15)
    p.add_argument("--kappa", type=float, default=150.0)
    p.add_argument("--mode", choices=sorted(_MODES), default="global")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_make_loop)

    p = sub.add_parser("learn", help="EM learning from an experience file")
    p.add_argument("experience")
    p.add_argument("-o", "--output", required=True, help="learned model path")
    p.add_argument("--report", help="report path (default <output>.report.json)")
    p.add_argument("--initial", help="initial model file (skips the "
                                     "bucketing initializer)")
    p.add_argument("-n", "--n-states", type=int)
    p.add_argument("--constraints", choices=sorted(_LEVELS),
                   default="additive")
    p.add_argument("--mode", choices=sorted(_MODES), default="global")
    p.add_argument("--no-odometry", action="store_true",
                   help="plain Baum-Welch baseline")
    p.add_argument("--restarts", type=int, default=1,
                   help="EM runs, best kept; odometry restarts jitter A, B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--smoothing", type=float, default=0.0,
                   help="pseudocount for A and B updates")
    p.add_argument("--density-floor", type=float,
                   help="floor for reading densities (for noisy real data)")
    p.add_argument("--sigma-x", type=float)
    p.add_argument("--sigma-y", type=float)
    p.add_argument("--sigma-theta", type=float)
    p.add_argument("--prefix-lengths",
                   help="comma-separated prefix lengths; learn each prefix")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("eval-kl", help="sampled KL divergence between models")
    p.add_argument("true_model")
    p.add_argument("learned_model")
    p.add_argument("-L", "--length", type=int, default=1000)
    p.add_argument("-n", "--sequences", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_eval_kl)

    p = sub.add_parser("check", help="geometric consistency check")
    p.add_argument("model")
    p.add_argument("--level", choices=sorted(_LEVELS), default="additive")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("render", help="SVG map of a model")
    p.add_argument("model")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv, args.started = argv, time.time()
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except ImpossibleSequenceError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except (ModelFormatError, GeoHmmError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
