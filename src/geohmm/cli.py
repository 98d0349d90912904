"""Command-line pipeline: simulate, learn, eval-kl, check, render, replay.

Every run that writes files also writes a JSON manifest recording the
resolved arguments, seed, inputs, outputs, and timing; `geohmm replay
<manifest>` re-executes the recorded command and reproduces the outputs
byte for byte. All randomness flows from --seed (falling back to the
GEOHMM_SEED environment variable, then 0).

Exit codes: 0 success, 2 input error, 3 impossible sequence under the
model, 4 consistency-check failure.
"""

from __future__ import annotations

import argparse
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


def resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("GEOHMM_SEED")
    return int(env) if env else 0


def write_manifest(path, command, argv, seed, inputs, outputs, started,
                   summary):
    manifest = {
        "format": "geohmm-manifest",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "elapsed_seconds": round(time.time() - started, 3),
        "summary": summary,
    }
    atomic_write_text(path, json.dumps(manifest, indent=1, sort_keys=True)
                      + "\n")


def dump_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True)
                      + "\n")


def report_payload(results, chosen):
    runs = []
    for r in results:
        runs.append({
            "seed": r.seed,
            "iterations": r.report.iterations_run,
            "converged": r.report.converged,
            "final_loglik": r.final_loglik,
            "loglik_trace": r.report.loglik_trace,
            "monotonicity_violations": [
                {"iteration": it, "drop": drop}
                for it, drop in r.report.monotonicity_violations],
        })
    return {"runs": runs, "best_index": chosen}


def cmd_simulate(args, argv):
    started = time.time()
    model = load_model(args.model)
    seed = resolve_seed(args.seed)
    seq = sample_sequence(model, args.length, np.random.default_rng(seed))
    save_experience(seq, args.output)
    manifest = args.manifest or args.output + ".manifest.json"
    write_manifest(manifest, "simulate", argv, seed, [args.model],
                   [args.output], started,
                   {"length": args.length, "n_dims": seq.n_dims})
    print("wrote %s (%d steps, %d readings)" % (args.output, len(seq),
                                                len(seq) - 1))
    return EXIT_OK


def cmd_make_loop(args, argv):
    started = time.time()
    spec = LoopSpec(
        corridor_lengths=tuple(float(v) for v in args.lengths.split(",")),
        states_per_corridor=tuple(int(v) for v in args.states.split(",")),
        obs_noise=args.obs_noise, sigma_x=args.sigma_xy,
        sigma_y=args.sigma_xy, kappa=args.kappa, mode=_MODES[args.mode])
    model = make_loop_model(spec)
    save_model(model, args.output)
    manifest = args.manifest or args.output + ".manifest.json"
    write_manifest(manifest, "make-loop", argv, 0, [], [args.output],
                   started, {"n_states": model.n_states})
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


def cmd_learn(args, argv):
    started = time.time()
    seq = load_experience(args.experience)
    seed = resolve_seed(args.seed)
    initial = load_model(args.initial) if args.initial else None
    if initial is None and args.n_states is None:
        raise CliError("either --initial or --n-states is required")
    n_states = initial.n_states if initial is not None else args.n_states
    mode = _MODES[args.mode] if initial is None else initial.mode
    cfg = _learn_config(args, mode)
    bucket_cfg = None
    if initial is None and cfg.use_odometry:
        bucket_cfg = _bucket_config(args, seq)
    obs_dims = initial.obs_dims if initial is not None else None

    inputs = [args.experience] + ([args.initial] if args.initial else [])
    outputs = []
    summary = {}

    def learn_best(sub, model_path):
        results = learn_runs(sub, n_states, cfg, restarts=args.restarts,
                             seed=seed, initial=initial,
                             bucket_cfg=bucket_cfg, obs_dims=obs_dims)
        chosen = best_index(results)
        save_model(results[chosen].model, model_path)
        outputs.append(model_path)
        return results, chosen

    if args.prefix_lengths:
        lengths = [int(v) for v in args.prefix_lengths.split(",")]
        base, ext = os.path.splitext(args.output)
        if ext != ".json":
            base = args.output
        sweep = {}
        for length in lengths:
            if not 1 <= length <= len(seq):
                raise CliError("prefix length %d out of range" % length)
            results, chosen = learn_best(seq.prefix(length),
                                         "%s.p%d.model.json" % (base, length))
            sweep[str(length)] = report_payload(results, chosen)
        report_path = "%s.report.json" % base
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

    manifest = args.manifest or outputs[0] + ".manifest.json"
    write_manifest(manifest, "learn", argv, seed, inputs, outputs, started,
                   summary)
    return EXIT_OK


def cmd_eval_kl(args, argv):
    started = time.time()
    true_model = load_model(args.true_model)
    learned = load_model(args.learned_model)
    seed = resolve_seed(args.seed)
    est = kl_sampled(true_model, learned, seq_length=args.length,
                     n_sequences=args.sequences,
                     rng=np.random.default_rng(seed))
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
    if args.output:
        dump_json(args.output, payload)
        manifest = args.manifest or args.output + ".manifest.json"
        write_manifest(manifest, "eval-kl", argv, seed,
                       [args.true_model, args.learned_model], [args.output],
                       started, payload)
    return EXIT_OK


def cmd_check(args, argv):
    model = load_model(args.model)
    report = check_consistency(model, _LEVELS[args.level], args.tol)
    payload = {
        "level": args.level,
        "tol": args.tol,
        "consistent": report.consistent,
        "violations": [
            {"kind": v.kind, "component": v.component,
             "indices": list(v.indices), "magnitude": v.magnitude}
            for v in report.violations],
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.summary())
    if args.output:
        dump_json(args.output, payload)
    return EXIT_OK if report.consistent else EXIT_INCONSISTENT


def cmd_render(args, argv):
    started = time.time()
    if min(args.width, args.height) <= 2 * MARGIN:
        raise CliError("--width and --height must exceed %d px, the margins"
                       % (2 * MARGIN))
    model = load_model(args.model)
    svg = render_svg(model, width=args.width, height=args.height)
    atomic_write_text(args.output, svg)
    manifest = args.manifest or args.output + ".manifest.json"
    write_manifest(manifest, "render", argv, 0, [args.model], [args.output],
                   started, {"n_states": model.n_states})
    print("wrote %s" % args.output)
    return EXIT_OK


def cmd_replay(args, _argv):
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError("cannot read manifest %s: %s" % (args.manifest, exc))
    if manifest.get("format") != "geohmm-manifest":
        raise CliError("%s is not a geohmm manifest" % args.manifest)
    return main(manifest["argv"])


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--seed", type=int)
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
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--seed", type=int)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
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
