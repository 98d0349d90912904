"""End-to-end learning drivers shared by the CLI and the experiments.

A "run" here is: choose an initial model, then EM to convergence. With
odometry, the initializer of the bucketing/tagging heuristics is used
and restarts jitter its A and B but keep its geometry; without odometry
(the plain Baum-Welch baseline) there is nothing to bucket by, so
restarts use seeded random initial models. All randomness derives from
one integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import LearnConfig, LearnReport, em_learn
from .initialization import (BucketConfig, init_model, perturb_model,
                             random_model)
from .model import CoordinateMode, ExperienceSequence, GeoHmm


@dataclass
class RunResult:
    model: GeoHmm
    report: LearnReport

    @property
    def final_loglik(self) -> float:
        return self.report.loglik_trace[-1]


def default_bucket_config(e: ExperienceSequence) -> BucketConfig:
    """Bucketing deviations scaled from the spread of the readings.

    An eighth of the per-dimension span works well when the true
    per-transition noise is unknown; the heading deviation is a fixed
    0.35 rad, below pi/4 so distinct turns stay separable.
    """
    spans = e.readings.max(axis=0) - e.readings.min(axis=0)
    sigma_x = max(float(spans[0]) / 8.0, 1e-3)
    sigma_y = max(float(spans[1]) / 8.0, 1e-3)
    return BucketConfig(sigma_x=sigma_x, sigma_y=sigma_y,
                        sigma_theta=0.35)


def learn_runs(e: ExperienceSequence, n_states: int, cfg: LearnConfig,
               restarts: int = 1, seed: int = 0,
               initial: GeoHmm | None = None,
               bucket_cfg: BucketConfig | None = None) -> list:
    """Run EM `restarts` times and return every run's result.

    Restart 0 starts from `initial` (of n_states states) when given, else
    from the odometric initializer (with odometry) or a seeded random
    model (without). Later restarts jitter that base model's A and B and
    share its relations (odometry) or draw fresh random models
    (baseline). Restart k draws from SeedSequence(seed).spawn(restarts)[k].
    The alphabets are e.obs_dims.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if n_states < 1:
        raise ValueError("n_states must be at least 1, got %d" % n_states)
    if initial is not None and initial.n_states != n_states:
        raise ValueError("the initial model has %d states, n_states is %d"
                         % (initial.n_states, n_states))
    seeds = np.random.SeedSequence(seed).spawn(restarts)

    mode = cfg.mode or CoordinateMode.GLOBAL
    base = initial
    if base is None and cfg.use_odometry:
        base = init_model(e, n_states, bucket_cfg or default_bucket_config(e),
                          mode=mode)

    results = []
    for k, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        if base is not None:
            start = base if k == 0 else perturb_model(base, rng, scale=0.1)
        else:
            start = random_model(n_states, e.obs_dims, rng, mode=mode)
        model, report = em_learn(e, start, cfg)
        results.append(RunResult(model=model, report=report))
    return results


def best_index(results) -> int:
    """Index of the run with the highest final loglik (first on ties)."""
    return max(range(len(results)), key=lambda k: results[k].final_loglik)


def best_run(results) -> RunResult:
    return results[best_index(results)]
