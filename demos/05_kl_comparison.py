"""Sampled KL divergence: with-odometry learning vs the plain baseline.

A small-scale version of the headline comparison: one 800-step sequence,
three runs per arm, identical EM settings apart from the odometric
information. Takes a minute or two.

Run:  python demos/05_kl_comparison.py
"""

import numpy as np

from geohmm import (ConstraintLevel, LearnConfig, LoopSpec, kl_sampled,
                    learn_runs, make_loop_model, sample_sequence)

true_model = make_loop_model(LoopSpec())
seq = sample_sequence(true_model, 800, np.random.default_rng(1))

print("Learning from one %d-step sequence, 3 runs per arm..." % len(seq))


def arm(use_odometry, seed):
    cfg = LearnConfig(constraint_level=ConstraintLevel.ADDITIVE,
                      use_odometry=use_odometry, max_iters=200,
                      pseudocount=0.005)
    results = learn_runs(seq, true_model.n_states, cfg, restarts=3, seed=seed)
    kls, iters = [], []
    for r in results:
        est = kl_sampled(true_model, r.model, 1000, 10,
                         np.random.default_rng(99))
        kls.append(est.value)
        iters.append(r.report.iterations_run)
    return kls, iters


with_kl, with_iters = arm(True, seed=10)
without_kl, without_iters = arm(False, seed=20)

print("\n                      KL (nats/symbol)     iterations")
print("  with odometry      %s   %s"
      % (np.round(with_kl, 3), with_iters))
print("  without odometry   %s   %s"
      % (np.round(without_kl, 3), without_iters))
print("\n  mean KL ratio (without / with): %.1fx"
      % (np.mean(without_kl) / np.mean(with_kl)))
