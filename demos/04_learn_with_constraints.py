"""The full learning pipeline at each constraint level.

Simulates a corridor-loop experience, initializes by bucketing/tagging,
then runs the generalized-EM loop unconstrained, anti-symmetric, and
fully additive, comparing traces and final consistency.

Run:  python demos/04_learn_with_constraints.py
"""

import numpy as np

from geohmm import (ConstraintLevel, LearnConfig, LoopSpec, check_consistency,
                    default_bucket_config, em_learn, init_model,
                    make_loop_model, sample_sequence)

true_model = make_loop_model(LoopSpec())
rng = np.random.default_rng(11)
seq = sample_sequence(true_model, 600, rng)
print("Simulated %d steps from the %d-state loop" % (len(seq),
                                                     true_model.n_states))

initial = init_model(seq, true_model.n_states, default_bucket_config(seq))
print("Initializer tagged a dominant cycle:",
      " -> ".join(str(s) for s in initial.A.argmax(axis=1)[:6]), "...")

for level in (ConstraintLevel.UNCONSTRAINED, ConstraintLevel.ANTISYMMETRIC,
              ConstraintLevel.ADDITIVE):
    cfg = LearnConfig(constraint_level=level, max_iters=100)
    model, rep = em_learn(seq, initial, cfg)
    trace = rep.loglik_trace
    consistent = check_consistency(model, level, 1e-9).consistent
    print("\n%s constraints:" % level.value)
    print("  iterations: %d (converged: %s)" % (rep.iterations_run,
                                                rep.converged))
    print("  loglik: %.1f -> %.1f" % (trace[0], trace[-1]))
    print("  consistent at own level (tol 1e-9): %s" % consistent)
    if rep.monotonicity_violations:
        print("  relation steps not taken (would lower Q): %d"
              % len(rep.monotonicity_violations))
    cycle_ok = all(model.A[i].argmax() in (i, (i + 1) % model.n_states)
                   for i in range(model.n_states))
    print("  transition structure follows the loop: %s" % cycle_ok)
