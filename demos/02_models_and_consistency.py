"""Building models, checking geometric consistency, file round trips.

Run:  python demos/02_models_and_consistency.py
"""

import dataclasses
import os
import tempfile

import numpy as np

from geohmm import (ConstraintLevel, CoordinateMode, ExperienceSequence,
                    LoopSpec, check_consistency, embed_relations, load_model,
                    make_loop_model, save_model)

print("A 16-state corridor loop (the default experiment environment):")
model = make_loop_model(LoopSpec())
print("  states: %d, observation alphabets: %s" % (model.n_states,
                                                    model.obs_dims))
report = check_consistency(model, ConstraintLevel.ADDITIVE, 1e-12)
print("  additive-consistent at 1e-12:", report.consistent)

print("\nRelation entry for the first corridor step:")
R = model.relations
reading = (R.mu_x[0, 1], R.mu_y[0, 1], R.mu_theta[0, 1])
print("  mean (dx, dy, dtheta) = (%.3f, %.3f, %.3f), var (x, y) = (%.4f, "
      "%.4f), kappa = %.1f" % (reading + (R.var_x[0, 1], R.var_y[0, 1],
                                          R.kappa_theta[0, 1])))
# log f(r | R[i, j]) = features(r) . eta[:, i, j]: the sequence caches its
# reading features, the table its natural parameters.
walk = ExperienceSequence(np.zeros((2, 3), dtype=int), [reading])
print("  density at the mean reading: %.4f"
      % np.exp(walk.features[0] @ R.eta[:, 0, 1]))

print("\nBreaking anti-symmetry by hand and re-checking:")
# Models and relation tables are read-only: build a changed one instead.
mu_x = R.mu_x.copy()
mu_x[0, 1] += 0.25
broken = model.replace(relations=dataclasses.replace(R, mu_x=mu_x))
report = check_consistency(broken, ConstraintLevel.ANTISYMMETRIC, 1e-9)
print(" ", report.summary().splitlines()[0])
for line in report.summary().splitlines()[1:4]:
    print(" ", line)

print("\nRelations from per-state coordinates (relative frames):")
x = np.array([0.0, 2.0, 2.0])
y = np.array([0.0, 0.0, 1.5])
theta = np.array([0.0, np.pi / 2, np.pi / 2])
mu_x, mu_y, mu_theta = embed_relations(x, y, theta, CoordinateMode.RELATIVE)
print("  displacement 0->1 in state 0's frame: (%.2f, %.2f), turn %.2f rad"
      % (mu_x[0, 1], mu_y[0, 1], mu_theta[0, 1]))
print("  displacement 1->2 in state 1's frame: (%.2f, %.2f)"
      % (mu_x[1, 2], mu_y[1, 2]))

print("\nModel file round trip:")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "loop.json")
    save_model(model, path)
    loaded = load_model(path)
    print("  wrote %s (%d bytes); A matrices equal: %s"
          % (os.path.basename(path), os.path.getsize(path),
             bool(np.array_equal(model.A, loaded.A))))
