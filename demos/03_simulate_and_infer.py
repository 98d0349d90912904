"""Monte Carlo simulation and the scaled forward/backward recursions.

Run:  python demos/03_simulate_and_infer.py
"""

import numpy as np

from geohmm import (LoopSpec, forward_backward, make_loop_model, posteriors,
                    sample_path)

model = make_loop_model(LoopSpec())
rng = np.random.default_rng(7)
states, seq = sample_path(model, 60, rng)

print("First ten steps of a simulated experience sequence:")
print("  t  state  observations      dx      dy   dtheta")
for t in range(10):
    if t == 0:
        print("  %d   %2d    %s       -       -       -"
              % (t, states[t], seq.observations[t]))
    else:
        dx, dy, dt = seq.readings[t - 1]
        print("  %d   %2d    %s  %6.2f  %6.2f  %6.3f"
              % (t, states[t], seq.observations[t], dx, dy, dt))

print("\nForward/backward with odometric relation densities:")
trellis = forward_backward(model, seq, use_odometry=True)
print("  log-likelihood: %.3f" % trellis.loglik)
trellis_plain = forward_backward(model, seq, use_odometry=False)
print("  observation-only log-likelihood: %.3f" % trellis_plain.loglik)

post = posteriors(trellis, model, seq)
decoded = post.gamma.argmax(axis=1)
print("\nPosterior state decoding vs the hidden truth (first 20 steps):")
print("  true   ", states[:20])
print("  decoded", decoded[:20])
print("  agreement over the whole run: %.1f%%"
      % (100.0 * (decoded == states).mean()))

print("\nPosterior sanity: gamma rows sum to one; the expected transition")
print("counts pair[0] sum to T - 1 and their rows to gamma[:-1]")
counts = post.pair[0]
print("  max |sum(gamma) - 1|             = %.2e"
      % np.abs(post.gamma.sum(axis=1) - 1).max())
print("  |sum(counts) - (T - 1)|          = %.2e"
      % abs(counts.sum() - (len(seq) - 1)))
print("  max |row sums - sum(gamma[:-1])| = %.2e"
      % np.abs(counts.sum(axis=1) - post.gamma[:-1].sum(axis=0)).max())
