"""Von Mises primitives: Bessel functions, concentration inversion, wrapping.

Run:  python demos/01_circular_statistics.py
"""

import numpy as np

from geohmm import (KAPPA_MAX, LoopSpec, bessel_ratio, make_loop_model,
                    resultant_to_kappa, sample_path, wrap_angle)
from geohmm.circstats import log_bessel_i0, mean_resultant_length

print("log I0 (finite where I0 itself overflows) and the ratio A = I1/I0:")
for kappa in (0.0, 0.5, 1.0, 2.0, 10.0, 50.0, 1000.0, KAPPA_MAX):
    print("  kappa=%7.1f  log I0=%12.6f  A=I1/I0=%.6f"
          % (kappa, log_bessel_i0(kappa), bessel_ratio(kappa)))

print("\nInverting A(kappa): concentration from a target resultant length")
for r in (0.1, 0.5, 0.697775, 0.9, 0.99):
    kappa = resultant_to_kappa(r)
    print("  r=%.6f -> kappa=%9.4f  (A(kappa)=%.6f)"
          % (r, kappa, bessel_ratio(kappa)))

print("\nHeading changes a 4-state loop draws on its (0, 1) pair, 20k steps:")
for kappa in (0.5, 5.0, 50.0):
    model = make_loop_model(LoopSpec(states_per_corridor=(1, 1, 1, 1),
                                     kappa=kappa))
    states, seq = sample_path(model, 20_000, np.random.default_rng(42))
    headings = seq.readings[(states[:-1] == 0) & (states[1:] == 1), 2]
    r = mean_resultant_length(headings)
    print("  kappa=%4.1f  %5d draws  resultant %.4f (A=%.4f)  "
          "recovered kappa %.2f"
          % (kappa, headings.size, r, bessel_ratio(kappa),
             resultant_to_kappa(r)))

print("\nAngle wrapping into (-pi, pi]:")
for theta in (0.0, 3 * np.pi, -np.pi, 7.0):
    print("  wrap(%8.4f) = %8.4f" % (theta, wrap_angle(theta)))
