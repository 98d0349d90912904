"""Bessel functions and circular arithmetic for von Mises headings.

Angles are radians throughout, canonicalized to the half-open interval
(-pi, pi]. A heading change is von Mises,

    f(theta; mu, kappa) = exp(kappa * cos(theta - mu)) / (2 pi I0(kappa))

with I0 the modified Bessel function of the first kind and order 0. The
density is the heading factor of RelationMatrix.eta and the draws
are simgen.sample_path's; this module holds log I0, the mean resultant
length A = I1/I0 and its inverse, and the angle wrap. Concentrations are
clamped to [0, KAPPA_MAX]; beyond that the distribution is numerically a
point mass.

scipy.special loads on the first Bessel evaluation, not on import: each
Bessel function imports i0e/i1e when called. The import costs about 0.3 s
and 26 MB per process, and only runs with odometry evaluate a Bessel
function; the no-odometry learn, simulate, eval-kl, check and render
do not.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
LOG_TWO_PI = np.log(TWO_PI)

# Clamp ceiling for concentrations.
KAPPA_MAX = 1e4


def wrap_angle(theta):
    """Wrap an angle (or array of angles) into (-pi, pi]."""
    if np.ndim(theta) == 0:
        wrapped = float(theta) % TWO_PI
        return wrapped - TWO_PI if wrapped > np.pi else wrapped
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped > np.pi, wrapped - TWO_PI, wrapped)


# The Bessel functions below take a scalar (and return a float) or an
# array (and return an array of the same shape). They are built on the
# exponentially scaled i0e(k) = exp(-k) I0(k) and i1e(k) = exp(-k) I1(k),
# which stay finite for every finite k.

def _nonnegative(kappa) -> np.ndarray:
    k = np.asarray(kappa, dtype=float)
    if np.any(k < 0):
        raise ValueError("kappa must be nonnegative, got %r" % (kappa,))
    return k


def _like(value, arg):
    return float(value) if np.ndim(arg) == 0 else value


def log_bessel_i0(kappa):
    """log I0(kappa), stable for any kappa in [0, KAPPA_MAX] and beyond."""
    from scipy.special import i0e
    k = _nonnegative(kappa)
    return _like(k + np.log(i0e(k)), kappa)


def bessel_ratio(kappa):
    """A(kappa) = I1(kappa) / I0(kappa), the mean resultant length."""
    from scipy.special import i0e, i1e
    k = _nonnegative(kappa)
    return _like(i1e(k) / i0e(k), kappa)


def resultant_to_kappa(r):
    """Invert A(kappa) = I1/I0 to the concentration producing resultant r.

    Negative inputs map to 0 (the update rule floors the resultant at 0)
    and inputs at or above A(KAPPA_MAX) clamp to KAPPA_MAX. Newton
    iteration on A(kappa) - r with the identity
    A'(k) = 1 - A(k)^2 - A(k)/k, seeded by the rational approximation
    r(2 - r^2)/(1 - r^2); the residual |A(kappa) - r| stays near machine
    precision for r <= 0.995.
    """
    from scipy.special import i0e, i1e
    rr = np.clip(np.asarray(r, dtype=float), 0.0, 1.0 - 1e-9)
    kappa = rr * (2.0 - rr * rr) / np.maximum(1.0 - rr * rr, 1e-12)
    kappa = np.clip(kappa, 0.0, KAPPA_MAX)
    for _ in range(8):
        a = i1e(kappa) / i0e(kappa)
        slope = np.where(kappa > 1e-12,
                         1.0 - a * a - np.divide(a, kappa,
                                                 out=np.full_like(a, 0.5),
                                                 where=kappa > 1e-12),
                         0.5)
        kappa = np.clip(kappa - (a - rr) / np.maximum(slope, 1e-12),
                        0.0, KAPPA_MAX)
    return _like(np.where(rr >= bessel_ratio(KAPPA_MAX), KAPPA_MAX, kappa), r)


def mean_resultant_length(angles):
    """Length of the mean resultant vector, in [0, 1]."""
    angles = np.asarray(angles, dtype=float)
    return float(np.hypot(np.mean(np.sin(angles)), np.mean(np.cos(angles))))
