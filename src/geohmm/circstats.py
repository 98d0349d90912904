"""Von Mises primitives and circular arithmetic.

Angles are radians throughout, canonicalized to the half-open interval
(-pi, pi]. The von Mises density is

    f(theta; mu, kappa) = exp(kappa * cos(theta - mu)) / (2 pi I0(kappa))

with I0 the modified Bessel function of the first kind and order 0.
Concentrations are clamped to [0, KAPPA_MAX]; beyond that the
distribution is numerically a point mass.
"""

from __future__ import annotations

import numpy as np
from scipy.special import i0e, i1e

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
    k = _nonnegative(kappa)
    return _like(k + np.log(i0e(k)), kappa)


def bessel_i0(kappa):
    """Modified Bessel function I0. Overflows to inf for kappa > ~709."""
    k = _nonnegative(kappa)
    return _like(i0e(k) * np.exp(k), kappa)


def bessel_ratio(kappa):
    """A(kappa) = I1(kappa) / I0(kappa), the mean resultant length."""
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


def vm_density(theta, mu, kappa):
    """Von Mises density at theta for mean direction mu and concentration
    kappa; broadcasts over array arguments."""
    kappa = np.clip(kappa, 0.0, KAPPA_MAX)
    out = np.exp(kappa * np.cos(np.asarray(theta) - mu) - LOG_TWO_PI
                 - log_bessel_i0(kappa))
    if np.ndim(theta) == 0 and np.ndim(mu) == 0 and np.ndim(kappa) == 0:
        return float(out)
    return out


def vm_sample(mu, kappa, rng: np.random.Generator, size=None):
    """Draw from von Mises(mu, kappa) using the given generator.

    Uses the generator's wrapped-rejection von Mises sampler, so draws are
    reproducible for a fixed seed. Results are wrapped into (-pi, pi].
    """
    kappa = np.clip(kappa, 0.0, KAPPA_MAX)
    draws = rng.vonmises(mu, kappa, size=size)
    return wrap_angle(draws)


def circular_mean(angles):
    """Direction of the resultant vector, in (-pi, pi]."""
    angles = np.asarray(angles, dtype=float)
    return float(np.arctan2(np.sin(angles).sum(), np.cos(angles).sum()))


def mean_resultant_length(angles):
    """Length of the mean resultant vector, in [0, 1]."""
    angles = np.asarray(angles, dtype=float)
    return float(np.hypot(np.mean(np.sin(angles)), np.mean(np.cos(angles))))
