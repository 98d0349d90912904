"""Scaled forward/backward recursions and posterior tables.

The forward variable folds in, beside the usual transition and
observation terms, the density of the odometric reading recorded on each
transition:

    alpha_t(j) = sum_i alpha_{t-1}(i) A[i,j] f(r_t | R[i,j]) b_t(j)

Relation densities can be orders of magnitude above or below 1, so alpha
rows are normalized at every step and the same scales are reused for
beta; the log-likelihood is the sum of the log scale factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circstats import vm_log_density
from .model import (ExperienceSequence, GeoHmm, ImpossibleSequenceError,
                    normal_log_density)


@dataclass
class Trellis:
    """Scaled forward/backward tables for one (model, sequence) pair.

    step[t] is the operator of the transition t -> t+1: A times the
    densities of the reading recorded on it (A itself, broadcast, without
    odometry). emit[t] holds the per-state observation probabilities.
    """

    alpha: np.ndarray          # (T, N), rows sum to 1
    beta: np.ndarray           # (T, N), scaled with the alpha scales
    scales: np.ndarray         # (T,) positive normalizers
    loglik: float
    use_odometry: bool
    emit: np.ndarray           # (T, N)
    step: np.ndarray           # (T-1, N, N)


@dataclass
class Posteriors:
    """State-occupation table and expected pair statistics.

    gamma[t, i] = Pr(q_t = i | E). pair[k, i, j] = sum_t xi[t, i, j] w_k(r_t)
    with xi[t, i, j] = Pr(q_t = i, q_{t+1} = j | E) and r_t the reading of
    the transition t -> t+1, for the weights w_k, in order:
    1, dx, dy, dx^2, dy^2, sin(dtheta), cos(dtheta). pair[0] holds the
    expected transition counts.
    """

    gamma: np.ndarray          # (T, N)
    pair: np.ndarray           # (7, N, N): s0, sx, sy, sxx, syy, ssin, scos


def obs_prob(model: GeoHmm, state: int, v) -> float:
    """Probability of observation vector v in the given state."""
    v = np.asarray(v, dtype=int)
    if v.shape != (model.n_obs_dims,):
        raise ValueError("observation vector must have length %d"
                         % model.n_obs_dims)
    out = 1.0
    for i, b in enumerate(model.B):
        if not 0 <= v[i] < model.obs_dims[i]:
            raise ValueError("symbol %d out of alphabet on dimension %d"
                             % (v[i], i))
        out *= b[v[i], state]
    return float(out)


def emission_probs(model: GeoHmm, e: ExperienceSequence) -> np.ndarray:
    """(T, N) matrix of per-state observation-vector probabilities."""
    obs = e.observations
    if obs.shape[1] != model.n_obs_dims:
        raise ValueError("sequence has %d observation dimensions, model has %d"
                         % (obs.shape[1], model.n_obs_dims))
    for i, size in enumerate(model.obs_dims):
        bad = np.nonzero(obs[:, i] >= size)[0]
        if bad.size:
            raise ValueError("symbol %d out of alphabet on dimension %d at step %d"
                             % (obs[bad[0], i], i, bad[0]))
    out = np.ones((len(e), model.n_states))
    for i, b in enumerate(model.B):
        out *= b[obs[:, i], :]
    return out


def relation_density_tensor(model: GeoHmm, e: ExperienceSequence) -> np.ndarray:
    """(T-1, N, N) tensor of reading densities f(r_{t+1} | R[i,j])."""
    R = model.relations
    rd = e.readings[:, :, None, None]
    # Accumulated in place: fresh (T-1, N, N) temporaries cost more than
    # the arithmetic.
    logf = normal_log_density(rd[:, 0], R.mu_x, R.var_x)
    logf += normal_log_density(rd[:, 1], R.mu_y, R.var_y)
    logf += vm_log_density(rd[:, 2], R.mu_theta, R.kappa_theta)
    return np.exp(logf, out=logf)


def forward_backward(model: GeoHmm, e: ExperienceSequence,
                     use_odometry: bool = True,
                     density_floor: float | None = None) -> Trellis:
    """Run the scaled recursions; raises ImpossibleSequenceError if some
    step has zero total probability.

    With use_odometry off, all reading densities are replaced by 1 and the
    recursion reduces to the plain observation-only HMM.
    """
    T, N = len(e), model.n_states
    emit = emission_probs(model, e)
    if use_odometry and T > 1:
        step = relation_density_tensor(model, e)
        if density_floor is not None:
            np.maximum(step, density_floor, out=step)
        step *= model.A
    else:
        step = np.broadcast_to(model.A, (T - 1, N, N))

    alpha = np.zeros((T, N))
    scales = np.zeros(T)
    alpha[0, model.start_state] = emit[0, model.start_state]
    scales[0] = alpha[0].sum()
    if scales[0] <= 0.0:
        raise ImpossibleSequenceError(0)
    alpha[0] /= scales[0]
    for t in range(1, T):
        row = alpha[t - 1] @ step[t - 1] * emit[t]
        scales[t] = row.sum()
        if scales[t] <= 0.0 or not np.isfinite(scales[t]):
            raise ImpossibleSequenceError(t)
        alpha[t] = row / scales[t]

    beta = np.zeros((T, N))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = step[t] @ (emit[t + 1] * beta[t + 1]) / scales[t + 1]

    return Trellis(alpha=alpha, beta=beta, scales=scales,
                   loglik=float(np.sum(np.log(scales))),
                   use_odometry=use_odometry, emit=emit, step=step)


def loglik(model: GeoHmm, seqs) -> np.ndarray:
    """(S,) observation-only log-likelihoods of equal-length sequences.

    One scaled forward recursion over an (S, N) alpha block; readings are
    ignored, as in forward_backward(..., use_odometry=False). A sequence
    the model rejects scores -inf without disturbing the other rows.
    """
    seqs = list(seqs)
    if not seqs:
        return np.zeros(0)
    T = len(seqs[0])
    if any(len(e) != T for e in seqs):
        raise ValueError("loglik needs sequences of equal length")
    emit = np.stack([emission_probs(model, e) for e in seqs])   # (S, T, N)
    S, N = len(seqs), model.n_states
    alpha = np.zeros((S, N))
    alpha[:, model.start_state] = emit[:, 0, model.start_state]
    log_scales = np.zeros((S, T))
    dead = np.zeros(S, dtype=bool)
    for t in range(T):
        if t:
            alpha = alpha @ model.A * emit[:, t]
        scales = alpha.sum(axis=1)
        bad = ~(np.isfinite(scales) & (scales > 0.0))
        if bad.any():
            dead |= bad
            alpha[bad] = 0.0
            scales[bad] = 1.0
        alpha /= scales[:, None]
        log_scales[:, t] = np.log(scales)
    out = log_scales.sum(axis=1)
    out[dead] = -np.inf
    return out


def pair_statistics(xi: np.ndarray, readings: np.ndarray) -> np.ndarray:
    """(7, N, N) xi-weighted sums over t of 1, dx, dy, dx^2, dy^2,
    sin(dtheta) and cos(dtheta), the order of Posteriors.pair.

    xi is (T-1, N, N) and readings (T-1, 3); the sums are one
    (7, T-1) @ (T-1, N*N) product.
    """
    n = xi.shape[1]
    dx, dy, dtheta = np.asarray(readings, dtype=float).T
    weights = np.stack([np.ones_like(dx), dx, dy, dx * dx, dy * dy,
                        np.sin(dtheta), np.cos(dtheta)])
    return (weights @ xi.reshape(len(xi), n * n)).reshape(7, n, n)


def posteriors(trellis: Trellis, model: GeoHmm, e: ExperienceSequence,
               use_odometry: bool = True) -> Posteriors:
    """Gamma and expected pair statistics from a trellis computed for the
    same inputs."""
    T, N = len(e), model.n_states
    if trellis.alpha.shape != (T, N) or trellis.use_odometry != use_odometry:
        raise ValueError("trellis does not match the given model/sequence/flag")

    ab = trellis.alpha * trellis.beta
    gamma = ab / ab.sum(axis=1, keepdims=True)

    emit_beta = trellis.emit[1:] * trellis.beta[1:]            # (T-1, N)
    xi = (trellis.alpha[:-1, :, None] * trellis.step
          * emit_beta[:, None, :])
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=gamma, pair=pair_statistics(xi, e.readings))
