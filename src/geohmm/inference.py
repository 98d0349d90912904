"""Scaled forward/backward recursions and posterior tables.

The forward variable folds in, beside the usual transition and
observation terms, the density of the odometric reading recorded on each
transition:

    alpha_t(j) = sum_i alpha_{t-1}(i) A[i,j] f(r_t | R[i,j]) b_t(j)

Relation densities can be orders of magnitude above or below 1, so alpha
rows are normalized at every step and the same scales are reused for
beta; the log-likelihood is the sum of the log scale factors.

The reading densities form an exponential family, log f(r | R[i,j]) =
phi(r) . eta[i,j], so the whole (T-1, N, N) tensor is one product of
the (T-1, 7) reading features phi = (1, dx, dy, dx^2, dy^2, sin dtheta,
cos dtheta) and the (7, N^2) natural parameters, then one in-place exp
(model.relation_log_density). The same features weigh the expected pair
statistics that the M-step reads. posteriors needs no sum over xi: the
forward recursion gives its normalizer Z_t = c_{t+1} sum_j
alpha_{t+1}(j) beta_{t+1}(j), the row sum that gamma divides by.

Both passes run time-blocked (after Sarkka and Garcia-Fernandez 2021),
about 3 sqrt(T) batched steps instead of T Python steps. The T-1 steps
form blocks of L = round(sqrt(T-1)), which minimizes L block steps plus
(T-1)/L block starts: T fixes L and there is nothing to tune. All block
products are formed at once with each row's log scale kept apart
(product = diag(exp(logr)) @ P), so no row under- or overflows. A short
log-domain recursion (log alpha + logr, less its maximum) carries alpha
across block starts, then all blocks fill in their steps at once, each
scale c_t = sum(alpha_{t-1} @ step[t-1] * b_t) as in a sequential step.
The products cost N^3 instead of N^2 per step, small beside the Python
overhead saved at the state counts used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ExperienceSequence, GeoHmm, ImpossibleSequenceError,
                    reading_features, relation_log_density)


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
    logf = relation_log_density(e.readings, model.relations)
    return np.exp(logf, out=logf)


def _scaled_scan(first, step, emit, divisors=None):
    """The time-blocked recursion v_t = (v_{t-1} @ step[t-1]) * emit[t] / c_t.

    v_0 = first; c_t is the row's sum (v_t then sums to 1) or, when
    given, divisors[t]. first (..., N) and emit (..., T, N) may carry
    batch axes; step is (T-1, N, N). Returns v (..., T, N) and c (..., T)
    with c_0 = 1. A row that dies shows a zero or non-finite c_t at its
    first failing step.
    """
    T, N = emit.shape[-2:]
    batch = emit.shape[:-2]
    v, c = np.empty(emit.shape), np.ones(emit.shape[:-1])
    v[..., 0, :] = first
    if T == 1:
        return v, c
    L = round(math.sqrt(T - 1))
    nb = -(-(T - 1) // L)
    full = (nb - 1) * L                # steps in blocks with a successor
    ones = np.ones(N)
    P = np.broadcast_to(np.eye(N), batch + (nb - 1, N, N)).copy()
    Q = np.empty_like(P)
    rows = P.reshape(-1, N)            # a view: P is only written in place
    E = np.zeros(len(rows), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Block products as diag(2**E) @ P. A row is rescaled, by an exact
        # power of two, only once its sum leaves 2**±64, so most steps
        # skip that pass; at the end the rows are normalized once.
        for k in range(L):
            np.matmul(P, step[k:full:L], out=Q)
            np.multiply(Q, emit[..., k + 1:full + 1:L, None, :], out=P)
            s = rows @ ones
            if (np.max(s, initial=0.0) > 2.0**64
                    or np.min(s, where=s > 0.0, initial=1.0) < 2.0**-64):
                e = np.maximum(np.frexp(s)[1], -1021)  # 2**-e stays finite
                E += e
                rows *= np.ldexp(1.0, -e)[:, None]
        s = rows @ ones
        logr = (E * math.log(2.0) + np.log(s)).reshape(P.shape[:-1])
        s[s == 0.0] = 1.0
        rows /= s[:, None]
        starts = np.empty(batch + (nb, N))
        starts[..., 0, :] = first
        for b in range(nb - 1):
            lw = np.log(starts[..., b, :]) + logr[..., b, :]
            top = lw.max(axis=-1, keepdims=True)
            y = (np.exp(lw - top)[..., None, :] @ P[..., b, :, :])[..., 0, :]
            if divisors is None:
                y /= y.sum(axis=-1, keepdims=True)
            else:
                block = divisors[..., b * L + 1:(b + 1) * L + 1]
                y *= np.exp(top - np.log(block).sum(axis=-1, keepdims=True))
            starts[..., b + 1, :] = y
        # Fill in every block's steps from its start, all blocks at once;
        # the last block may be short and drops out once it is done.
        cur = starts
        for k in range(L):
            m = (T - 2 - k) // L + 1       # blocks that have a step k
            row = (cur[..., :m, None, :] @ step[k::L])[..., 0, :]
            row *= emit[..., k + 1::L, :]
            ck = (row.sum(axis=-1) if divisors is None
                  else divisors[..., k + 1::L])
            cur = row / ck[..., None]
            v[..., k + 1::L, :] = cur
            c[..., k + 1::L] = ck
    return v, c


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

    alpha, scales = _scaled_scan(np.eye(N)[model.start_state], step, emit)
    scales[0] = emit[0, model.start_state]
    bad = ~(np.isfinite(scales) & (scales > 0.0))
    if bad.any():
        raise ImpossibleSequenceError(int(np.argmax(bad)))

    # u_t = emit[t] * beta[t] takes the forward form in reversed time,
    # u_t = (u_{t+1} @ step[t].T) * emit[t] / c_{t+1}; beta needs no /emit.
    divisors = np.concatenate(([1.0], scales[:0:-1]))
    u = _scaled_scan(emit[T - 1], step[::-1].transpose(0, 2, 1), emit[::-1],
                     divisors)[0][::-1]
    beta = np.ones((T, N))
    beta[:-1] = (step @ u[1:, :, None])[..., 0] / scales[1:, None]

    return Trellis(alpha=alpha, beta=beta, scales=scales,
                   loglik=float(np.sum(np.log(scales))),
                   use_odometry=use_odometry, emit=emit, step=step)


def loglik(model: GeoHmm, seqs) -> np.ndarray:
    """(S,) observation-only log-likelihoods of equal-length sequences.

    The forward recursion of forward_backward(..., use_odometry=False),
    with the S sequences as a batch axis; readings are ignored. A
    sequence the model rejects scores -inf without disturbing the other
    rows.
    """
    seqs = list(seqs)
    if not seqs:
        return np.zeros(0)
    T = len(seqs[0])
    if any(len(e) != T for e in seqs):
        raise ValueError("loglik needs sequences of equal length")
    emit = np.stack([emission_probs(model, e) for e in seqs])   # (S, T, N)
    S, N = len(seqs), model.n_states
    _, scales = _scaled_scan(np.eye(N)[model.start_state],
                             np.broadcast_to(model.A, (T - 1, N, N)), emit)
    scales[:, 0] = emit[:, 0, model.start_state]
    live = (np.isfinite(scales) & (scales > 0.0)).all(axis=1)
    out = np.full(S, -np.inf)
    out[live] = np.log(scales[live]).sum(axis=1)
    return out


def pair_statistics(xi: np.ndarray, readings: np.ndarray) -> np.ndarray:
    """(7, N, N) xi-weighted sums over t of 1, dx, dy, dx^2, dy^2,
    sin(dtheta) and cos(dtheta), the order of Posteriors.pair.

    xi is (T-1, N, N) and readings (T-1, 3); the sums are one
    (7, T-1) @ (T-1, N*N) product.
    """
    n = xi.shape[1]
    phi = reading_features(readings)
    return (phi.T @ xi.reshape(len(xi), n * n)).reshape(7, n, n)


def posteriors(trellis: Trellis, model: GeoHmm, e: ExperienceSequence,
               use_odometry: bool = True) -> Posteriors:
    """Gamma and expected pair statistics from a trellis computed for the
    same inputs.

    xi[t] = alpha[t, :, None] * step[t] * v[t] with v = (emit * beta /
    Z)[1:]. Without odometry every step is A, so pair[k] = A * (U_k.T @ v)
    with U_k = w_k(r) * alpha[:-1], and no (T-1, N, N) array is built.
    """
    T, N = len(e), model.n_states
    if trellis.alpha.shape != (T, N) or trellis.use_odometry != use_odometry:
        raise ValueError("trellis does not match the given model/sequence/flag")

    ab = trellis.alpha * trellis.beta
    mass = ab.sum(axis=1)
    gamma = ab / mass[:, None]

    v = trellis.emit[1:] * trellis.beta[1:]
    v /= (trellis.scales[1:] * mass[1:])[:, None]                # (T-1, N)
    if use_odometry:
        xi = trellis.alpha[:-1, :, None] * trellis.step
        xi *= v[:, None, :]
        return Posteriors(gamma=gamma, pair=pair_statistics(xi, e.readings))
    u = reading_features(e.readings)[:, :, None] * trellis.alpha[:-1, None, :]
    pair = (u.reshape(T - 1, 7 * N).T @ v).reshape(7, N, N)
    pair *= model.A
    return Posteriors(gamma=gamma, pair=pair)
