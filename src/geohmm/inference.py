"""Scaled forward/backward recursions and posterior tables.

The forward variable folds in, beside the usual transition and
observation terms, the density of the odometric reading recorded on each
transition:

    alpha_t(j) = sum_i alpha_{t-1}(i) A[i,j] f(r_t | R[i,j]) b_t(j)

Relation densities can be orders of magnitude above or below 1, so alpha
rows are normalized at every step and beta is scaled to match (each
sum_i alpha_t(i) beta_t(i) is 1); the log-likelihood is the sum of the
log scale factors.

The reading densities form an exponential family, log f(r | R[i,j]) =
phi(r) . eta[i,j], so the whole (T-1, N, N) tensor is one product of
the (T-1, 7) reading features phi = (1, dx, dy, dx^2, dy^2, sin dtheta,
cos dtheta) and the (7, N^2) natural parameters, then one in-place exp
(RelationMatrix.eta). The same features weigh the expected pair
statistics that the M-step reads. posteriors needs no sum over xi: the
forward recursion gives its normalizer Z_t = c_{t+1} sum_j
alpha_{t+1}(j) beta_{t+1}(j), the row sum that gamma divides by.

forward_backward's two passes run time-blocked (after Sarkka and
Garcia-Fernandez 2021), about 5 sqrt(T) batched steps instead of 2T
Python steps. The T-1 steps form blocks of L = round(sqrt(T-1)), which
minimizes L block steps plus (T-1)/L block starts: T fixes L and there
is nothing to tune. Block b's product P_b of the operators M_t = step[t]
diag(emit[t+1]) is formed once, all blocks at once, with each row's log
scale kept apart (product = diag(exp(logr)) @ P), so no row under- or
overflows. One set of products serves both passes, since alpha_{t+1} ~
alpha_t M_t and beta_t ~ M_t beta_{t+1}. Forward: a short log-domain
recursion (log alpha + logr, less its maximum) carries alpha across
block starts, then all blocks fill in their steps at once, each scale
c_t = sum(alpha_{t-1} @ step[t-1] * b_t) as in a sequential step.
Backward: the same recursion runs on P_b beta from the end, then the
blocks fill in backwards, and each beta row is divided by sum_i
alpha_t(i) beta_t(i), which is 1 under the forward scaling (Rabiner
1989). The products cost N^3 instead of N^2 per step, small beside the
Python overhead saved at the state counts used here.

Without odometry every operator is A diag(emit[t+1]) with the same A, so
forward_backward hands both scans the (N, N) matrix A, not a stride-0
(T-1, N, N) view of it. The stages then differ only in how their product
is formed: the m block products of a stage are one (m N, N) @ (N, N)
product, the forward fill is (m, N) @ A and the backward fill u @ A.T.
At N=16 and T=800 (m=29 blocks; best of 7 x 2000 calls, 2-core VM,
OpenBLAS) a stage's block product took 9.7 us as one product against
11-12 us batched, the forward fill 2.6 against 6.9 us and the backward
fill 3.6 against 8.3 us; the scans run 28 stages of each. Every c_t
and beta normalizer is still the row sum of a sequential step, so the
recursion with odometry is unchanged bit for bit.

The backward scan runs on the first read of Trellis.beta, so a trellis
whose posteriors are never formed costs the forward scan alone, and
posteriors builds xi in the memory of the trellis's step operators,
which it spends; estimation.em_learn says what each saves.

loglik, which scores S strings under K models forward only, runs
Rabiner's sequential recursion instead: T Python steps over one (K, S,
N) stack of rows, T K S N^2 work, where a blocked scan of the batch
costs about S T N^3. The choice follows the shape. Forward only, at
T=1000 and N=16 (one model; medians of three runs on a 2-core VM with
OpenBLAS), one sequence took 3.6 ms blocked against 9.0 ms sequential,
and the batch lost from S=10 on: 20.1 against 12.9 ms at S=10, 46 against
17 ms at S=20 and 86 against 25 ms at S=40. One long sequence whose
block products the backward pass reuses thus goes blocked, a batch of
strings sequential. Both gather their emissions from one table per model
over the distinct symbol vectors that occur (emission_probs).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (ExperienceSequence, GeoHmm, ImpossibleSequenceError,
                    encode_symbols)


@dataclass
class Trellis:
    """Scaled forward/backward tables for one (model, sequence) pair.

    pending holds the scans' operator and block products. With odometry
    and T > 1 the operator is the (T-1, N, N) step tensor: step[t], the
    operator of the transition t -> t+1, is A times the densities of the
    reading recorded on it. Otherwise it is the (N, N) matrix A. pending
    is None once posteriors has built xi in the step tensor's memory.
    emit[t] holds the per-state observation probabilities. beta runs the
    backward scan from pending on its first read.
    """

    alpha: np.ndarray          # (T, N), rows sum to 1
    scales: np.ndarray         # (T,) positive normalizers
    loglik: float
    emit: np.ndarray           # (T, N)
    pending: tuple | None      # (operator, block products) of the scans

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """(T, N) backward table, scaled with the alpha scales."""
        op, blocks = self.pending
        return _backward_scan(self.alpha, op, self.emit, blocks)


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


def emission_probs(model: GeoHmm, vectors, index) -> np.ndarray:
    """(U, N) per-state probabilities of the U symbol vectors of
    model.encode_symbols, B rows multiplied in dimension order. Negative
    and out-of-alphabet symbols are rejected, naming the first step of
    index that holds one, since callers may pass a raw array."""
    if vectors.shape[-1] != len(model.B):
        raise ValueError("observations of %d dimensions do not have the "
                         "model's %d" % (vectors.shape[-1], len(model.B)))
    bad = (vectors < 0) | (vectors >= np.array(model.obs_dims))
    if bad.any():
        *where, i = np.argwhere(bad[index])[0]
        raise ValueError("symbol %d out of alphabet on dimension %d at step "
                         "%d" % (vectors[index[tuple(where)], i], i, where[-1]))
    out = np.ones((len(vectors), model.n_states))
    for i, b in enumerate(model.B):
        out *= b[vectors[:, i]]
    return out


def relation_density_tensor(model: GeoHmm, e: ExperienceSequence,
                            out=None) -> np.ndarray:
    """(T-1, N, N) tensor of reading densities f(r_{t+1} | R[i,j]):
    exp(e.features @ model.relations.eta), written into out if given. Both
    factors are cached on their objects.
    """
    phi, n = e.features, model.n_states
    if out is None:
        out = np.empty((len(phi), n, n))
    np.matmul(phi, model.relations.eta.reshape(7, n * n),
              out=out.reshape(len(phi), n * n))
    return np.exp(out, out=out)


def _scaled_scan(first, op, emit):
    """The time-blocked recursion v_t = (v_{t-1} @ op_{t-1}) * emit[t] / c_t.

    v_0 = first (N,); c_t is the row's sum, so v_t sums to 1. emit is
    (T, N) and op either the (T-1, N, N) step operators op_t = op[t] or,
    when every step shares one, that (N, N) matrix op_t = op: a stage then
    multiplies all its blocks' rows by it in one (m N, N) @ (N, N)
    product instead of m batched ones. Returns v (T, N), c (T,) with
    c_0 = 1 (a sequence that dies shows a zero or non-finite c_t at its
    first failing step) and the block products (P, logr): P (nb, N, N)
    has unit row sums and block b's product of the operators M_t = op_t
    diag(emit[t+1]) over its steps is diag(exp(logr_b)) @ P_b.
    _backward_scan reuses them.
    """
    T, N = emit.shape
    v, c = np.empty(emit.shape), np.ones(T)
    v[0] = first
    if T == 1:
        return v, c, None
    L = round(math.sqrt(T - 1))
    nb = -(-(T - 1) // L)
    const = op.ndim == 2
    ones = np.ones(N)
    P = np.broadcast_to(np.eye(N), (nb, N, N)).copy()
    Q = np.empty_like(P)
    rows = P.reshape(-1, N)            # views: P and Q are only written
    qrows = Q.reshape(-1, N)           # in place
    E = np.zeros(len(rows), dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Block products as diag(2**E) @ P. A row is rescaled, by an exact
        # power of two, only once its sum leaves 2**±64, so most steps
        # skip that pass; at the end the rows are normalized once. The
        # last block may be short and drops out once it is done.
        for k in range(L):
            m = (T - 2 - k) // L + 1       # blocks that have a step k
            if const:
                np.matmul(rows[:m * N], op, out=qrows[:m * N])
            else:
                np.matmul(P[:m], op[k::L], out=Q[:m])
            np.multiply(Q[:m], emit[k + 1::L, None, :], out=P[:m])
            s = rows @ ones
            if (s.max(initial=0.0) > 2.0**64
                    or s.min(where=s > 0.0, initial=1.0) < 2.0**-64):
                e = np.maximum(np.frexp(s)[1], -1021)  # 2**-e stays finite
                E += e
                rows *= np.ldexp(1.0, -e)[:, None]
        s = rows @ ones
        logr = (E * math.log(2.0) + np.log(s)).reshape(nb, N)
        s[s == 0.0] = 1.0
        rows /= s[:, None]
        starts = np.empty((nb, N))
        starts[0] = first
        for b in range(nb - 1):
            lw = np.log(starts[b]) + logr[b]
            y = (np.exp(lw - lw.max())[None, :] @ P[b])[0]
            starts[b + 1] = y / y.sum()
        # Fill in every block's steps from its start, all blocks at once.
        cur = starts
        for k in range(L):
            m = (T - 2 - k) // L + 1
            if const:
                row = cur[:m] @ op
            else:
                row = (cur[:m, None, :] @ op[k::L])[:, 0, :]
            row *= emit[k + 1::L]
            ck = row.sum(axis=-1)
            cur = row / ck[:, None]
            v[k + 1::L] = cur
            c[k + 1::L] = ck
    return v, c, (P, logr)


def _backward_scan(alpha, op, emit, blocks):
    """beta_t = op_t @ (emit[t+1] * beta_{t+1}) from beta_{T-1} = 1, with
    op and the block products (P, logr) of the forward _scaled_scan.

    A log-domain recursion over block starts, log beta_{bL} = logr_b +
    log(P_b beta_end) less its maximum, then all blocks fill in their
    steps at once (u @ op.T for a shared (N, N) operator). Each row is
    divided by sum_i alpha_t(i) beta_t(i): beta_t scaled by the forward
    scales c_{t+1}..c_{T-1}, as in Rabiner's scaling, gives exactly 1
    there, so both scalings agree.
    """
    T, N = emit.shape
    beta = np.ones((T, N))
    if T == 1:
        return beta
    P, logr = blocks
    L = round(math.sqrt(T - 1))
    with np.errstate(divide="ignore"):
        for b in range(len(P) - 1, 0, -1):
            lw = logr[b] + np.log(P[b] @ beta[min((b + 1) * L, T - 1)])
            beta[b * L] = np.exp(lw - lw.max())
    # Block b - 1 reads beta[bL] at k = L - 1; block b overwrites it at k = 0.
    for k in range(L - 1, -1, -1):
        u = emit[k + 1::L] * beta[k + 1::L]
        if op.ndim == 2:
            u = u @ op.T
        else:
            u = (op[k::L] @ u[:, :, None])[:, :, 0]
        u /= (alpha[k:T - 1:L] * u).sum(axis=1, keepdims=True)
        beta[k:T - 1:L] = u
    return beta


def forward_backward(model: GeoHmm, e: ExperienceSequence,
                     use_odometry: bool = True,
                     density_floor: float | None = None,
                     out=None) -> Trellis:
    """Run the forward scan; raises ImpossibleSequenceError if some step
    has zero total probability. The backward scan waits for the first
    read of Trellis.beta.

    With use_odometry off, all reading densities are replaced by 1 and the
    recursion reduces to the plain observation-only HMM. With it on, the
    step operators are written into out, a (T-1, N, N) buffer, if given.
    """
    vectors, index = e.symbols
    emit = emission_probs(model, vectors, index)[index]
    op = model.A
    if use_odometry and len(e) > 1:
        op = relation_density_tensor(model, e, out)
        if density_floor is not None:
            np.maximum(op, density_floor, out=op)
        op *= model.A

    alpha, scales, blocks = _scaled_scan(
        np.eye(model.n_states)[model.start_state], op, emit)
    scales[0] = emit[0, model.start_state]
    bad = ~(np.isfinite(scales) & (scales > 0.0))
    if bad.any():
        raise ImpossibleSequenceError(int(np.argmax(bad)))
    return Trellis(alpha=alpha, scales=scales,
                   loglik=float(np.sum(np.log(scales))), emit=emit,
                   pending=(op, blocks))


def loglik(models, observations) -> np.ndarray:
    """(K, S) observation-only log-likelihoods of S equal-length symbol
    strings, observations (S, T, D), under each of K models; readings
    play no part.

    Rabiner's scaled forward recursion, one Python step per time step,
    over one (K, S, N) stack of rows, N the largest state count. A model
    with fewer states is zero-padded: a padded state has no transitions
    in or out and emits nothing, so it holds exactly zero mass. Each step
    is alpha @ A, times the emissions, then the row sum c_t into a (T, K,
    S) buffer and alpha / c_t; a row scores sum_t log c_t. A row that
    dies (some c_t zero or not finite) scores -inf and touches no other
    row. The strings are checked and encoded once (model.encode_symbols),
    and the emissions are one gather from the K models' (U, N) tables.
    Peak memory is that (T, K, S, N) float64 array (2.6 MB at K=2, S=10,
    T=1000, N=16) and a few (T, K, S) ones; no block products are formed.
    """
    models = list(models)
    obs = np.asarray(observations)
    if obs.ndim != 3 or obs.shape[1] < 1:
        raise ValueError("observations must be (S, T, D) with T >= 1, got "
                         "shape %r" % (obs.shape,))
    S, T, _ = obs.shape
    K, N = len(models), max((m.n_states for m in models), default=0)
    vectors, index = encode_symbols(obs)
    tables = np.zeros((K, len(vectors), N))
    A = np.zeros((K, N, N))
    alpha = np.zeros((K, S, N))
    scales = np.empty((T, K, S))
    for k, m in enumerate(models):
        tables[k, :, :m.n_states] = emission_probs(m, vectors, index)
        A[k, :m.n_states, :m.n_states] = m.A
        alpha[k, :, m.start_state] = 1.0
        scales[0, k] = tables[k, index[:, 0], m.start_state]
    # emit[t, k, s] = tables[k, index[s, t]]: one gather of table rows.
    emit = tables[np.arange(K)[:, None], index.T[:, None, :]]
    row, ones, col = np.empty_like(alpha), np.ones(N), scales[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(1, T):
            np.matmul(alpha, A, out=row)
            np.multiply(row, emit[t], out=row)
            np.matmul(row, ones, out=scales[t])
            np.divide(row, col[t], out=alpha)
        live = (np.isfinite(scales) & (scales > 0.0)).all(axis=0)
        return np.where(live, np.log(scales).sum(axis=0), -np.inf)


def posteriors(trellis: Trellis, model: GeoHmm, e: ExperienceSequence,
               phi=None) -> Posteriors:
    """Gamma and expected pair statistics from a trellis computed for the
    same inputs, with or without odometry as the trellis was; reads
    trellis.beta, which runs the backward scan.

    xi[t] = alpha[t, :, None] * step[t] * v[t] with v = (emit * beta /
    Z)[1:], and pair is one (7, T-1) @ (T-1, N*N) product of the reading
    features and xi. xi is built in the memory of the trellis's step
    tensor, which spends it: trellis.pending becomes None, and a second
    call raises ValueError. When the trellis's operator is A (without
    odometry, or T = 1), pair[k] = A * (U_k @ v) with U_k = alpha[:-1].T
    * w_k(r), formed one feature at a time from one contiguous (N, T-1)
    copy: no (T-1, N, N) or (T-1, 7, N) array is built, and the trellis
    is not spent. phi defaults to e.features, the (T-1, 7) reading
    features; without odometry it may hold only the leading F features,
    and pair then holds F sums.
    """
    T, N = len(e), model.n_states
    if trellis.alpha.shape != (T, N):
        raise ValueError("trellis does not match the given model/sequence")
    if trellis.pending is None:
        raise ValueError("trellis already spent: its step operators hold xi")
    if phi is None:
        phi = e.features
    beta = trellis.beta
    op = trellis.pending[0]

    gamma = trellis.alpha * beta
    mass = gamma.sum(axis=1)
    gamma /= mass[:, None]

    v = trellis.emit[1:] * beta[1:]
    v /= (trellis.scales[1:] * mass[1:])[:, None]                # (T-1, N)
    if op.ndim == 3:
        trellis.pending = None
        xi = np.multiply(trellis.alpha[:-1, :, None], op, out=op)
        xi *= v[:, None, :]
        pair = (phi.T @ xi.reshape(T - 1, N * N)).reshape(7, N, N)
        return Posteriors(gamma=gamma, pair=pair)
    a = np.ascontiguousarray(trellis.alpha[:-1].T)                # (N, T-1)
    u = np.empty_like(a)
    pair = np.empty((phi.shape[1], N, N))
    for k, w in enumerate(phi.T):
        np.matmul(np.multiply(a, w, out=u), v, out=pair[k])
    pair *= model.A
    return Posteriors(gamma=gamma, pair=pair)
