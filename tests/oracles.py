"""Independent brute-force oracles shared across test modules.

These deliberately avoid the library's recursion code paths: joint
densities are accumulated by explicit enumeration over all hidden state
paths, and component densities are written out longhand.
"""

import itertools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from geohmm.circstats import KAPPA_MAX, TWO_PI, wrap_angle
from geohmm.evalkl import _check_alphabets
from geohmm.inference import (Posteriors, Trellis, loglik,
                              relation_density_tensor)
from geohmm.initialization import (BUCKET_FACTOR, TAG_FACTOR, ZERO_BUCKET,
                                   Bucket, BucketConfig, TaggingResult)
from geohmm.model import (VAR_FLOOR, ConsistencyReport, ConsistencyViolation,
                          ConstraintLevel, CoordinateMode, ExperienceSequence,
                          GeoHmm, ImpossibleSequenceError, RelationMatrix,
                          _rotate_xy)

# Spread of the diagonal (self-transition) entries of zero_relations:
# zero mean, small but non-degenerate spread.
DIAG_VAR = 1e-2
DIAG_KAPPA = 50.0


def zero_relations(n: int, var: float = 1.0,
                   kappa: float = 1.0) -> RelationMatrix:
    """All-zero means with uniform off-diagonal spread parameters."""
    zeros = np.zeros((n, n))
    var_m = np.full((n, n), float(var))
    kap_m = np.full((n, n), float(kappa))
    np.fill_diagonal(var_m, DIAG_VAR)
    np.fill_diagonal(kap_m, DIAG_KAPPA)
    return RelationMatrix(zeros.copy(), zeros.copy(), zeros.copy(),
                          var_m.copy(), var_m.copy(), kap_m)


def with_entries(R: RelationMatrix, **cells) -> RelationMatrix:
    """A new relation table: R's arrays with some entries replaced. Each
    keyword names an array and maps (i, j) to the entry's new value; the
    new table runs the constructor's checks."""
    arrays = {f.name: getattr(R, f.name).copy()
              for f in fields(RelationMatrix)}
    for name, entries in cells.items():
        for (i, j), value in entries.items():
            arrays[name][i, j] = value
    return RelationMatrix(**arrays)


def pair_statistics(xi: np.ndarray, readings: np.ndarray) -> np.ndarray:
    """(7, N, N) xi-weighted sums over t of 1, dx, dy, dx^2, dy^2,
    sin(dtheta) and cos(dtheta), the order of Posteriors.pair.

    xi is (T-1, N, N) and readings (T-1, 3); the sums are one
    (7, T-1) @ (T-1, N*N) product.
    """
    n = xi.shape[1]
    dx, dy, dtheta = np.asarray(readings, dtype=float).T
    features = np.stack([np.ones_like(dx), dx, dy, dx * dx, dy * dy,
                         np.sin(dtheta), np.cos(dtheta)])
    return (features @ xi.reshape(len(xi), n * n)).reshape(7, n, n)


def normal_pdf(x, mu, var):
    return np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)


def vm_pdf(theta, mu, kappa):
    from scipy.special import i0
    return np.exp(kappa * np.cos(theta - mu)) / (2 * np.pi * i0(kappa))


EXACT_TERM_GUARD = 10_000_000


def obs_prob(model: GeoHmm, state: int, v) -> float:
    """Probability of observation vector v in the given state."""
    v = np.asarray(v, dtype=int)
    if v.shape != (len(model.obs_dims),):
        raise ValueError("observation vector must have length %d"
                         % len(model.obs_dims))
    out = 1.0
    for i, b in enumerate(model.B):
        if not 0 <= v[i] < model.obs_dims[i]:
            raise ValueError("symbol %d out of alphabet on dimension %d"
                             % (v[i], i))
        out *= b[v[i], state]
    return float(out)


def reference_emissions(model: GeoHmm, observations) -> np.ndarray:
    """(..., N) per-state probabilities of symbol vectors (..., D), one
    gather of B per dimension, multiplied longhand in dimension order."""
    obs = np.asarray(observations)
    emit = np.ones(obs.shape[:-1] + (model.n_states,))
    for i, b in enumerate(model.B):
        emit *= b[obs[..., i]]
    return emit


def path_density(model: GeoHmm, e: ExperienceSequence, path,
                 use_odometry: bool) -> float:
    """Joint density of one hidden path with the observations/readings."""
    R = model.relations
    if path[0] != model.start_state:
        return 0.0
    dens = 1.0
    for i, b in enumerate(model.B):
        dens *= b[e.observations[0, i], path[0]]
    for t in range(1, len(e)):
        prev, cur = path[t - 1], path[t]
        dens *= model.A[prev, cur]
        for i, b in enumerate(model.B):
            dens *= b[e.observations[t, i], cur]
        if use_odometry:
            dx, dy, dt = e.readings[t - 1]
            dens *= normal_pdf(dx, R.mu_x[prev, cur], R.var_x[prev, cur])
            dens *= normal_pdf(dy, R.mu_y[prev, cur], R.var_y[prev, cur])
            dens *= vm_pdf(dt, R.mu_theta[prev, cur],
                           R.kappa_theta[prev, cur])
    return float(dens)


def brute_force_posteriors(model: GeoHmm, e: ExperienceSequence,
                           use_odometry: bool):
    """(loglik, gamma, xi) by enumerating every hidden state path."""
    T, N = len(e), model.n_states
    gamma = np.zeros((T, N))
    xi = np.zeros((max(T - 1, 0), N, N))
    total = 0.0
    for path in itertools.product(range(N), repeat=T):
        dens = path_density(model, e, path, use_odometry)
        if dens == 0.0:
            continue
        total += dens
        for t, s in enumerate(path):
            gamma[t, s] += dens
        for t in range(T - 1):
            xi[t, path[t], path[t + 1]] += dens
    if total <= 0:
        raise ZeroDivisionError("sequence impossible under model")
    return float(np.log(total)), gamma / total, xi / total


@dataclass(frozen=True)
class RelationEntry:
    """Displacement distribution parameters for one ordered state pair."""

    mu_x: float
    mu_y: float
    mu_theta: float
    var_x: float
    var_y: float
    kappa_theta: float


def relation_entry(R: RelationMatrix, i: int, j: int) -> RelationEntry:
    """Entry (i, j) of a relation matrix as Python floats."""
    return RelationEntry(
        float(R.mu_x[i, j]), float(R.mu_y[i, j]), float(R.mu_theta[i, j]),
        float(R.var_x[i, j]), float(R.var_y[i, j]),
        float(R.kappa_theta[i, j]))


def relation_density(reading, entry: RelationEntry) -> float:
    """Joint density of a (dx, dy, dtheta) reading for one relation entry,
    written out: normal dx and dy, von Mises dtheta, independent. I0 is
    i0e(kappa) e^kappa, so no factor overflows."""
    from scipy.special import i0e
    dx, dy, dtheta = (float(v) for v in reading)
    e = entry
    log_f = (-0.5 * ((dx - e.mu_x) ** 2 / e.var_x
                     + math.log(TWO_PI * e.var_x))
             - 0.5 * ((dy - e.mu_y) ** 2 / e.var_y
                      + math.log(TWO_PI * e.var_y))
             + e.kappa_theta * (math.cos(dtheta - e.mu_theta) - 1.0)
             - math.log(TWO_PI * float(i0e(e.kappa_theta))))
    return math.exp(log_f)


def model_density(reading, entry: RelationEntry) -> float:
    """The model's density of one (dx, dy, dtheta) reading under one entry,
    through relation_density_tensor: the entry sits at (0, 1) of a
    two-state table."""
    R = with_entries(zero_relations(2), **{
        name: {(0, 1): value} for name, value in asdict(entry).items()})
    model = GeoHmm(A=np.full((2, 2), 0.5), B=(np.ones((1, 2)),), start_state=0,
                   relations=R)
    e = ExperienceSequence(np.zeros((2, 1), dtype=int), [reading])
    return float(relation_density_tensor(model, e)[0, 0, 1])


def heading_density(theta, mu, kappa) -> float:
    """The model's reading density at (0, 0, theta) under an entry with zero
    mean displacement and variances 1/(2 pi). Both normal factors are 1
    there, so this is the von Mises density of theta that learning, sampling
    and scoring use."""
    var = 1.0 / TWO_PI
    return model_density((0.0, 0.0, theta),
                         RelationEntry(0.0, 0.0, mu, var, var, kappa))


def constrained_two_normal_mle(P, Q):
    """ML estimate of (mu, var_P, var_Q) for two normal samples whose
    means are constrained to be negatives of each other.

    Profiling the variances out of the joint likelihood leaves a cubic
    stationarity condition in mu; the real root with the highest profile
    likelihood is returned. Exactly consistent constant samples collapse
    to zero variance: multi-point ones return floored variances, anything
    else degenerate raises ValueError.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.size < 1 or Q.size < 1:
        raise ValueError("both samples must be non-empty")
    n, k = P.size, Q.size
    p_bar, q_bar = P.mean(), Q.mean()
    vp, vq = P.var(), Q.var()

    if vp == 0.0 and vq == 0.0:
        if q_bar == -p_bar and not (n == 1 and k == 1):
            return float(p_bar), VAR_FLOOR, VAR_FLOOR
        raise ValueError("degenerate zero-variance samples")
    if vp == 0.0 or vq == 0.0:
        raise ValueError("degenerate zero-variance sample")

    # n (p_bar - mu) (vq + (q_bar + mu)^2) = k (q_bar + mu) (vp + (p_bar - mu)^2)
    left = n * np.polymul([-1.0, p_bar], [1.0, 2.0 * q_bar, q_bar ** 2 + vq])
    right = k * np.polymul([1.0, q_bar], [1.0, -2.0 * p_bar, p_bar ** 2 + vp])
    roots = np.roots(np.polysub(left, right))
    real = roots[np.abs(roots.imag) < 1e-9].real
    if real.size == 0:
        raise ValueError("no real stationary point found")

    def profile_loglik(mu):
        sp2 = vp + (p_bar - mu) ** 2
        sq2 = vq + (q_bar + mu) ** 2
        return -0.5 * (n * np.log(sp2) + k * np.log(sq2))

    best = real[np.argmax([profile_loglik(m) for m in real])]
    sp2 = vp + (p_bar - best) ** 2
    sq2 = vq + (q_bar + best) ** 2
    return float(best), float(max(sp2, VAR_FLOOR)), float(max(sq2, VAR_FLOOR))


def reference_relation_log_density(readings, R: RelationMatrix) -> np.ndarray:
    """(T-1, N, N) log densities of readings (T-1, 3), each component's
    term written out elementwise: normal in dx and dy, von Mises in
    dtheta with kappa clipped to [0, KAPPA_MAX]."""
    from scipy.special import i0e
    rd = np.asarray(readings, dtype=float)[:, :, None, None]
    kappa = np.clip(R.kappa_theta, 0.0, KAPPA_MAX)
    logf = -0.5 * ((rd[:, 0] - R.mu_x) ** 2 / R.var_x
                   + np.log(2.0 * np.pi * R.var_x))
    logf += -0.5 * ((rd[:, 1] - R.mu_y) ** 2 / R.var_y
                    + np.log(2.0 * np.pi * R.var_y))
    logf += (kappa * np.cos(rd[:, 2] - R.mu_theta) - np.log(2.0 * np.pi)
             - (kappa + np.log(i0e(kappa))))
    return logf


def reference_relation_density_tensor(model: GeoHmm,
                                      e: ExperienceSequence) -> np.ndarray:
    """relation_density_tensor from the elementwise log densities."""
    return np.exp(reference_relation_log_density(e.readings, model.relations))


def reference_forward_backward(model: GeoHmm, e: ExperienceSequence,
                               use_odometry: bool = True,
                               density_floor: float | None = None) -> Trellis:
    """forward_backward as one Python step per time step (Rabiner's
    scaling): alpha rows normalized at every step, beta scaled with the
    alpha scales. Raises ImpossibleSequenceError at the first step whose
    scale is zero or non-finite."""
    T, N = len(e), model.n_states
    emit = reference_emissions(model, e.observations)
    op = model.A
    if use_odometry and T > 1:
        op = relation_density_tensor(model, e)
        if density_floor is not None:
            np.maximum(op, density_floor, out=op)
        op *= model.A
    step = np.broadcast_to(op, (T - 1, N, N))

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

    trellis = Trellis(alpha=alpha, scales=scales,
                      loglik=float(np.sum(np.log(scales))), emit=emit,
                      pending=(op, None))
    trellis.beta = beta
    return trellis


def reference_loglik(model: GeoHmm, observations) -> np.ndarray:
    """loglik of one model on (S, T, D) symbol strings as one Python step
    per time step over an (S, N) alpha block, emissions multiplied out
    longhand; a rejected row is zeroed, scores -inf and leaves the other
    rows alone."""
    obs = np.asarray(observations)
    S, T, _ = obs.shape
    emit = reference_emissions(model, obs)
    alpha = np.zeros((S, model.n_states))
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


def kl_exact_small(true_model: GeoHmm, learned: GeoHmm, horizon: int) -> float:
    """Exhaustive per-symbol KL over all observation strings of the given
    horizon, scored in one loglik call. Refuses instances beyond the
    enumeration guard."""
    _check_alphabets(true_model, learned)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    n_vectors = int(np.prod(true_model.obs_dims))
    terms = (n_vectors * true_model.n_states) ** horizon
    if terms > EXACT_TERM_GUARD:
        raise ValueError("instance too large for exact enumeration "
                         "(%d terms > %d)" % (terms, EXACT_TERM_GUARD))

    symbol_space = list(itertools.product(
        *[range(size) for size in true_model.obs_dims]))
    strings = np.array(list(itertools.product(symbol_space, repeat=horizon)),
                       dtype=int).reshape(-1, horizon, len(true_model.B))
    lp_true, lp_learned = loglik([true_model, learned], strings)
    possible = lp_true > -math.inf
    lp_true, lp_learned = lp_true[possible], lp_learned[possible]
    if np.any(lp_learned == -math.inf):
        return math.inf
    return float(np.sum(np.exp(lp_true) * (lp_true - lp_learned))) / horizon


def reference_pair_statistics(xi, readings):
    """(7, N, N) sums over t of xi[t] times 1, dx, dy, dx^2, dy^2,
    sin(dtheta) and cos(dtheta) of reading t, one term at a time."""
    xi = np.asarray(xi, dtype=float)
    n = xi.shape[1]
    out = np.zeros((7, n, n))
    for t in range(xi.shape[0]):
        dx, dy, dtheta = readings[t]
        weights = (1.0, dx, dy, dx * dx, dy * dy, np.sin(dtheta),
                   np.cos(dtheta))
        for k, w in enumerate(weights):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] += xi[t, i, j] * w
    return out


def reference_posteriors(trellis: Trellis, model: GeoHmm,
                         e: ExperienceSequence) -> Posteriors:
    """posteriors through an explicit (T-1, N, N) xi: alpha * step *
    emit * beta, each slab divided by its own sum; step is the trellis's
    operator, broadcast to T-1 steps when it is A."""
    ab = trellis.alpha * trellis.beta
    gamma = ab / ab.sum(axis=1, keepdims=True)
    emit_beta = trellis.emit[1:] * trellis.beta[1:]
    T, N = ab.shape
    step = np.broadcast_to(trellis.pending[0], (T - 1, N, N))
    xi = trellis.alpha[:-1, :, None] * step * emit_beta[:, None, :]
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=gamma, pair=pair_statistics(xi, e.readings))


def reference_solve_positions(targets, n: int) -> np.ndarray:
    """solve_positions with one Python step per target: the Laplacian and
    right-hand side accumulated entry by entry, components labeled by
    relabeling j's whole component with i's label at every target."""
    if n <= 0:
        raise ValueError("n must be positive")
    lap = np.zeros((n, n))
    rhs = np.zeros(n)
    label = list(range(n))
    for i, j, value, weight in targets:
        i, j = int(i), int(j)
        if weight < 0:
            raise ValueError("weights must be nonnegative")
        if weight == 0 or i == j:
            continue
        lap[i, i] += weight
        lap[j, j] += weight
        lap[i, j] -= weight
        lap[j, i] -= weight
        rhs[j] += weight * value
        rhs[i] -= weight * value
        old = label[j]
        label = [label[i] if lab == old else lab for lab in label]

    components = {}
    for node in range(n):
        components.setdefault(label[node], []).append(node)

    x = np.zeros(n)
    for members in components.values():
        free = members[1:]  # members ascend: the lowest index is pinned
        if not free:
            continue
        sub = lap[np.ix_(free, free)]
        x[free] = np.linalg.solve(sub, rhs[free])
    return x


def reference_update_observations(gamma, observations, prev_B,
                                  pseudocount: float = 0.0) -> tuple:
    """update_observations with the symbol counts scattered by np.add.at,
    one time step at a time."""
    den = gamma.sum(axis=0)
    live = den > 0.0 if pseudocount == 0.0 else np.ones_like(den, dtype=bool)
    out = []
    for i, b_prev in enumerate(prev_B):
        counts = np.full_like(np.asarray(b_prev, dtype=float), pseudocount)
        np.add.at(counts, observations[:, i], gamma)
        b = np.array(b_prev, dtype=float, copy=True)
        b[:, live] = counts[:, live] / counts[:, live].sum(axis=0)
        out.append(b)
    return tuple(out)


def reference_antisym_means(post: Posteriors, R_old: RelationMatrix,
                             mu_theta, mode: CoordinateMode) -> tuple:
    """x, y means of update_relations_antisym, one np.linalg.solve per pair.

    For each pair i < j with weight in some direction, the backward mean
    is tied to the forward one by mu[j, i] = -G mu[i, j], with
    G = R(mu_theta[j, i]) in relative mode and G = I in global mode; the
    forward mean solves the weighted normal equations of both directions
    with the lagged variances. Dataless pairs keep their old means.
    """
    s0, sx, sy = post.pair[0], post.pair[1], post.pair[2]
    n = R_old.n_states
    mu_x = R_old.mu_x.copy()
    mu_y = R_old.mu_y.copy()
    for i in range(n):
        for j in range(i + 1, n):
            wf, wb = s0[i, j], s0[j, i]
            if wf + wb <= 1e-12:
                continue
            if mode is CoordinateMode.RELATIVE:
                c, s = np.cos(mu_theta[j, i]), np.sin(mu_theta[j, i])
                G = np.array([[c, -s], [s, c]])
            else:
                G = np.eye(2)
            Df = np.diag(1.0 / np.array([R_old.var_x[i, j],
                                         R_old.var_y[i, j]]))
            Db = np.diag(1.0 / np.array([R_old.var_x[j, i],
                                         R_old.var_y[j, i]]))
            lhs = wf * Df + wb * G.T @ Db @ G
            rhs = (Df @ np.array([sx[i, j], sy[i, j]])
                   - G.T @ Db @ np.array([sx[j, i], sy[j, i]]))
            m = np.linalg.solve(lhs, rhs)
            mu_x[i, j], mu_y[i, j] = m
            mu_x[j, i], mu_y[j, i] = -G @ m
    return mu_x, mu_y


def path_count_model(true_model: GeoHmm, path, observations,
                     pseudocount: float) -> GeoHmm:
    """Maximum-likelihood model of a sequence whose hidden path is known.

    A and B are counted along the path (transitions path[t] -> path[t+1];
    symbol observations[t, i] emitted by path[t]), pseudocount is added
    per cell, and rows/columns are normalized. A state with no counts and
    no pseudocount keeps its row/column of the true model. Everything
    else (start state, relations, mode) is the true model's.
    """
    path = np.asarray(path, dtype=int)
    observations = np.asarray(observations, dtype=int)
    n = true_model.n_states
    counts = np.full((n, n), float(pseudocount))
    np.add.at(counts, (path[:-1], path[1:]), 1.0)
    live = counts.sum(axis=1) > 0
    A = np.array(true_model.A, dtype=float, copy=True)
    A[live] = counts[live] / counts[live].sum(axis=1, keepdims=True)
    B = []
    for i, b_true in enumerate(true_model.B):
        counts = np.full(b_true.shape, float(pseudocount))
        np.add.at(counts, (observations[:, i], path), 1.0)
        live = counts.sum(axis=0) > 0
        b = np.array(b_true, dtype=float, copy=True)
        b[:, live] = counts[:, live] / counts[:, live].sum(axis=0)
        B.append(b)
    return true_model.replace(A=A, B=tuple(B))


def random_geohmm(n, rng, obs_dims=(3,), mode=CoordinateMode.GLOBAL,
                  consistent=False):
    """Random valid model; relation means need not be consistent."""
    A = rng.dirichlet(np.ones(n), size=n)
    B = tuple(rng.dirichlet(np.ones(k), size=n).T for k in obs_dims)
    if consistent:
        from geohmm.model import embed_relations
        x, y = rng.normal(size=n), rng.normal(size=n)
        theta = rng.uniform(-np.pi, np.pi, size=n)
        x[0] = y[0] = theta[0] = 0.0
        mu_x, mu_y, mu_t = embed_relations(x, y, theta, mode)
    else:
        mu_x = rng.normal(size=(n, n))
        mu_y = rng.normal(size=(n, n))
        mu_t = rng.uniform(-np.pi, np.pi, size=(n, n))
        for m in (mu_x, mu_y, mu_t):
            np.fill_diagonal(m, 0.0)
    var_x = rng.uniform(0.2, 2.0, size=(n, n))
    var_y = rng.uniform(0.2, 2.0, size=(n, n))
    kappa = rng.uniform(0.0, 5.0, size=(n, n))
    rel = RelationMatrix(mu_x, mu_y, mu_t, var_x, var_y, kappa)
    return GeoHmm(A=A, B=B, start_state=int(rng.integers(n)), relations=rel,
                  mode=mode)


def tiny_emission_model(rng, n=3, dims=15, symbols=1000):
    """Random n-state model over dims near-uniform alphabets of the given
    size: every symbol vector has probability about symbols**-dims (1e-45
    by default) from every state."""
    A = rng.dirichlet(np.ones(n), size=n)
    B = tuple(rng.dirichlet(np.full(symbols, 50.0), size=n).T
              for _ in range(dims))
    return GeoHmm(A=A, B=B, start_state=0, relations=zero_relations(n))


def random_experience(model, T, rng):
    obs = np.stack([rng.integers(0, k, size=T) for k in model.obs_dims],
                   axis=1)
    readings = np.column_stack([
        rng.normal(0.0, 1.5, size=T - 1),
        rng.normal(0.0, 1.5, size=T - 1),
        rng.uniform(-np.pi, np.pi, size=T - 1),
    ]) if T > 1 else np.zeros((0, 3))
    return ExperienceSequence(observations=obs, readings=readings)


def reference_sample_path(model: GeoHmm, length: int, rng):
    """Per-step `rng.choice` rollout, written longhand.

    Draw order: each observation dimension of the start state, then per
    step the successor state, dx, dy, dtheta and the observation
    dimensions. Returns (states, observations, readings).
    """
    R = model.relations
    states = np.zeros(length, dtype=int)
    states[0] = model.start_state
    observations = np.zeros((length, len(model.obs_dims)), dtype=int)
    readings = np.zeros((length - 1, 3))
    for i, b in enumerate(model.B):
        observations[0, i] = rng.choice(b.shape[0], p=b[:, states[0]])
    for t in range(1, length):
        prev = states[t - 1]
        nxt = int(rng.choice(model.n_states, p=model.A[prev]))
        states[t] = nxt
        readings[t - 1, 0] = rng.normal(R.mu_x[prev, nxt],
                                        np.sqrt(R.var_x[prev, nxt]))
        readings[t - 1, 1] = rng.normal(R.mu_y[prev, nxt],
                                        np.sqrt(R.var_y[prev, nxt]))
        kappa = min(max(R.kappa_theta[prev, nxt], 0.0), KAPPA_MAX)
        theta = float(rng.vonmises(R.mu_theta[prev, nxt], kappa)) % TWO_PI
        readings[t - 1, 2] = theta - TWO_PI if theta > np.pi else theta
        for i, b in enumerate(model.B):
            observations[t, i] = rng.choice(b.shape[0], p=b[:, nxt])
    return states, observations, readings


def reference_sample_observations(model: GeoHmm, length: int, n: int, rng):
    """sample_observations one step at a time: the same two uniform blocks,
    (n, length - 1) for the transitions, then (n, length, D) for the
    symbols, each uniform spent on one `Generator.choice`-style inverse
    CDF (cumsum, divide by the total, searchsorted right)."""
    def inverse_cdf(p, u):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return int(np.searchsorted(cdf, u, side="right"))

    u_trans = rng.random((n, length - 1))
    u_obs = rng.random((n, length, len(model.obs_dims)))
    out = np.zeros((n, length, len(model.obs_dims)), dtype=int)
    for k in range(n):
        state = model.start_state
        for t in range(length):
            if t:
                state = inverse_cdf(model.A[state], u_trans[k, t - 1])
            for i, b in enumerate(model.B):
                out[k, t, i] = inverse_cdf(b[:, state], u_obs[k, t, i])
    return out


def reference_check_consistency(model: GeoHmm, level: ConstraintLevel,
                                tol: float = 1e-9) -> ConsistencyReport:
    """check_consistency as explicit loops over index pairs and triples.

    In relative mode a frame-j vector is carried into frame i by rotating
    it through mu_theta[i, j].
    """
    rep = ConsistencyReport(level=level, tol=tol)
    R = model.relations
    n = model.n_states

    def record(kind, component, indices, mag):
        if mag > tol:
            rep.violations.append(
                ConsistencyViolation(kind, component, indices, float(mag)))

    for comp, arr in (("x", R.mu_x), ("y", R.mu_y), ("theta", R.mu_theta)):
        for i in range(n):
            record("diagonal", comp, (i,), abs(arr[i, i]))
    if level is ConstraintLevel.UNCONSTRAINED:
        return rep

    relative = model.mode is CoordinateMode.RELATIVE
    mu_x, mu_y, mu_t = R.mu_x, R.mu_y, R.mu_theta

    for i in range(n):
        for j in range(i + 1, n):
            t_res = abs(wrap_angle(mu_t[i, j] + mu_t[j, i]))
            record("antisymmetry", "theta", (i, j), t_res)
            if relative:
                bx, by = _rotate_xy(mu_t[i, j], mu_x[j, i], mu_y[j, i],
                                    model.mode)
                xy_res = np.hypot(mu_x[i, j] + bx, mu_y[i, j] + by)
                record("antisymmetry", "xy", (i, j), xy_res)
            else:
                record("antisymmetry", "x", (i, j), abs(mu_x[i, j] + mu_x[j, i]))
                record("antisymmetry", "y", (i, j), abs(mu_y[i, j] + mu_y[j, i]))

    if level is ConstraintLevel.ANTISYMMETRIC:
        return rep

    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                t_res = abs(wrap_angle(mu_t[i, j] + mu_t[j, k] - mu_t[i, k]))
                record("additivity", "theta", (i, j, k), t_res)
                if relative:
                    bx, by = _rotate_xy(mu_t[i, j], mu_x[j, k], mu_y[j, k],
                                        model.mode)
                    xy_res = np.hypot(mu_x[i, j] + bx - mu_x[i, k],
                                      mu_y[i, j] + by - mu_y[i, k])
                    record("additivity", "xy", (i, j, k), xy_res)
                else:
                    record("additivity", "x", (i, j, k),
                           abs(mu_x[i, j] + mu_x[j, k] - mu_x[i, k]))
                    record("additivity", "y", (i, j, k),
                           abs(mu_y[i, j] + mu_y[j, k] - mu_y[i, k]))
    return rep


def within(reading, mean, radius) -> bool:
    """Whether a reading lies within radius of mean on every dimension,
    theta wrapped."""
    d = reading - mean
    d[2] = wrap_angle(d[2])
    return bool(np.all(np.abs(d) <= radius))


def bucket_add(bucket: Bucket, sums, index: int, reading):
    """Add reading `index` to a bucket with per-reading numpy arithmetic:
    running x/y means, and a theta mean from the summed sines and cosines,
    sums = [sum sin, sum cos] of the bucket's headings, updated in place
    (None for bucket 0, which keeps its zero mean)."""
    bucket.members.append(index)
    k = len(bucket.members)
    if sums is None:
        return
    bucket.mean[0] += (reading[0] - bucket.mean[0]) / k
    bucket.mean[1] += (reading[1] - bucket.mean[1]) / k
    sums[0] += np.sin(reading[2])
    sums[1] += np.cos(reading[2])
    bucket.mean[2] = np.arctan2(sums[0], sums[1])


def reference_bucketize(readings, cfg: BucketConfig) -> tuple:
    """bucketize with a numpy deviation block per reading.

    Single-pass clustering of readings by per-dimension proximity.

    A reading joins the first existing bucket whose running mean lies
    within BUCKET_FACTOR * sigma on every dimension (theta wrapped),
    updating that mean; otherwise it opens a new bucket. Returns
    (buckets, assignment) with assignment[t] the bucket id of reading t.
    """
    readings = np.asarray(readings, dtype=float).reshape(-1, 3)
    radius = BUCKET_FACTOR * cfg.sigmas
    buckets = [Bucket(mean=np.zeros(3))]
    sums = [None]                       # per bucket, as bucket_add takes
    cap = len(readings) + 1
    means = np.zeros((cap, 3))          # row b mirrors buckets[b].mean
    n_buckets = 1
    assignment = np.zeros(len(readings), dtype=int)
    for t, reading in enumerate(readings):
        dev = reading - means[:n_buckets]
        dev[:, 2] = wrap_angle(dev[:, 2])
        inside = np.all(np.abs(dev) <= radius, axis=1)
        hit = int(np.argmax(inside)) if inside.any() else -1
        if hit >= 0:
            bucket_add(buckets[hit], sums[hit], t, reading)
            means[hit] = buckets[hit].mean
            assignment[t] = hit
        else:
            buckets.append(Bucket(mean=reading.copy(), members=[t]))
            sums.append([float(np.sin(reading[2])), float(np.cos(reading[2]))])
            means[n_buckets] = reading
            assignment[t] = n_buckets
            n_buckets += 1
    return buckets, assignment


def reference_tag_states(readings, buckets, assignment, n_max: int,
                         cfg: BucketConfig,
                         mode: CoordinateMode = CoordinateMode.GLOBAL
                         ) -> TaggingResult:
    """tag_states with a full deviation row for every reading.

    Walk the reading sequence from state 0, assigning destination states.

    Order of resolution per reading: (1) follow an entry in the current
    row already associated with the reading's bucket; (2) follow the
    closest populated entry in the current row within TAG_FACTOR * sigma
    on every dimension; (3) allocate the next unused state at the bucket
    mean, which closes the relation table under anti-symmetry and
    additivity through the per-state coordinates; (4) with no states
    left, follow the nearest populated entry outright.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    readings = np.asarray(readings, dtype=float).reshape(-1, 3)
    radius = TAG_FACTOR * cfg.sigmas
    sigmas = cfg.sigmas

    coords = np.zeros((n_max, 3))
    n_used = 1
    current = 0
    sequence = [0]
    assoc: dict = {}
    pair_buckets: dict = {}

    row_cache: dict = {}

    def row_means():
        """Populated relation means of the current row, shape (n_used, 3).
        Cached per state; allocation of a new state invalidates the cache."""
        cached = row_cache.get(current)
        if cached is not None:
            return cached
        dx = coords[:n_used, 0] - coords[current, 0]
        dy = coords[:n_used, 1] - coords[current, 1]
        if mode is CoordinateMode.RELATIVE:
            c, s = np.cos(-coords[current, 2]), np.sin(-coords[current, 2])
            dx, dy = dx * c - dy * s, dx * s + dy * c
        dtheta = wrap_angle(coords[:n_used, 2] - coords[current, 2])
        means = np.column_stack([dx, dy, dtheta])
        row_cache[current] = means
        return means

    def associate(bucket_id, i, j):
        if bucket_id == ZERO_BUCKET or i == j:
            return
        assoc.setdefault(bucket_id, set()).add((i, j))
        pair_buckets.setdefault((i, j), bucket_id)

    for t, reading in enumerate(readings):
        bucket_id = int(assignment[t])
        dev = reading - row_means()
        dev[:, 2] = wrap_angle(dev[:, 2])
        dist = np.sqrt(((dev / sigmas) ** 2).sum(axis=1))
        nxt = None
        if bucket_id != ZERO_BUCKET:
            linked = [j for (i, j) in assoc.get(bucket_id, ()) if i == current]
            if linked:
                nxt = min(linked, key=lambda j: (dist[j], j))
        if nxt is None:
            inside = np.all(np.abs(dev) <= radius, axis=1)
            if inside.any():
                masked = np.where(inside, dist, np.inf)
                nxt = int(masked.argmin())
                associate(bucket_id, current, nxt)
        if nxt is None and n_used < n_max:
            nxt = n_used
            n_used += 1
            mean = np.asarray(buckets[bucket_id].mean, dtype=float)
            if mode is CoordinateMode.RELATIVE:
                c, s = np.cos(coords[current, 2]), np.sin(coords[current, 2])
                step = np.array([mean[0] * c - mean[1] * s,
                                 mean[0] * s + mean[1] * c, mean[2]])
            else:
                step = mean
            coords[nxt, 0] = coords[current, 0] + step[0]
            coords[nxt, 1] = coords[current, 1] + step[1]
            coords[nxt, 2] = wrap_angle(coords[current, 2] + step[2])
            row_cache.clear()
            associate(bucket_id, current, nxt)
        if nxt is None:
            nxt = int(dist.argmin())
            associate(bucket_id, current, nxt)
        sequence.append(nxt)
        current = nxt

    return TaggingResult(state_sequence=np.asarray(sequence, dtype=int),
                         coordinates=coords[:n_used].copy(),
                         pair_buckets=pair_buckets)
