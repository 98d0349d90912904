"""M-step updates under geometric constraints, and the EM driver.

Transition and observation matrices are reestimated from expected counts
in the usual way. Relation parameters are reestimated under the
configured constraint level:

* unconstrained: independent per-direction weighted means/variances;
* anti-symmetric: each unordered pair is estimated jointly, with the
  new mean computed from both traversal directions using the previous
  iteration's variances (concentrations for the heading), after which
  variances are refit against the new mean. Updating the mean with
  lagged spread parameters makes every step an exact coordinate ascent
  on the expected complete-data log-likelihood, so the likelihood is
  nondecreasing (a generalized EM step);
* additive: per-state coordinates are estimated directly (weighted
  least-squares fits over every pair with posterior weight, first of
  the headings, then of x and y) and all pair means are read off the
  embedding, so additivity holds by construction.

Self-relations are pinned at zero mean and never reestimated. Pairs that
receive no posterior weight keep their previous parameters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .circstats import (KAPPA_MAX, bessel_ratio, resultant_to_kappa,
                        wrap_angle)
from .inference import Posteriors, forward_backward, posteriors
from .model import (VAR_FLOOR, ConstraintLevel, CoordinateMode,
                    ExperienceSequence, GeoHmm, RelationMatrix, _rotate_xy,
                    embed_relations)


# Fixed tuning of the EM loop: the relative loglik gain below which a run
# has converged, and the pseudo-observations at the previous parameters
# blended into every spread refit.
REL_TOL = 1e-6
SPREAD_DAMPING = 1.0
GEM_TOL = 1e-9  # relative drop of Q's relation term taken for rounding


@dataclass
class LearnConfig:
    """Knobs for the EM loop; defaults suit desk-scale experiments.

    constraint_level: update rule for the relations (none/antisym/additive).
    mode: coordinate convention; None inherits the initial model's.
    use_odometry: False runs plain Baum-Welch on the observations alone.
    max_iters: most M-steps a run takes.
    pseudocount: Dirichlet mass added per cell of the A and B updates; the
        run then ascends loglik plus the log prior (em_learn).
    density_floor: floor for reading densities in the E-step (None: none);
        it voids the EM inequality, so em_learn may stop on a falling step.
    """

    constraint_level: ConstraintLevel = ConstraintLevel.ANTISYMMETRIC
    mode: CoordinateMode | None = None
    use_odometry: bool = True
    max_iters: int = 200
    pseudocount: float = 0.0
    density_floor: float | None = None

    def __post_init__(self):
        # Messages start with the field name, which the CLI maps to its option.
        for name in ("pseudocount", "max_iters", "density_floor"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError("%s must be finite and >= 0, got %r"
                                 % (name, value))
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError("max_iters must be an integer, got %r"
                             % (self.max_iters,))


@dataclass
class LearnReport:
    """loglik_trace: em_learn's objective at the initial model and after
    every M-step taken. monotonicity_violations: (iteration, drop in Q)
    of every relation candidate that would have lowered Q, not taken."""

    iterations_run: int
    loglik_trace: list
    converged: bool
    monotonicity_violations: list = field(default_factory=list)


def update_transitions(post: Posteriors, prev_A: np.ndarray,
                       pseudocount: float = 0.0) -> np.ndarray:
    """Expected transitions out of i into j over expected visits to i.

    Rows that received no posterior weight keep the previous row. A
    positive pseudocount adds that much mass per cell before
    normalization (MAP smoothing; keeps rare transitions off exact 0).
    """
    num = post.pair[0] + pseudocount
    den = post.gamma[:-1].sum(axis=0)
    A = np.array(prev_A, dtype=float, copy=True)
    live = den > 0.0 if pseudocount == 0.0 else np.ones_like(den, dtype=bool)
    A[live] = num[live] / num[live].sum(axis=1, keepdims=True)
    return A


def update_observations(post: Posteriors, e: ExperienceSequence,
                        prev_B, pseudocount: float = 0.0) -> tuple:
    """Per-dimension expected symbol counts, column-normalized per state.

    A positive pseudocount is added per cell before normalization.
    """
    gamma = post.gamma
    den = gamma.sum(axis=0)
    live = den > 0.0 if pseudocount == 0.0 else np.ones_like(den, dtype=bool)
    out = []
    for i, b_prev in enumerate(prev_B):
        b = np.array(b_prev, dtype=float, copy=True)
        one_hot = np.arange(len(b))[:, None] == e.observations[:, i]
        counts = one_hot @ gamma + pseudocount
        b[:, live] = counts[:, live] / counts[:, live].sum(axis=0)
        out.append(b)
    return tuple(out)


PAIR_WEIGHT_TINY = 1e-12


def _lagged_theta_means(s0, ssin, scos, kappa_old, mu_old):
    """Anti-symmetric heading means with lagged concentrations.

    Solves the stationarity condition of the paired von Mises likelihood
    for mu[i,j] = -mu[j,i] with the previous concentrations as weights;
    the result is exactly anti-symmetric. Pairs without weight keep the
    old mean.
    """
    p = kappa_old * ssin
    q = kappa_old * scos
    num = p - p.T
    den = q + q.T
    mu = wrap_angle(np.arctan2(num, den))
    dataless = (s0 + s0.T) <= PAIR_WEIGHT_TINY
    mu = np.where(dataless, mu_old, mu)
    np.fill_diagonal(mu, 0.0)
    return mu


def _spread_updates(post: Posteriors, R_old, mu_x, mu_y, mu_theta):
    """Variances against the new means (normal dims) and concentrations
    against the new mean directions (heading), per direction.

    Directions with zero posterior weight keep the old parameters.
    SPREAD_DAMPING pseudo-observations drawn at the previous parameters
    are blended into each refit; the damped value lies between the old
    value and the conditional maximizer, so expected complete-data
    likelihood still ascends, while near-zero-weight pairs can no longer
    collapse onto razor-thin spreads.
    """
    s0, sx, sy, sxx, syy, ssin, scos = post.pair
    live = s0 > 0.0
    denom = s0 + SPREAD_DAMPING

    def fit_var(s1, s2, mu, old):
        # sum_t xi (r - mu)^2, expanded over the pair statistics
        num = s2 - 2.0 * mu * s1 + mu * mu * s0
        out = np.array(old, copy=True)
        out[live] = np.maximum(
            (num[live] + SPREAD_DAMPING * old[live]) / denom[live],
            VAR_FLOOR)
        return out

    var_x = fit_var(sx, sxx, mu_x, R_old.var_x)
    var_y = fit_var(sy, syy, mu_y, R_old.var_y)

    resultant = np.zeros_like(s0)
    resultant[live] = (np.cos(mu_theta[live]) * scos[live]
                       + np.sin(mu_theta[live]) * ssin[live]) / s0[live]
    old_resultant = bessel_ratio(R_old.kappa_theta)
    resultant[live] = ((s0[live] * resultant[live]
                        + SPREAD_DAMPING * old_resultant[live]) / denom[live])
    kappa = np.array(R_old.kappa_theta, copy=True)
    kappa[live] = np.minimum(
        resultant_to_kappa(np.clip(resultant[live], 0.0, 1.0)), KAPPA_MAX)
    # Diagonals are pinned, not reestimated.
    n = s0.shape[0]
    idx = np.arange(n)
    for out, old in ((var_x, R_old.var_x), (var_y, R_old.var_y),
                     (kappa, R_old.kappa_theta)):
        out[idx, idx] = old[idx, idx]
    return var_x, var_y, kappa


def update_relations_antisym(post: Posteriors, R_old: RelationMatrix,
                             mode: CoordinateMode) -> RelationMatrix:
    """One lag-behind anti-symmetric reestimation of the relation matrix.

    Means are computed from both traversal directions with the previous
    variances (heading: previous concentrations) as weights; variances
    and concentrations are then refit against the new means. Pairs with
    no posterior weight in either direction keep their old entries.

    The x, y means of a pair i < j are tied by mu[j, i] = -G mu[i, j],
    G = R(mu_theta[j, i]) in relative mode and I in global mode, so
    m = mu[i, j] solves (wf Df + wb G'DbG) m = Df sf - G'Db sb: pair
    weights w, reading sums s and lagged inverse variances D of the
    forward and backward directions.
    """
    s0, sx, sy, _, _, ssin, scos = post.pair
    mu_theta = _lagged_theta_means(s0, ssin, scos, R_old.kappa_theta,
                                   R_old.mu_theta)

    i, j = np.triu_indices(R_old.n_states, 1)
    live = (s0[i, j] + s0[j, i]) > PAIR_WEIGHT_TINY
    i, j = i[live], j[live]
    wf, wb = s0[i, j], s0[j, i]
    fx, fy = 1.0 / R_old.var_x[i, j], 1.0 / R_old.var_y[i, j]
    bx, by = 1.0 / R_old.var_x[j, i], 1.0 / R_old.var_y[j, i]
    turn = mu_theta[j, i]
    # (c, s) is G's first column; G'DbG = [[p, q], [q, r]] in closed form.
    c, s = _rotate_xy(turn, 1.0, 0.0, mode)
    p = wf * fx + wb * (bx * c * c + by * s * s)
    q = wb * (by - bx) * c * s
    r = wf * fy + wb * (bx * s * s + by * c * c)
    gx, gy = _rotate_xy(-turn, bx * sx[j, i], by * sy[j, i], mode)
    u = fx * sx[i, j] - gx
    v = fy * sy[i, j] - gy
    # Elimination on the symmetric positive definite system; in global
    # mode q = 0 and it gives exactly m = (u / p, v / r).
    ell = q / p
    m_y = (v - ell * u) / (r - ell * q)
    m_x = (u - q * m_y) / p
    back_x, back_y = _rotate_xy(turn, m_x, m_y, mode)

    mu_x, mu_y = R_old.mu_x.copy(), R_old.mu_y.copy()
    mu_x[i, j], mu_y[i, j] = m_x, m_y
    mu_x[j, i], mu_y[j, i] = -back_x, -back_y
    var_x, var_y, kappa = _spread_updates(post, R_old, mu_x, mu_y, mu_theta)
    return RelationMatrix(mu_x, mu_y, mu_theta, var_x, var_y, kappa)


def update_relations_unconstrained(post: Posteriors,
                                   R_old: RelationMatrix) -> RelationMatrix:
    """Independent per-direction reestimation (diagonal still pinned)."""
    s0, sx, sy, _, _, ssin, scos = post.pair
    live = s0 > 0.0
    mu_x = np.where(live, np.divide(sx, s0, out=np.zeros_like(sx),
                                    where=live), R_old.mu_x)
    mu_y = np.where(live, np.divide(sy, s0, out=np.zeros_like(sy),
                                    where=live), R_old.mu_y)
    mu_theta = np.where(live, np.arctan2(ssin, scos), R_old.mu_theta)
    for m in (mu_x, mu_y, mu_theta):
        np.fill_diagonal(m, 0.0)
    var_x, var_y, kappa = _spread_updates(post, R_old, mu_x, mu_y, mu_theta)
    return RelationMatrix(mu_x, mu_y, mu_theta, var_x, var_y, kappa)


def solve_positions(targets, n: int) -> np.ndarray:
    """Weighted least-squares embedding of difference constraints.

    targets is a (K, 4) array-like of rows (i, j, value, weight) meaning
    value ~ x[j] - x[i] with the given nonnegative weight. Solved per
    connected component of the constraint graph, with the lowest-index
    node of each component (so node 0 in its own) fixed at exactly 0.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    t = np.asarray(targets, dtype=float).reshape(-1, 4)
    if (t[:, 3] < 0).any():
        raise ValueError("weights must be nonnegative")
    if ((t[:, :2] < 0) | (t[:, :2] >= n)).any():
        raise ValueError("target index out of range")
    if (t[:, :2] % 1 != 0).any():
        raise ValueError("target indices must be integers")
    t = t[(t[:, 3] != 0) & (t[:, 0] != t[:, 1])]
    i, j = t[:, 0].astype(int), t[:, 1].astype(int)
    # Interleaved (i, j) per target: bincount then adds every entry's
    # terms in target order.
    ends, w2 = np.column_stack([i, j]).ravel(), np.repeat(t[:, 3], 2)
    lap = -np.bincount(ends * n + np.column_stack([j, i]).ravel(), w2,
                       n * n).reshape(n, n)
    lap[np.diag_indices(n)] += np.bincount(ends, w2, n)
    wv = t[:, 3] * t[:, 2]
    rhs = np.bincount(ends, np.column_stack([-wv, wv]).ravel(), n)

    # Paths of length up to 2**k after k squarings; a node's first
    # reachable node is the lowest index of its component.
    reach = np.eye(n, dtype=bool)
    reach[i, j] = reach[j, i] = True
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    root = reach.argmax(axis=1)

    x = np.zeros(n)
    for r in np.unique(root):
        free = np.flatnonzero(root == r)[1:]
        if free.size:
            x[free] = np.linalg.solve(lap[np.ix_(free, free)], rhs[free])
    return x


def project_headings(raw_mu_theta, weights) -> np.ndarray:
    """Map pairwise heading estimates onto an additive assignment.

    Every pair with positive combined weight w[i, j] + w[j, i] is one
    target of a weighted least-squares fit of per-state headings, its raw
    angle unwrapped to the branch nearest a reference embedding: a
    spanning-forest walk of the raw estimates, heaviest pairs first. On a
    cycle the misclosure is shared in inverse proportion to the pair
    weights.

    Returns the wrapped per-state headings theta, with theta[0] = 0.
    """
    raw = np.asarray(raw_mu_theta, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = raw.shape[0]
    pair_w = w + w.T

    # Pairs in (-weight, i, j) order, which fixes solve_positions' sums.
    i, j = np.triu_indices(n, 1)
    live = pair_w[i, j] > 0
    order = np.argsort(-pair_w[i, j][live], kind="stable")
    i, j = i[live][order], j[live][order]

    # Kruskal by relabeling: a pair that joins two trees shifts every
    # state of b's tree so that ref[b] - ref[a] = raw[a, b], and gives
    # them a's label.
    label, ref = list(range(n)), [0.0] * n
    for a, b in zip(i.tolist(), j.tolist()):
        if label[a] != label[b]:
            old, shift = label[b], ref[a] + raw[a, b] - ref[b]
            for k in range(n):
                if label[k] == old:
                    label[k], ref[k] = label[a], ref[k] + shift
    ref = np.array(ref)

    pred = ref[j] - ref[i]
    theta = solve_positions(np.column_stack(
        [i, j, pred + wrap_angle(raw[i, j] - pred), pair_w[i, j]]), n)
    return wrap_angle(theta)


def embed_positions(dx, dy, weight_x, weight_y, theta,
                    mode: CoordinateMode) -> tuple:
    """Per-state (x, y) from weighted pair displacements.

    dx[i, j], dy[i, j] estimate the displacement from state i to state j;
    in relative mode they are in state i's frame and are first rotated
    into the global frame by the per-state headings theta. Every
    off-diagonal pair with positive weight is one least-squares target
    of solve_positions, with state 0 at the origin.
    """
    dx, dy = _rotate_xy(np.asarray(theta)[:, None], dx, dy, mode)
    n = len(theta)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    x = solve_positions(np.column_stack([i, j, dx[i, j], weight_x[i, j]]), n)
    y = solve_positions(np.column_stack([i, j, dy[i, j], weight_y[i, j]]), n)
    return x, y


def update_relations_additive(post: Posteriors, R_old: RelationMatrix,
                              mode: CoordinateMode) -> RelationMatrix:
    """Fully additive reestimation via per-state coordinates.

    Headings: lag-behind anti-symmetric estimates projected onto an
    additive assignment (every pair weighted by its expected transition
    count). Positions: per-pair weighted mean readings, rotated to the
    global frame first in relative mode, fed to the least-squares
    embedding with information weights from the lagged variances. All
    pair means are then differences of coordinates, hence exactly
    additive.
    """
    s0, sx, sy, _, _, ssin, scos = post.pair
    raw_theta = _lagged_theta_means(s0, ssin, scos, R_old.kappa_theta,
                                    R_old.mu_theta)
    theta = project_headings(raw_theta, s0)

    live = s0 > 0.0
    vbar_x = np.divide(sx, s0, out=np.zeros_like(sx), where=live)
    vbar_y = np.divide(sy, s0, out=np.zeros_like(sy), where=live)
    pos_x, pos_y = embed_positions(
        vbar_x, vbar_y, np.where(live, s0 / R_old.var_x, 0.0),
        np.where(live, s0 / R_old.var_y, 0.0), theta, mode)

    mu_x, mu_y, mu_theta = embed_relations(pos_x, pos_y, theta, mode)

    var_x, var_y, kappa = _spread_updates(post, R_old, mu_x, mu_y, mu_theta)
    return RelationMatrix(mu_x, mu_y, mu_theta, var_x, var_y, kappa)


def em_learn(e: ExperienceSequence, initial: GeoHmm,
             cfg: LearnConfig) -> tuple:
    """Generalized-EM loop: one E-step and one M-step per iteration.

    The objective, which loglik_trace records, is loglik + pc * (sum log
    A + sum log B), pc = cfg.pseudocount: the loglik plus the log
    Dirichlet prior (up to a constant) of the smoothed A and B updates;
    -inf for a model with a zero cell when pc > 0. A run stops when it
    gains less than REL_TOL relative, or after cfg.max_iters M-steps.

    A and B updates are exact maximizers. A relation candidate that lowers
    Q's relation term <post.pair, R.eta> by more than GEM_TOL of its
    magnitude is not taken: R is kept and (iteration, drop) goes into
    monotonicity_violations. So Q, and by the EM inequality the objective,
    cannot fall by more than that. A step that lowers it anyway (rounding, or
    a density_floor, whose clipping voids the inequality) is not taken and
    ends the run: the trace never falls, at one forward_backward call per
    iteration plus one for the initial model and one for a refused last step.
    One iteration depends only on the current model, so max_iters=1 calls,
    each from the last call's model, take the steps of one longer run.

    Three savings per iteration change no bit of the tables. The E-steps
    share e.symbols, the encoded observations, and with the guard
    e.features and each relation table's eta, all cached on their objects,
    as do restarts that share them. Every E-step writes its step operators
    into one (T-1, N, N) buffer, in which posteriors then builds xi: a
    learn keeps about one step tensor alive instead of two or three, and
    its pages are faulted in once per run, not twice per iteration. And
    the backward scan runs only when posteriors reads Trellis.beta, so the
    E-step after the last M-step, or of a refused or converged candidate,
    costs the forward scan alone.
    """
    mode = cfg.mode or initial.mode
    if mode is not initial.mode:
        raise ValueError("config mode %s conflicts with model mode %s"
                         % (mode, initial.mode))
    odometry = cfg.use_odometry
    # Without odometry the M-step reads only gamma and pair[0], the
    # expected transition counts, which weigh the constant feature alone.
    phi = None if odometry else np.ones((len(e) - 1, 1))
    n = initial.n_states
    steps = np.empty((len(e) - 1, n, n)) if odometry else None

    def e_step(m):
        trellis = forward_backward(m, e, odometry, cfg.density_floor,
                                   out=steps)
        if not cfg.pseudocount:
            return trellis, trellis.loglik
        with np.errstate(divide="ignore"):
            log_prior = sum(np.log(p).sum() for p in (m.A,) + m.B)
        return trellis, trellis.loglik + cfg.pseudocount * float(log_prior)

    model = initial
    trellis, value = e_step(model)
    trace = [value]
    violations = []
    converged = False

    for it in range(1, cfg.max_iters + 1):
        post = posteriors(trellis, model, e, phi)
        relations = R = model.relations
        if odometry:
            if cfg.constraint_level is ConstraintLevel.UNCONSTRAINED:
                relations = update_relations_unconstrained(post, R)
            elif cfg.constraint_level is ConstraintLevel.ANTISYMMETRIC:
                relations = update_relations_antisym(post, R, mode)
            else:
                relations = update_relations_additive(post, R, mode)
            q_old = float(np.vdot(post.pair, R.eta))
            drop = q_old - float(np.vdot(post.pair, relations.eta))
            if drop > GEM_TOL * abs(q_old):
                violations.append((it, drop))
                relations = R
        candidate = model.replace(
            A=update_transitions(post, model.A, cfg.pseudocount),
            B=update_observations(post, e, model.B, cfg.pseudocount),
            relations=relations)
        trellis, value = e_step(candidate)
        previous = trace[-1]
        if value < previous:
            converged = True
            break
        model = candidate
        trace.append(value)
        if value - previous < REL_TOL * abs(previous):
            converged = True
            break

    report = LearnReport(iterations_run=len(trace) - 1, loglik_trace=trace,
                         converged=converged,
                         monotonicity_violations=violations)
    return model, report
