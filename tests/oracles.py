"""Independent brute-force oracles shared across test modules.

These deliberately avoid the library's recursion code paths: joint
densities are accumulated by explicit enumeration over all hidden state
paths, and component densities are written out longhand.
"""

import itertools

import numpy as np

from geohmm.circstats import KAPPA_MAX, TWO_PI, wrap_angle
from geohmm.model import (ConsistencyReport, ConsistencyViolation,
                          ConstraintLevel, CoordinateMode, ExperienceSequence,
                          GeoHmm, RelationMatrix, transform_point)


def normal_pdf(x, mu, var):
    return np.exp(-0.5 * (x - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)


def vm_pdf(theta, mu, kappa):
    from scipy.special import i0
    return np.exp(kappa * np.cos(theta - mu)) / (2 * np.pi * i0(kappa))


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
    return GeoHmm(n_states=n, obs_dims=tuple(obs_dims), A=A, B=B,
                  start_state=int(rng.integers(n)), relations=rel, mode=mode)


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
    observations = np.zeros((length, model.n_obs_dims), dtype=int)
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
                bx, by = transform_point(mu_t[i, j], (mu_x[j, i], mu_y[j, i]))
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
                    bx, by = transform_point(mu_t[i, j],
                                             (mu_x[j, k], mu_y[j, k]))
                    xy_res = np.hypot(mu_x[i, j] + bx - mu_x[i, k],
                                      mu_y[i, j] + by - mu_y[i, k])
                    record("additivity", "xy", (i, j, k), xy_res)
                else:
                    record("additivity", "x", (i, j, k),
                           abs(mu_x[i, j] + mu_x[j, k] - mu_x[i, k]))
                    record("additivity", "y", (i, j, k),
                           abs(mu_y[i, j] + mu_y[j, k] - mu_y[i, k]))
    return rep
