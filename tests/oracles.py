"""Independent brute-force oracles shared across test modules.

These deliberately avoid the library's recursion code paths: joint
densities are accumulated by explicit enumeration over all hidden state
paths, and component densities are written out longhand.
"""

import itertools

import numpy as np

from geohmm.circstats import KAPPA_MAX, TWO_PI, wrap_angle
from geohmm.inference import (Posteriors, Trellis, emission_probs,
                              pair_statistics, relation_density_tensor)
from geohmm.initialization import (ZERO_BUCKET, Bucket, BucketConfig,
                                   TaggingResult)
from geohmm.model import (ConsistencyReport, ConsistencyViolation,
                          ConstraintLevel, CoordinateMode, ExperienceSequence,
                          GeoHmm, ImpossibleSequenceError, RelationMatrix,
                          transform_point)


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


def reference_loglik(model: GeoHmm, seqs) -> np.ndarray:
    """loglik as one Python step per time step over an (S, N) alpha
    block; a rejected row is zeroed, scores -inf and leaves the other
    rows alone."""
    emit = np.stack([emission_probs(model, e) for e in seqs])   # (S, T, N)
    S, T, N = emit.shape
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
    emit * beta, each slab divided by its own sum."""
    ab = trellis.alpha * trellis.beta
    gamma = ab / ab.sum(axis=1, keepdims=True)
    emit_beta = trellis.emit[1:] * trellis.beta[1:]
    xi = trellis.alpha[:-1, :, None] * trellis.step * emit_beta[:, None, :]
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return Posteriors(gamma=gamma, pair=pair_statistics(xi, e.readings))


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


def within(reading, mean, radius) -> bool:
    """Whether a reading lies within radius of mean on every dimension,
    theta wrapped."""
    d = reading - mean
    d[2] = wrap_angle(d[2])
    return bool(np.all(np.abs(d) <= radius))


def bucket_add(bucket: Bucket, index: int, reading):
    """Add reading `index` to a bucket with per-reading numpy arithmetic:
    running x/y means, and a theta mean from the summed sines and cosines
    (bucket 0 keeps its zero mean)."""
    bucket.members.append(index)
    k = len(bucket.members)
    if bucket.id == ZERO_BUCKET:
        return
    bucket.mean[0] += (reading[0] - bucket.mean[0]) / k
    bucket.mean[1] += (reading[1] - bucket.mean[1]) / k
    bucket._sin += np.sin(reading[2])
    bucket._cos += np.cos(reading[2])
    bucket.mean[2] = np.arctan2(bucket._sin, bucket._cos)


def reference_bucketize(readings, cfg: BucketConfig) -> tuple:
    """bucketize with a numpy deviation block per reading.

    Single-pass clustering of readings by per-dimension proximity.

    A reading joins the first existing bucket whose running mean lies
    within bucket_factor * sigma on every dimension (theta wrapped),
    updating that mean; otherwise it opens a new bucket. Returns
    (buckets, assignment) with assignment[t] the bucket id of reading t.
    """
    readings = np.asarray(readings, dtype=float).reshape(-1, 3)
    radius = cfg.bucket_factor * cfg.sigmas
    buckets = [Bucket(id=ZERO_BUCKET, mean=np.zeros(3))]
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
            bucket_add(buckets[hit], t, reading)
            means[hit] = buckets[hit].mean
            assignment[t] = hit
        else:
            bucket = Bucket(id=n_buckets, mean=reading.copy())
            bucket.members.append(t)
            bucket._sin = float(np.sin(reading[2]))
            bucket._cos = float(np.cos(reading[2]))
            buckets.append(bucket)
            means[n_buckets] = reading
            assignment[t] = n_buckets
            n_buckets += 1
    return buckets, assignment


def pair_mean(coords, i, j, mode) -> np.ndarray:
    """Mean relation (dx, dy, dtheta) of states i -> j at the given
    per-state coordinates, one pair at a time."""
    dx = coords[j, 0] - coords[i, 0]
    dy = coords[j, 1] - coords[i, 1]
    dtheta = wrap_angle(coords[j, 2] - coords[i, 2])
    if mode is CoordinateMode.RELATIVE:
        c, s = np.cos(-coords[i, 2]), np.sin(-coords[i, 2])
        dx, dy = dx * c - dy * s, dx * s + dy * c
    return np.array([dx, dy, dtheta])


def reference_tag_states(readings, buckets, assignment, n_max: int,
                         cfg: BucketConfig,
                         mode: CoordinateMode = CoordinateMode.GLOBAL
                         ) -> TaggingResult:
    """tag_states with a full deviation row for every reading.

    Walk the reading sequence from state 0, assigning destination states.

    Order of resolution per reading: (1) follow an entry in the current
    row already associated with the reading's bucket; (2) follow the
    closest populated entry in the current row within tag_factor * sigma
    on every dimension; (3) allocate the next unused state at the bucket
    mean, which closes the relation table under anti-symmetry and
    additivity through the per-state coordinates; (4) with no states
    left, follow the nearest populated entry outright.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    readings = np.asarray(readings, dtype=float).reshape(-1, 3)
    radius = cfg.tag_factor * cfg.sigmas
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

    means = {}
    for i in range(n_used):
        for j in range(n_used):
            means[(i, j)] = pair_mean(coords, i, j, mode)
    return TaggingResult(state_sequence=np.asarray(sequence, dtype=int),
                         coordinates=coords[:n_used].copy(), n_used=n_used,
                         relation_means=means, bucket_assoc=assoc,
                         pair_buckets=pair_buckets)
