"""Initial-model heuristics driven by the recorded odometric relations.

The readings are first clustered into buckets by per-dimension proximity
(single sequential pass), then the sequence is walked from the start
state, tagging each reading with an origin/destination state pair while
per-state coordinates are grown so that the populated relation table is
closed under anti-symmetry and additivity by construction. Transition
and observation counts along the tagged sequence give the initial A and
B. Everything here is deterministic.

Also provides seeded random models and an A/B perturbation for restart
schemes; those are deliberately untuned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circstats import (TWO_PI, mean_resultant_length, resultant_to_kappa,
                        wrap_angle)
from .model import (CoordinateMode, ExperienceSequence, GeoHmm,
                    RelationMatrix, _rotate_xy, embed_relations)

SMOOTHING = 0.05

# Bucketing and tagging acceptance radii, in sigmas.
BUCKET_FACTOR = 1.5
TAG_FACTOR = 2.0

# Bucket id 0 is reserved for the zero self-transition relation; its mean
# stays pinned at (0, 0, 0).
ZERO_BUCKET = 0


@dataclass
class BucketConfig:
    """Predetermined per-dimension deviations (radians for theta)."""

    sigma_x: float
    sigma_y: float
    sigma_theta: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError("%s must be finite and > 0, got %r"
                                 % (name, value))

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([self.sigma_x, self.sigma_y, self.sigma_theta])


@dataclass
class Bucket:
    mean: np.ndarray                    # (x, y, theta); theta circular
    members: list = field(default_factory=list)


@dataclass
class TaggingResult:
    state_sequence: np.ndarray          # (T,) state indices
    coordinates: np.ndarray             # (states used, 3) embedding
    pair_buckets: dict                  # (i, j) -> bucket id that populated it


def bucketize(readings, cfg: BucketConfig) -> tuple:
    """Single-pass clustering of readings by per-dimension proximity.

    A reading joins the first existing bucket whose running mean lies
    within BUCKET_FACTOR * sigma on every dimension (theta wrapped),
    updating that mean; otherwise it opens a new bucket. A bucket's x and
    y means are running averages; its theta mean is the direction of the
    summed unit vectors (a one-member bucket keeps its reading). Returns
    (buckets, assignment) with assignment[t] the bucket id of reading t.
    """
    readings = np.asarray(readings, dtype=float).reshape(-1, 3)
    rx, ry, rtheta = (BUCKET_FACTOR * cfg.sigmas).tolist()
    sines = np.sin(readings[:, 2]).tolist()
    cosines = np.cos(readings[:, 2]).tolist()
    # Per bucket: [x, y, theta, sum sin, sum cos]. Running theta means use
    # math.atan2, which can differ from numpy's arctan2 in the last bits,
    # so a test that falls within 1e-12 of the radius is redone with
    # numpy's value; the final means come from numpy.
    stats = [[0.0, 0.0, 0.0, 0.0, 0.0]]
    members = [[]]
    assignment = np.zeros(len(readings), dtype=int)
    for t, (x, y, theta) in enumerate(readings.tolist()):
        hit = -1
        for b, (mx, my, mtheta, s, c) in enumerate(stats):
            if abs(x - mx) <= rx and abs(y - my) <= ry:
                d = (theta - mtheta) % TWO_PI
                gap = abs(d - TWO_PI if d > math.pi else d) - rtheta
                if (abs(gap) <= 1e-12 * (1.0 + abs(theta)) and b != ZERO_BUCKET
                        and len(members[b]) > 1):
                    d = (theta - float(np.arctan2(s, c))) % TWO_PI
                    gap = abs(d - TWO_PI if d > math.pi else d) - rtheta
                if gap <= 0.0:
                    hit = b
                    break
        if hit < 0:
            hit = len(stats)
            stats.append([x, y, theta, sines[t], cosines[t]])
            members.append([t])
        else:
            members[hit].append(t)
            if hit != ZERO_BUCKET:
                k = len(members[hit])
                st = stats[hit]
                st[0] += (x - st[0]) / k
                st[1] += (y - st[1]) / k
                st[3] += sines[t]
                st[4] += cosines[t]
                st[2] = math.atan2(st[3], st[4])
        assignment[t] = hit
    means = np.array(stats)
    grown = [b for b in range(1, len(stats)) if len(members[b]) > 1]
    means[grown, 2] = np.arctan2(means[grown, 3], means[grown, 4])
    buckets = [Bucket(mean=means[b, :3].copy(), members=members[b])
               for b in range(len(stats))]
    return buckets, assignment


def tag_states(readings, buckets, assignment, n_max: int, cfg: BucketConfig,
               mode: CoordinateMode = CoordinateMode.GLOBAL) -> TaggingResult:
    """Walk the reading sequence from state 0, assigning destination states.

    Order of resolution per reading: (1) follow the entry of the current
    row already associated with the reading's bucket (steps 2-4 run only
    without one, so each bucket links a row to one entry); (2) follow the
    closest populated entry in the current row within TAG_FACTOR * sigma
    on every dimension; (3) allocate the next unused state at the bucket
    mean, which closes the relation table under anti-symmetry and
    additivity through the per-state coordinates; (4) with no states
    left, follow the nearest populated entry outright.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    readings = np.asarray(readings, dtype=float).reshape(-1, 3)
    rx, ry, rtheta = (TAG_FACTOR * cfg.sigmas).tolist()
    sx, sy, stheta = cfg.sigmas.tolist()

    coords = np.zeros((n_max, 3))
    n_used = 1
    current = 0
    sequence = [0]
    links: dict = {}                    # (bucket id, i) -> j
    pair_buckets: dict = {}

    row_cache: dict = {}

    def row_means():
        """Populated relation means (dx, dy, dtheta) of the current row.
        Cached per state; allocation of a new state invalidates the cache."""
        cached = row_cache.get(current)
        if cached is None:
            mx, my, mtheta = embed_relations(coords[:n_used, 0],
                                             coords[:n_used, 1],
                                             coords[:n_used, 2], mode)
            cached = list(zip(mx[current].tolist(), my[current].tolist(),
                              mtheta[current].tolist()))
            row_cache[current] = cached
        return cached

    def associate(bucket_id, i, j):
        if bucket_id == ZERO_BUCKET or i == j:
            return
        links[(bucket_id, i)] = j
        pair_buckets.setdefault((i, j), bucket_id)

    for (x, y, theta), bucket_id in zip(readings.tolist(), assignment.tolist()):
        nxt = links.get((bucket_id, current))
        if nxt is not None:
            sequence.append(nxt)
            current = nxt
            continue
        # Nearest entry in sigma units, among those within the radius on
        # every dimension (first of equals), and among all of them.
        inside = nearest = None
        best_inside = best = math.inf
        for j, (mx, my, mtheta) in enumerate(row_means()):
            ex, ey = x - mx, y - my
            d = (theta - mtheta) % TWO_PI
            et = d - TWO_PI if d > math.pi else d
            qx, qy, qt = ex / sx, ey / sy, et / stheta
            dist = math.sqrt(qx * qx + qy * qy + qt * qt)
            if dist < best:
                nearest, best = j, dist
            if (dist < best_inside and abs(ex) <= rx and abs(ey) <= ry
                    and abs(et) <= rtheta):
                inside, best_inside = j, dist
        if inside is not None:
            nxt = inside
        elif n_used < n_max:
            nxt = n_used
            n_used += 1
            dx, dy, dtheta = np.asarray(buckets[bucket_id].mean, dtype=float)
            dx, dy = _rotate_xy(coords[current, 2], dx, dy, mode)
            coords[nxt, 0] = coords[current, 0] + dx
            coords[nxt, 1] = coords[current, 1] + dy
            coords[nxt, 2] = wrap_angle(coords[current, 2] + dtheta)
            row_cache.clear()
        else:
            nxt = nearest
        associate(bucket_id, current, nxt)
        sequence.append(nxt)
        current = nxt

    return TaggingResult(state_sequence=np.asarray(sequence, dtype=int),
                         coordinates=coords[:n_used].copy(),
                         pair_buckets=pair_buckets)


def init_model(e: ExperienceSequence, n: int, cfg: BucketConfig,
               mode: CoordinateMode = CoordinateMode.GLOBAL) -> GeoHmm:
    """Initial model from bucketing + state tagging + counting.

    Transition and observation counts along the tagged state sequence are
    smoothed by a small additive constant so no probability is exactly
    zero; the alphabets are e.obs_dims. Relation means come from the
    tagging embedding (unused states sit at the origin); spreads come
    from per-bucket sample statistics, floored at the configured sigmas,
    with wide defaults for pairs that no bucket supports.
    """
    if len(e) < 2:
        raise ValueError("need at least two steps to initialize")
    buckets, assignment = bucketize(e.readings, cfg)
    tags = tag_states(e.readings, buckets, assignment, n, cfg, mode)
    seq = tags.state_sequence

    A = np.full((n, n), SMOOTHING)
    np.add.at(A, (seq[:-1], seq[1:]), 1.0)
    A /= A.sum(axis=1, keepdims=True)

    B = []
    for i, size in enumerate(e.obs_dims):
        counts = np.full((size, n), SMOOTHING)
        np.add.at(counts, (e.observations[:, i], seq), 1.0)
        B.append(counts / counts.sum(axis=0, keepdims=True))

    coords = np.zeros((n, 3))
    coords[:len(tags.coordinates)] = tags.coordinates
    mu_x, mu_y, mu_theta = embed_relations(coords[:, 0], coords[:, 1],
                                           coords[:, 2], mode)

    sx2, sy2, st2 = cfg.sigma_x ** 2, cfg.sigma_y ** 2, cfg.sigma_theta ** 2
    kappa_prior = min(1.0 / st2, 1e3)
    wide = 25.0
    var_x = np.full((n, n), wide * sx2)
    var_y = np.full((n, n), wide * sy2)
    kappa = np.full((n, n), min(0.5, kappa_prior))
    # Spreads of each bucket that populated a pair, computed once.
    used = sorted(set(tags.pair_buckets.values()))
    members = [e.readings[buckets[b].members] for b in used]
    kappas = np.minimum(resultant_to_kappa(np.array(
        [mean_resultant_length(vals[:, 2]) for vals in members])),
        kappa_prior)
    spreads = {b: (max(float(vals[:, 0].var()), sx2),
                   max(float(vals[:, 1].var()), sy2), float(k))
               for b, vals, k in zip(used, members, kappas)}
    for (i, j), bucket_id in tags.pair_buckets.items():
        var_x[i, j], var_y[i, j], kappa[i, j] = spreads[bucket_id]
        var_x[j, i], var_y[j, i], kappa[j, i] = spreads[bucket_id]
    np.fill_diagonal(var_x, sx2)
    np.fill_diagonal(var_y, sy2)
    np.fill_diagonal(kappa, kappa_prior)

    relations = RelationMatrix(mu_x, mu_y, mu_theta, var_x, var_y, kappa)
    return GeoHmm(A=A, B=tuple(B), start_state=int(seq[0]),
                  relations=relations, mode=mode)


def random_model(n: int, obs_dims, rng: np.random.Generator,
                 mode: CoordinateMode = CoordinateMode.GLOBAL) -> GeoHmm:
    """Uniform-plus-jitter random model (the classic restart baseline):
    standard normal positions, uniform headings, unit variances."""
    A = rng.dirichlet(np.ones(n), size=n)
    B = tuple(rng.dirichlet(np.ones(size), size=n).T for size in obs_dims)
    x = rng.normal(0.0, 1.0, size=n)
    y = rng.normal(0.0, 1.0, size=n)
    theta = rng.uniform(-np.pi, np.pi, size=n)
    x[0] = y[0] = theta[0] = 0.0
    mu_x, mu_y, mu_theta = embed_relations(x, y, theta, mode)
    relations = RelationMatrix(mu_x, mu_y, mu_theta, np.ones((n, n)),
                               np.ones((n, n)), np.full((n, n), 0.5))
    return GeoHmm(A=A, B=B, start_state=0, relations=relations, mode=mode)


def perturb_model(model: GeoHmm, rng: np.random.Generator,
                  scale: float = 0.1) -> GeoHmm:
    """Jitter A and B for a restart; keep the model's geometry.

    A's rows, then each B's columns, are scaled by exp(scale * normal)
    and renormalized. The relations are shared, not copied: a
    RelationMatrix is read-only, so no learn can change the base model's.
    """
    A = model.A * np.exp(rng.normal(0.0, scale, size=model.A.shape))
    A /= A.sum(axis=1, keepdims=True)
    B = []
    for b in model.B:
        jittered = b * np.exp(rng.normal(0.0, scale, size=b.shape))
        B.append(jittered / jittered.sum(axis=0, keepdims=True))
    return model.replace(A=A, B=tuple(B))
