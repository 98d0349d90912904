"""Model containers, coordinate transforms, and geometric consistency.

A model couples an ordinary discrete HMM (transition matrix A, factored
observation matrices B, fixed start state) with a relation matrix R that
holds, for every ordered state pair, the mean and variance of the metric
displacement (dx, dy) and the mean direction and concentration of the
heading change (dtheta) recorded when traversing that pair.

Mean relations are required to be geometrically consistent. In a global
frame this means zero diagonal, anti-symmetry, and additivity of the mean
vectors. In state-relative frames each state i carries its own frame and
the x,y constraints pick up the rotation that carries one frame into
another; the heading component obeys the plain (wrapped) identities in
both modes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .circstats import (KAPPA_MAX, LOG_TWO_PI, TWO_PI, log_bessel_i0,
                        wrap_angle)

VAR_FLOOR = 1e-6

# Spread of the diagonal (self-transition) entries of RelationMatrix.zero:
# zero mean, small but non-degenerate spread.
DIAG_VAR = 1e-2
DIAG_KAPPA = 50.0

STOCHASTIC_TOL = 1e-9


class GeoHmmError(Exception):
    """Base class for library errors."""


class ModelFormatError(GeoHmmError):
    """Raised when a model or experience file cannot be parsed."""


class ImpossibleSequenceError(GeoHmmError):
    """Raised when a sequence has zero probability/density under a model."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or
                         "sequence impossible under model at step %d" % step)


class CoordinateMode(enum.Enum):
    GLOBAL = "global"
    RELATIVE = "relative"


class ConstraintLevel(enum.Enum):
    UNCONSTRAINED = "none"
    ANTISYMMETRIC = "antisym"
    ADDITIVE = "additive"


class RelationMatrix:
    """N x N table of relation parameters, stored as six dense arrays."""

    __slots__ = ("mu_x", "mu_y", "mu_theta", "var_x", "var_y", "kappa_theta")

    def __init__(self, mu_x, mu_y, mu_theta, var_x, var_y, kappa_theta):
        arrays = [np.asarray(a, dtype=float) for a in
                  (mu_x, mu_y, mu_theta, var_x, var_y, kappa_theta)]
        n = arrays[0].shape[0]
        for a in arrays:
            if a.shape != (n, n):
                raise ValueError("relation arrays must all be (N, N)")
        self.mu_x, self.mu_y, self.mu_theta = arrays[0], arrays[1], arrays[2]
        self.var_x, self.var_y, self.kappa_theta = arrays[3], arrays[4], arrays[5]

    @property
    def n_states(self) -> int:
        return self.mu_x.shape[0]

    @classmethod
    def zero(cls, n: int, var: float = 1.0,
             kappa: float = 1.0) -> "RelationMatrix":
        """All-zero means with uniform off-diagonal spread parameters."""
        zeros = np.zeros((n, n))
        var_m = np.full((n, n), float(var))
        kap_m = np.full((n, n), float(kappa))
        np.fill_diagonal(var_m, DIAG_VAR)
        np.fill_diagonal(kap_m, DIAG_KAPPA)
        return cls(zeros.copy(), zeros.copy(), zeros.copy(),
                   var_m.copy(), var_m.copy(), kap_m)

    def validate(self):
        n = self.n_states
        diag = np.arange(n)
        for name in self.__slots__:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("non-finite values in relation %s" % name)
        for name, arr in (("mu_x", self.mu_x), ("mu_y", self.mu_y),
                          ("mu_theta", self.mu_theta)):
            if np.any(np.abs(arr[diag, diag]) > 0):
                raise ValueError("relation diagonal of %s must be zero" % name)
        if np.any(self.var_x <= 0) or np.any(self.var_y <= 0):
            raise ValueError("relation variances must be positive")
        if np.any(self.kappa_theta < 0) or np.any(self.kappa_theta > KAPPA_MAX):
            raise ValueError("kappa must lie in [0, KAPPA_MAX]")


@dataclass(frozen=True)
class GeoHmm:
    """Hidden Markov model with odometric relations.

    A is row-stochastic (N x N). B is one matrix per observation dimension
    with shape (alphabet size, N); each column is the symbol distribution
    for one state. The start distribution is the indicator at start_state.
    """

    n_states: int
    obs_dims: tuple
    A: np.ndarray
    B: tuple
    start_state: int
    relations: RelationMatrix
    mode: CoordinateMode = CoordinateMode.GLOBAL

    def __post_init__(self):
        object.__setattr__(self, "obs_dims", tuple(int(d) for d in self.obs_dims))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B",
                           tuple(np.asarray(b, dtype=float) for b in self.B))
        self.validate()

    def validate(self):
        n = self.n_states
        if n < 1:
            raise ValueError("n_states must be positive")
        if self.A.shape != (n, n):
            raise ValueError("A must be (N, N), got %r" % (self.A.shape,))
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A has non-finite entries")
        if np.any(self.A < -STOCHASTIC_TOL):
            raise ValueError("A has negative entries")
        if np.max(np.abs(self.A.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
            raise ValueError("rows of A must sum to 1")
        if len(self.B) != len(self.obs_dims):
            raise ValueError("need one B matrix per observation dimension")
        for i, b in enumerate(self.B):
            if b.shape != (self.obs_dims[i], n):
                raise ValueError("B[%d] must be (%d, %d), got %r"
                                 % (i, self.obs_dims[i], n, b.shape))
            if not np.all(np.isfinite(b)):
                raise ValueError("B[%d] has non-finite entries" % i)
            if np.any(b < -STOCHASTIC_TOL):
                raise ValueError("B[%d] has negative entries" % i)
            if np.max(np.abs(b.sum(axis=0) - 1.0)) > STOCHASTIC_TOL:
                raise ValueError("columns of B[%d] must sum to 1" % i)
        if not (0 <= self.start_state < n):
            raise ValueError("start_state out of range")
        if self.relations.n_states != n:
            raise ValueError("relation matrix size mismatch")
        self.relations.validate()

    @property
    def n_obs_dims(self) -> int:
        return len(self.obs_dims)

    def replace(self, **kwargs) -> "GeoHmm":
        fields = dict(n_states=self.n_states, obs_dims=self.obs_dims,
                      A=self.A, B=self.B, start_state=self.start_state,
                      relations=self.relations, mode=self.mode)
        fields.update(kwargs)
        return GeoHmm(**fields)


@dataclass(frozen=True)
class ExperienceSequence:
    """Time-indexed observations plus the readings between them.

    observations has shape (T, l) of small nonnegative ints. readings has
    shape (T-1, 3); readings[t] is the (dx, dy, dtheta) recorded on the
    transition from time t to t+1. Time 0 carries no reading.
    """

    observations: np.ndarray
    readings: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=int)
        if obs.ndim != 2:
            raise ValueError("observations must be (T, l)")
        rd = np.asarray(self.readings, dtype=float)
        if rd.ndim != 2 or rd.shape[1] != 3:
            raise ValueError("readings must be (T-1, 3)")
        if rd.shape[0] != obs.shape[0] - 1:
            raise ValueError("need exactly T-1 readings for T observations")
        if not np.all(np.isfinite(rd)):
            raise ValueError("readings must be finite")
        if np.any(obs < 0):
            raise ValueError("observation symbols must be nonnegative")
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "readings", rd)

    def __len__(self) -> int:
        return self.observations.shape[0]

    @property
    def n_dims(self) -> int:
        return self.observations.shape[1]

    def prefix(self, length: int) -> "ExperienceSequence":
        if not 1 <= length <= len(self):
            raise ValueError("prefix length out of range")
        return ExperienceSequence(self.observations[:length],
                                  self.readings[:length - 1])


def _rotate_xy(theta, x, y, mode: CoordinateMode):
    """Carry stacked (x, y) between frames that differ by angles theta:
    a rotation in relative mode, the identity in global mode, where every
    state shares one frame. The one place the two conventions differ."""
    if mode is CoordinateMode.GLOBAL:
        return x, y
    c, s = np.cos(theta), np.sin(theta)
    return x * c - y * s, x * s + y * c


def reading_features(readings) -> np.ndarray:
    """(..., 7) sufficient statistics of (dx, dy, dtheta) readings (..., 3):
    1, dx, dy, dx^2, dy^2, sin(dtheta) and cos(dtheta)."""
    r = np.asarray(readings, dtype=float)
    dx, dy, dtheta = r[..., 0], r[..., 1], r[..., 2]
    return np.stack([np.ones_like(dx), dx, dy, dx * dx, dy * dy,
                     np.sin(dtheta), np.cos(dtheta)], axis=-1)


def natural_parameters(relations) -> np.ndarray:
    """(7, N, N) natural parameters eta of a RelationMatrix's reading
    densities, or (7,) of one entry (any object with scalar fields mu_x,
    mu_y, mu_theta, var_x, var_y and kappa_theta).

    Normal dx and dy and von Mises dtheta (kappa clipped to [0,
    KAPPA_MAX]), independent, form an exponential family: log f(r | R) =
    reading_features(r) . eta(R), eta = (c0, mu_x/var_x, mu_y/var_y,
    -1/(2 var_x), -1/(2 var_y), kappa sin(mu_theta), kappa cos(mu_theta)),
    c0 = -(mu_x^2/var_x + log(2 pi var_x))/2 - (mu_y^2/var_y + log(2 pi
    var_y))/2 - log(2 pi) - log I0(kappa). So sum_k Posteriors.pair[k] *
    eta[k] is the relation term of the expected complete-data loglik.
    """
    mx, my, mt = relations.mu_x, relations.mu_y, relations.mu_theta
    vx, vy = relations.var_x, relations.var_y
    kappa = np.clip(relations.kappa_theta, 0.0, KAPPA_MAX)
    c0 = (-0.5 * (mx * mx / vx + np.log(TWO_PI * vx))
          - 0.5 * (my * my / vy + np.log(TWO_PI * vy))
          - LOG_TWO_PI - log_bessel_i0(kappa))
    return np.stack([c0, mx / vx, my / vy, -0.5 / vx, -0.5 / vy,
                     kappa * np.sin(mt), kappa * np.cos(mt)])


def relation_log_density(readings, relations) -> np.ndarray:
    """Log density of readings (..., 3) under every entry (out: (..., N,
    N)) or one entry (out: ...), as reading_features @ natural_parameters.
    Expanding the squares costs about eps * (dx^2 + mu_x^2) / var_x (and
    likewise in y) of absolute accuracy."""
    eta = natural_parameters(relations)
    phi = reading_features(readings)
    return (phi @ eta.reshape(7, -1)).reshape(phi.shape[:-1] + eta.shape[1:])


def embed_relations(x, y, theta, mode: CoordinateMode) -> tuple:
    """Mean relations induced by per-state coordinates (x_i, y_i, theta_i).

    Returns (mu_x, mu_y, mu_theta) as (N, N) arrays. The heading component
    is wrap(theta_j - theta_i) in both modes. In global mode the x,y
    components are the plain coordinate differences; in relative mode the
    global displacement is rotated into the origin state's frame (rotation
    by -theta_i). Output is exactly consistent at the additive level.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    dx = x[None, :] - x[:, None]
    dy = y[None, :] - y[:, None]
    dtheta = wrap_angle(theta[None, :] - theta[:, None])
    dx, dy = _rotate_xy(-theta[:, None], dx, dy, mode)
    return dx, dy, dtheta


@dataclass
class ConsistencyViolation:
    kind: str            # "diagonal" | "antisymmetry" | "additivity"
    component: str       # "xy" | "x" | "y" | "theta"
    indices: tuple
    magnitude: float


@dataclass
class ConsistencyReport:
    level: ConstraintLevel
    tol: float
    violations: list = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.consistent:
            return "consistent at level %s (tol %g)" % (self.level.value, self.tol)
        lines = ["%d violation(s) at level %s (tol %g):"
                 % (len(self.violations), self.level.value, self.tol)]
        for v in self.violations:
            lines.append("  %s[%s] %s magnitude %.6g"
                         % (v.kind, v.component,
                            ",".join(str(i) for i in v.indices), v.magnitude))
        return "\n".join(lines)


def check_consistency(model: GeoHmm, level: ConstraintLevel,
                      tol: float = 1e-9) -> ConsistencyReport:
    """List every constraint violation beyond tol at the given level.

    Both constraints are the chain identity mu[i, j] + turn(mu[j, k]) =
    mu[i, k], where turn carries a frame-j vector into frame i (rotation
    by mu_theta[i, j] in relative mode, none in global mode): additivity
    over distinct triples, antisymmetry as the chain (i, j, i) over
    pairs i < j, whose diagonal term is zero. Angular residuals are
    wrapped; x and y are reported as one distance in relative mode and
    one by one in global mode. An empty report means the model's mean
    relations are consistent at that level. Diagonal violations come
    first, per component; then antisymmetry and additivity ones, each by
    index tuple in lexicographic order, then by component. tol must be
    finite and >= 0.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and >= 0, got %r" % (tol,))
    rep = ConsistencyReport(level=level, tol=tol)
    R = model.relations
    n = model.n_states
    mu = np.stack([R.mu_x, R.mu_y, R.mu_theta])
    relative = model.mode is CoordinateMode.RELATIVE
    components = ("theta", "xy") if relative else ("theta", "x", "y")

    def chain(ij, jk, ik):
        # Residual components of the chain i -> j -> k against i -> k,
        # stacked last; each link stacks the x, y and theta means first,
        # broadcast over the index grid.
        (x1, y1, t1), (x2, y2, t2), (x3, y3, t3) = ij, jk, ik
        bx, by = _rotate_xy(t1, x2, y2, model.mode)
        ex = x1 + bx - x3
        ey = y1 + by - y3
        t_res = np.abs(wrap_angle(t1 + t2 - t3))
        xy = [np.hypot(ex, ey)] if relative else [np.abs(ex), np.abs(ey)]
        return np.stack([t_res] + xy, axis=-1)

    def record(kind, components, residuals, mask):
        # residuals: index grid with the components stacked last; mask
        # selects the index tuples that carry a constraint.
        hits = np.argwhere(residuals > tol)
        hits = hits[mask[tuple(hits[:, :-1].T)]]
        rep.violations.extend(
            ConsistencyViolation(kind, components[hit[-1]],
                                 tuple(int(i) for i in hit[:-1]),
                                 float(residuals[tuple(hit)]))
            for hit in hits)

    every = np.ones(n, dtype=bool)
    for comp, arr in zip(("x", "y", "theta"), mu):
        record("diagonal", (comp,), np.abs(np.diagonal(arr))[:, None], every)
    if level is ConstraintLevel.UNCONSTRAINED:
        return rep

    # Pairs [i, j]: the chain (i, j, i).
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    record("antisymmetry", components,
           chain(mu, mu.transpose(0, 2, 1),
                 np.diagonal(mu, axis1=1, axis2=2)[:, :, None]), upper)
    if level is ConstraintLevel.ANTISYMMETRIC:
        return rep

    # Triples [i, j, k] of distinct states.
    off = ~np.eye(n, dtype=bool)
    distinct = off[:, :, None] & off[None, :, :] & off[:, None, :]
    record("additivity", components,
           chain(mu[:, :, :, None], mu[:, None], mu[:, :, None, :]), distinct)
    return rep
