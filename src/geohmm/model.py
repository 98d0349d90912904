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

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .circstats import (KAPPA_MAX, LOG_TWO_PI, TWO_PI, log_bessel_i0,
                        wrap_angle)

VAR_FLOOR = 1e-6

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


def _read_only(a, dtype=float) -> np.ndarray:
    """A read-only copy of a, which later edits of a do not reach."""
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


class _Rebuilt:
    # Pickle and deepcopy through the constructor: the default restore
    # assigns frozen slots, skips the checks and the read-only copies, and
    # carries cached values (eta, features, symbols) over unchecked.
    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name)
                                 for f in dataclasses.fields(self))


@dataclass(frozen=True, eq=False)
class RelationMatrix(_Rebuilt):
    """N x N table of relation parameters: six read-only dense arrays."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    mu_theta: np.ndarray
    var_x: np.ndarray
    var_y: np.ndarray
    kappa_theta: np.ndarray

    def __post_init__(self):
        n = len(self.mu_x)
        for f in dataclasses.fields(self):
            a = _read_only(getattr(self, f.name))
            if a.shape != (n, n):
                raise ValueError("relation arrays must all be (N, N)")
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite values in relation %s" % f.name)
            object.__setattr__(self, f.name, a)
        for name in ("mu_x", "mu_y", "mu_theta"):
            if np.any(np.diagonal(getattr(self, name)) != 0):
                raise ValueError("relation diagonal of %s must be zero" % name)
        if np.any(self.var_x <= 0) or np.any(self.var_y <= 0):
            raise ValueError("relation variances must be positive")
        if np.any(self.kappa_theta < 0) or np.any(self.kappa_theta > KAPPA_MAX):
            raise ValueError("kappa must lie in [0, KAPPA_MAX]")

    @property
    def n_states(self) -> int:
        return self.mu_x.shape[0]

    @functools.cached_property
    def eta(self) -> np.ndarray:
        """(7, N, N) natural parameters of the reading densities, computed
        on first use. Normal dx and dy and von Mises dtheta, independent,
        form an exponential family: log f(r | R[i, j]) = features(r) .
        eta[:, i, j] (ExperienceSequence.features), eta = (c0, mu_x/var_x,
        mu_y/var_y, -1/(2 var_x), -1/(2 var_y), kappa sin(mu_theta), kappa
        cos(mu_theta)), c0 = -(mu_x^2/var_x + log(2 pi var_x))/2 -
        (mu_y^2/var_y + log(2 pi var_y))/2 - log(2 pi) - log I0(kappa). So
        sum_k Posteriors.pair[k] * eta[k] is the relation term of the
        expected complete-data loglik. Expanding the squares costs about eps
        * (dx^2 + mu_x^2) / var_x (and likewise in y) of absolute accuracy.
        """
        mx, my, mt = self.mu_x, self.mu_y, self.mu_theta
        vx, vy, kappa = self.var_x, self.var_y, self.kappa_theta
        c0 = (-0.5 * (mx * mx / vx + np.log(TWO_PI * vx))
              - 0.5 * (my * my / vy + np.log(TWO_PI * vy))
              - LOG_TWO_PI - log_bessel_i0(kappa))
        return _read_only(np.stack([c0, mx / vx, my / vy, -0.5 / vx, -0.5 / vy,
                                    kappa * np.sin(mt), kappa * np.cos(mt)]))


@dataclass(frozen=True, eq=False)
class GeoHmm(_Rebuilt):
    """Hidden Markov model with odometric relations.

    A is row-stochastic (N x N). B is one matrix per observation dimension
    with shape (alphabet size, N); each column is the symbol distribution
    for one state. The start distribution is the indicator at start_state.
    A, each B and the relation table are read-only and checked when built.
    """

    A: np.ndarray
    B: tuple
    start_state: int
    relations: RelationMatrix
    mode: CoordinateMode = CoordinateMode.GLOBAL

    def __post_init__(self):
        object.__setattr__(self, "A", _read_only(self.A))
        object.__setattr__(self, "B", tuple(_read_only(b) for b in self.B))
        if self.A.ndim != 2 or not 1 <= len(self.A) == self.A.shape[1]:
            raise ValueError("A must be (N, N) with N >= 1, got %r"
                             % (self.A.shape,))
        n = self.n_states
        # A's rows and each B's columns are distributions: no entry below
        # 0, as the sampler demands, and sums within STOCHASTIC_TOL of 1.
        stochastic = [("A", "rows", 1, self.A)]
        for i, b in enumerate(self.B):
            if b.ndim != 2 or b.shape[1] != n:
                raise ValueError("B[%d] must be (alphabet size, %d), got %r"
                                 % (i, n, b.shape))
            stochastic.append(("B[%d]" % i, "columns", 0, b))
        for name, lines, axis, p in stochastic:
            if not np.all(np.isfinite(p)):
                raise ValueError("%s has non-finite entries" % name)
            if np.any(p < 0):
                raise ValueError("%s has negative entries" % name)
            if np.max(np.abs(p.sum(axis=axis) - 1.0)) > STOCHASTIC_TOL:
                raise ValueError("%s of %s must sum to 1" % (lines, name))
        if not (0 <= self.start_state < n):
            raise ValueError("start_state out of range")
        if self.relations.n_states != n:
            raise ValueError("relation matrix size mismatch")

    @property
    def n_states(self) -> int:
        return len(self.A)

    @property
    def obs_dims(self) -> tuple:
        """Each observation dimension's alphabet size: B's row counts."""
        return tuple(len(b) for b in self.B)

    def replace(self, **kwargs) -> "GeoHmm":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True, eq=False)
class ExperienceSequence(_Rebuilt):
    """Time-indexed observations plus the readings between them.

    observations has shape (T, l) of small nonnegative ints. readings has
    shape (T-1, 3); readings[t] is the (dx, dy, dtheta) recorded on the
    transition from time t to t+1. Time 0 carries no reading. alphabet,
    when declared (by an experience file, or by the model that sampled
    the sequence), holds each dimension's symbol count, and every symbol
    must lie below it. Both arrays are read-only copies, checked when built.
    """

    observations: np.ndarray
    readings: np.ndarray
    alphabet: tuple | None = None

    def __post_init__(self):
        raw = np.asarray(self.observations)
        with np.errstate(invalid="ignore"):
            obs = raw.astype(int, copy=False)
        if obs.ndim != 2:
            raise ValueError("observations must be (T, l)")
        if np.any(obs != raw):
            raise ValueError("observation symbols must be integers")
        rd = np.asarray(self.readings, dtype=float)
        if rd.ndim != 2 or rd.shape[1] != 3:
            raise ValueError("readings must be (T-1, 3)")
        if rd.shape[0] != obs.shape[0] - 1:
            raise ValueError("need exactly T-1 readings for T observations")
        if not np.all(np.isfinite(rd)):
            raise ValueError("readings must be finite")
        if np.any(obs < 0):
            raise ValueError("observation symbols must be nonnegative")
        if self.alphabet is not None:
            alphabet = tuple(int(k) for k in self.alphabet)
            if len(alphabet) != obs.shape[1]:
                raise ValueError("alphabet %r does not have one size per "
                                 "observation dimension" % (alphabet,))
            bad = np.argwhere(obs >= np.array(alphabet, dtype=int))
            if len(bad):
                t, i = bad[0]
                raise ValueError("symbol %d out of alphabet on dimension %d "
                                 "at step %d" % (obs[t, i], i, t))
            object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "observations", _read_only(obs, int))
        object.__setattr__(self, "readings", _read_only(rd))

    def __len__(self) -> int:
        return self.observations.shape[0]

    @property
    def n_dims(self) -> int:
        return self.observations.shape[1]

    @property
    def obs_dims(self) -> tuple:
        """The declared alphabet, else each dimension's largest symbol
        plus one."""
        if self.alphabet is not None:
            return self.alphabet
        return tuple(int(k) + 1 for k in self.observations.max(axis=0))

    @functools.cached_property
    def features(self) -> np.ndarray:
        """(T-1, 7) sufficient statistics of the readings, the factor of
        RelationMatrix.eta: 1, dx, dy, dx^2, dy^2, sin(dtheta), cos(dtheta)."""
        dx, dy, dtheta = self.readings.T
        return _read_only(np.stack([np.ones_like(dx), dx, dy, dx * dx, dy * dy,
                                    np.sin(dtheta), np.cos(dtheta)], axis=-1))

    @functools.cached_property
    def symbols(self) -> tuple:
        """encode_symbols of the observations: (vectors (U, l), index (T,))."""
        return tuple(_read_only(a, int)
                     for a in encode_symbols(self.observations))

    def prefix(self, length: int) -> "ExperienceSequence":
        if not 1 <= length <= len(self):
            raise ValueError("prefix length out of range")
        return ExperienceSequence(self.observations[:length],
                                  self.readings[:length - 1], self.alphabet)


def _rotate_xy(theta, x, y, mode: CoordinateMode):
    """Carry stacked (x, y) between frames that differ by angles theta:
    a rotation in relative mode, the identity in global mode, where every
    state shares one frame. The one place the two conventions differ."""
    if mode is CoordinateMode.GLOBAL:
        return x, y
    c, s = np.cos(theta), np.sin(theta)
    return x * c - y * s, x * s + y * c


def encode_symbols(observations) -> tuple:
    """(vectors (U, D), index (...)) of an integer array (..., D): its U
    distinct vectors, ordered by mixed-radix codes over the data's own
    symbol ranges, and each position's row, so vectors[index] is the array.
    A table over the rows is bounded by the data, not by the alphabet.
    """
    obs = np.asarray(observations)
    if not np.issubdtype(obs.dtype, np.integer):
        raise ValueError("observation symbols must be integers, got %s"
                         % obs.dtype)
    # One contiguous row per dimension: reducing rows is many times faster
    # than reducing the (n, D) array along its long axis.
    digits = np.array(obs.reshape(-1, obs.shape[-1]).T, order="C")
    low = digits.min(axis=1, initial=0)
    digits -= low[:, None]
    radix = digits.max(axis=1, initial=0) + 1
    codes, index = np.unique(np.ravel_multi_index(tuple(digits), radix),
                             return_inverse=True)
    vectors = np.stack(np.unravel_index(codes, radix), axis=1) + low
    return vectors, index.reshape(obs.shape[:-1])


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
