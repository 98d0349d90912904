"""Monte Carlo sequence generation and canonical loop environments.

The loop builder lays states along the corridors of a closed polygon
(headings rotate by the exterior angle at each corner), wires dominant
forward transitions, and assembles front/left/right observation
alphabets over {open, door, wall, unknown} with a configurable confusion
mass. Relations come from the coordinate embedding, so generated models
are exactly additive.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .circstats import wrap_angle
from .model import (CoordinateMode, ExperienceSequence, GeoHmm,
                    RelationMatrix, embed_relations)

OBS_OPEN, OBS_DOOR, OBS_WALL, OBS_UNKNOWN = 0, 1, 2, 3
OBS_ALPHABET = 4
OBS_DIMS = 3  # front, left, right

FORWARD_PROB = 0.9
# A door on the left of every DOOR_PERIOD-th state, starting at DOOR_OFFSET.
DOOR_PERIOD = 3
DOOR_OFFSET = 1


@dataclass
class LoopSpec:
    """Closed corridor loop: per-corridor physical lengths and state
    counts, plus observation and odometric noise levels."""

    corridor_lengths: tuple = (10.0, 6.0, 10.0, 6.0)
    states_per_corridor: tuple = (5, 4, 4, 3)
    obs_noise: float = 0.25
    sigma_x: float = 0.15
    sigma_y: float = 0.15
    kappa: float = 150.0
    mode: CoordinateMode = CoordinateMode.GLOBAL

    def __post_init__(self):
        self.corridor_lengths = tuple(float(c) for c in self.corridor_lengths)
        self.states_per_corridor = tuple(int(m) for m in self.states_per_corridor)
        if len(self.corridor_lengths) < 3:
            raise ValueError("a closed loop needs at least 3 corridors")
        if len(self.corridor_lengths) != len(self.states_per_corridor):
            raise ValueError("need one state count per corridor")
        if any(c <= 0 for c in self.corridor_lengths):
            raise ValueError("corridor lengths must be positive")
        if any(m < 1 for m in self.states_per_corridor):
            raise ValueError("each corridor needs at least one state")
        if not 0.0 <= self.obs_noise < 1.0:
            raise ValueError("obs_noise must lie in [0, 1)")
        if self.sigma_x <= 0 or self.sigma_y <= 0 or self.kappa < 0:
            raise ValueError("invalid odometric noise parameters")
        turn = 2.0 * np.pi / len(self.corridor_lengths)
        headings = turn * np.arange(len(self.corridor_lengths))
        closure = np.array([
            np.sum(self.corridor_lengths * np.cos(headings)),
            np.sum(self.corridor_lengths * np.sin(headings))])
        if np.linalg.norm(closure) > 1e-9:
            raise ValueError("corridor lengths do not close the loop "
                             "(residual %.3g)" % np.linalg.norm(closure))

    @property
    def n_states(self) -> int:
        return int(sum(self.states_per_corridor))


def _loop_geometry(spec: LoopSpec):
    """Per-state positions and headings along the loop."""
    turn = 2.0 * np.pi / len(spec.corridor_lengths)
    xs, ys, thetas = [], [], []
    pos = np.zeros(2)
    for c, (length, count) in enumerate(zip(spec.corridor_lengths,
                                            spec.states_per_corridor)):
        heading = wrap_angle(turn * c)
        step = (length / count) * np.array([np.cos(heading), np.sin(heading)])
        for k in range(count):
            point = pos + k * step
            xs.append(point[0])
            ys.append(point[1])
            thetas.append(heading)
        pos = pos + length * np.array([np.cos(heading), np.sin(heading)])
    return np.array(xs), np.array(ys), np.array(thetas)


def _loop_true_symbols(spec: LoopSpec) -> np.ndarray:
    """Deterministic (front, left, right) symbol per state.

    Corridor interiors look alike (open ahead, walls on both sides) apart
    from a sparse pattern of left-hand doors, and every corner looks
    alike (wall ahead, the turn side open), so states are heavily aliased
    and the loop is hard to learn from observations alone.
    """
    out = []
    index = 0
    for count in spec.states_per_corridor:
        for k in range(count):
            if k == count - 1:
                out.append((OBS_WALL, OBS_OPEN, OBS_WALL))
            else:
                left = (OBS_DOOR if index % DOOR_PERIOD == DOOR_OFFSET
                        else OBS_WALL)
                out.append((OBS_OPEN, left, OBS_WALL))
            index += 1
    return np.asarray(out, dtype=int)


def make_loop_model(spec: LoopSpec) -> GeoHmm:
    """Geometrically consistent loop model with dominant forward motion."""
    n = spec.n_states
    x, y, theta = _loop_geometry(spec)
    mu_x, mu_y, mu_theta = embed_relations(x, y, theta, spec.mode)
    var_x = np.full((n, n), spec.sigma_x ** 2)
    var_y = np.full((n, n), spec.sigma_y ** 2)
    kappa = np.full((n, n), spec.kappa)
    relations = RelationMatrix(mu_x, mu_y, mu_theta, var_x, var_y, kappa)

    A = np.zeros((n, n))
    for s in range(n):
        A[s, (s + 1) % n] = FORWARD_PROB
        A[s, s] = 1.0 - FORWARD_PROB

    true_symbols = _loop_true_symbols(spec)
    B = []
    for dim in range(OBS_DIMS):
        b = np.zeros((OBS_ALPHABET, n))
        b[true_symbols[:, dim], np.arange(n)] = 1.0 - spec.obs_noise
        b[OBS_UNKNOWN, np.arange(n)] += spec.obs_noise
        B.append(b)

    return GeoHmm(A=A, B=tuple(B), start_state=0, relations=relations,
                  mode=spec.mode)


def _cdf_rows(P: np.ndarray) -> np.ndarray:
    """Cumulative table of each row of P, as `Generator.choice` builds it.
    GeoHmm checked the rows as `choice` would, stricter: sums within 1e-9."""
    cdf = np.cumsum(P, axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def sample_path(model: GeoHmm, length: int,
                rng: np.random.Generator) -> tuple:
    """Monte Carlo rollout; returns (hidden state path, experience), the
    experience declaring the model's alphabet.

    Draw order, which fixes the RNG stream: the observation vector of the
    start state (one draw per dimension, in order), then per step the
    successor state from its A row, the reading dx, dy (normal) and
    dtheta (von Mises) from the traversed pair's relation entry, then the
    observation dimensions from B. Discrete draws are `choice`'s
    inverse-CDF on one uniform each, so paths are identical to drawing
    every step with `rng.choice(n, p=row)`.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    R = model.relations
    trans_cdf = _cdf_rows(model.A).tolist()
    obs_cdf = [_cdf_rows(b.T).tolist() for b in model.B]
    mu_x, mu_y, mu_theta = (R.mu_x.tolist(), R.mu_y.tolist(),
                            R.mu_theta.tolist())
    sd_x, sd_y = np.sqrt(R.var_x).tolist(), np.sqrt(R.var_y).tolist()
    kappa = R.kappa_theta.tolist()
    random, normal, vonmises = rng.random, rng.normal, rng.vonmises

    state = model.start_state
    states = [state]
    observations = [[bisect_right(cdf[state], random()) for cdf in obs_cdf]]
    readings = []
    for _ in range(1, length):
        prev, state = state, bisect_right(trans_cdf[state], random())
        states.append(state)
        readings.append((normal(mu_x[prev][state], sd_x[prev][state]),
                         normal(mu_y[prev][state], sd_y[prev][state]),
                         vonmises(mu_theta[prev][state], kappa[prev][state])))
        observations.append([bisect_right(cdf[state], random())
                             for cdf in obs_cdf])
    readings = np.array(readings, dtype=float).reshape(length - 1, 3)
    readings[:, 2] = wrap_angle(readings[:, 2])
    seq = ExperienceSequence(observations, readings, model.obs_dims)
    return np.array(states, dtype=int), seq


def sample_sequence(model: GeoHmm, length: int,
                    rng: np.random.Generator) -> ExperienceSequence:
    """Monte Carlo experience rollout of the model from its start state."""
    _, seq = sample_path(model, length, rng)
    return seq


def sample_observations(model: GeoHmm, length: int, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(n, length, D) observation strings of n rollouts; no readings.

    Two draws fix the RNG stream: one rng.random((n, length - 1)) block of
    transition uniforms, then one rng.random((n, length, D)) block of
    observation uniforms. Each rollout walks its hidden chain from the start
    state with bisect_right on the A rows' CDFs, then every symbol is
    picked at once as (cdf[states] <= u).sum(-1), which is bisect_right.
    The law of the strings is sample_path's; the draws are not.
    """
    if length < 1 or n < 1:
        raise ValueError("length and n must be at least 1")
    trans_cdf = _cdf_rows(model.A).tolist()
    obs_cdf = [_cdf_rows(b.T) for b in model.B]
    u_trans = rng.random((n, length - 1)).tolist()
    u_obs = rng.random((n, length, len(obs_cdf)))
    paths = []
    for row in u_trans:
        state = model.start_state
        path = [state]
        for u in row:
            state = bisect_right(trans_cdf[state], u)
            path.append(state)
        paths.append(path)
    states = np.array(paths, dtype=int)
    return np.stack([(cdf[states] <= u_obs[..., d, None]).sum(-1)
                     for d, cdf in enumerate(obs_cdf)], axis=-1)
