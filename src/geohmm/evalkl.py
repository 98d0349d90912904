"""Sampled KL divergence between the observation-string distributions of
two models. The exhaustive variant for tiny instances, which checks this
estimate, is a test oracle (tests/oracles.py::kl_exact_small).

Odometric readings are ignored on both sides, so models learned with and
without odometry are compared on equal, purely topological footing.
Values are natural-log (nats) per symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import loglik
from .model import GeoHmm, ImpossibleSequenceError, check_count
from .simgen import sample_observations


@dataclass
class KlEstimate:
    value: float               # nats per symbol
    n_sequences: int
    seq_length: int
    std_error: float
    n_impossible: int = 0      # sequences the learned model rejected

    def __str__(self):
        if math.isinf(self.value):
            return ("KL estimate: inf (%d/%d sequences impossible under the "
                    "second model)" % (self.n_impossible, self.n_sequences))
        return "KL estimate: %.6f +- %.6f nats/symbol (n=%d, L=%d)" % (
            self.value, self.std_error, self.n_sequences, self.seq_length)


def _check_alphabets(true_model: GeoHmm, learned: GeoHmm):
    if true_model.obs_dims != learned.obs_dims:
        raise ValueError("models have different observation alphabets: "
                         "%r vs %r" % (true_model.obs_dims, learned.obs_dims))


def kl_sampled(true_model: GeoHmm, learned: GeoHmm, seq_length: int = 1000,
               n_sequences: int = 10,
               rng: np.random.Generator | None = None) -> KlEstimate:
    """Monte Carlo per-symbol KL divergence estimate.

    All n_sequences observation strings are drawn from the true model
    first by `simgen.sample_observations`, readings never drawn: one
    rng.random((n, L - 1)) block of transition uniforms, then one
    rng.random((n, L, D)) block of observation uniforms. Then one
    forward-only `loglik` call scores the (n, L, D) strings under both
    models at once. Peak memory, 1.3 MB at n=10, L=1000 on the loop
    model, is the sampler's (n, L - 1) transition uniforms as Python
    floats, (n, L, D) observation uniforms and gathered (n, L, V) CDF
    rows of one V-symbol alphabet; loglik's 0.73 MB comes after. A
    sampled string of zero probability under the learned model flags
    the estimate +inf. n_sequences and seq_length are integers >= 1.
    """
    seq_length = check_count("seq_length", seq_length, 1)
    n_sequences = check_count("n_sequences", n_sequences, 1)
    if rng is None:
        rng = np.random.default_rng(0)
    _check_alphabets(true_model, learned)
    ll_true, ll_learned = loglik(
        [true_model, learned],
        sample_observations(true_model, seq_length, n_sequences, rng))
    rejected = np.flatnonzero(ll_true == -np.inf)
    if rejected.size:
        raise ImpossibleSequenceError(
            0, "sampled sequence %d impossible under the true model"
            % rejected[0])
    n_impossible = int(np.sum(ll_learned == -np.inf))
    if n_impossible:
        return KlEstimate(value=math.inf, n_sequences=n_sequences,
                          seq_length=seq_length, std_error=math.inf,
                          n_impossible=n_impossible)
    diffs = (ll_true - ll_learned) / seq_length
    std_error = (float(diffs.std(ddof=1) / np.sqrt(len(diffs)))
                 if len(diffs) > 1 else 0.0)
    return KlEstimate(value=float(diffs.mean()), n_sequences=n_sequences,
                      seq_length=seq_length, std_error=std_error)
