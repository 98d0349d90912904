"""Sampled and exact KL divergence between observation distributions."""

import math

import numpy as np
import pytest

from geohmm.evalkl import kl_sampled
from geohmm.initialization import random_model
from geohmm.model import GeoHmm
from geohmm.simgen import LoopSpec, make_loop_model, sample_observations
from oracles import kl_exact_small, reference_loglik, zero_relations


def bernoulli_hmm(p):
    """Single-state model emitting 1 with probability p."""
    B = (np.array([[1.0 - p], [p]]),)
    return GeoHmm(A=np.ones((1, 1)), B=B, start_state=0,
                  relations=zero_relations(1))


def two_state_hmm(rng):
    A = rng.dirichlet(np.ones(2), size=2)
    B = (rng.dirichlet(np.ones(2), size=2).T,)
    return GeoHmm(A=A, B=B, start_state=0, relations=zero_relations(2))


class TestKlSampled:
    def test_identical_models_near_zero(self):
        model = make_loop_model(LoopSpec())
        est = kl_sampled(model, model, seq_length=400, n_sequences=8,
                         rng=np.random.default_rng(0))
        assert est.value == 0.0 and est.std_error == 0.0

    def test_perturbed_model_positive(self):
        true = make_loop_model(LoopSpec())
        B = [b.copy() for b in true.B]
        B[0][:, 0] = [0.25, 0.25, 0.25, 0.25]
        worse = GeoHmm(A=true.A, B=tuple(B), start_state=true.start_state,
                       relations=true.relations, mode=true.mode)
        est = kl_sampled(true, worse, seq_length=2000, n_sequences=10,
                         rng=np.random.default_rng(1))
        assert est.value > 3 * est.std_error > 0

    def test_matches_exact_on_tiny_models(self):
        rng = np.random.default_rng(2)
        true = two_state_hmm(rng)
        learned = two_state_hmm(rng)
        exact = kl_exact_small(true, learned, horizon=8)
        est = kl_sampled(true, learned, seq_length=2000, n_sequences=12,
                         rng=np.random.default_rng(3))
        assert abs(est.value - exact) <= 3 * est.std_error + 0.01

    def test_impossible_sequence_flagged_infinite(self):
        true = bernoulli_hmm(0.5)
        broken = bernoulli_hmm(0.0)   # emits only symbol 0
        est = kl_sampled(true, broken, seq_length=50, n_sequences=4,
                         rng=np.random.default_rng(4))
        assert math.isinf(est.value)
        assert est.n_impossible > 0

    def test_alphabet_mismatch_rejected(self):
        a = bernoulli_hmm(0.5)
        b = make_loop_model(LoopSpec())
        with pytest.raises(ValueError):
            kl_sampled(a, b)

    @pytest.mark.parametrize("length, count", [(100, 0), (0, 3), (-1, 3)])
    def test_empty_sample_rejected_before_sampling(self, length, count):
        model = bernoulli_hmm(0.5)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least 1"):
            kl_sampled(model, model, length, count, rng)
        assert rng.bit_generator.state == state

    def test_deterministic_given_seed(self):
        true = make_loop_model(LoopSpec())
        e1 = kl_sampled(true, true, 100, 3, np.random.default_rng(7))
        e2 = kl_sampled(true, true, 100, 3, np.random.default_rng(7))
        assert e1.value == e2.value

    def test_std_error_shrinks_with_more_data(self):
        rng = np.random.default_rng(8)
        true = two_state_hmm(rng)
        learned = two_state_hmm(rng)
        small = kl_sampled(true, learned, 250, 16, np.random.default_rng(9))
        big = kl_sampled(true, learned, 500, 32, np.random.default_rng(9))
        # doubling both the length and the count should shrink the standard
        # error by about 2 (sqrt(2) from each); allow wide slack since the
        # standard error estimate is itself noisy at these counts
        assert 1.2 < small.std_error / big.std_error < 3.5

    def test_models_of_different_sizes_match_oracle(self):
        # Both models are scored in one loglik call, the 12-state one
        # zero-padded to 16 states.
        true = make_loop_model(LoopSpec())
        learned = random_model(12, true.obs_dims, np.random.default_rng(12))
        est = kl_sampled(true, learned, 300, 5, np.random.default_rng(21))
        strings = sample_observations(true, 300, 5, np.random.default_rng(21))
        diffs = (reference_loglik(true, strings)
                 - reference_loglik(learned, strings)) / 300
        assert est.value == pytest.approx(diffs.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(
            diffs.std(ddof=1) / np.sqrt(5), rel=1e-12)

    def test_value_pinned(self):
        true = make_loop_model(LoopSpec())
        B = [b.copy() for b in true.B]
        B[0][:, 0] = [0.25, 0.25, 0.25, 0.25]
        A = true.A.copy()
        A[3] = 0.0
        A[3, [3, 4, 9]] = [0.5, 0.3, 0.2]
        worse = true.replace(A=A, B=tuple(B))
        est = kl_sampled(true, worse, 400, 6, np.random.default_rng(2013))
        # The estimate is the sequential loglik oracle's on the strings
        # that sample_observations draws from the same seed.
        strings = sample_observations(true, 400, 6,
                                      np.random.default_rng(2013))
        diffs = (reference_loglik(true, strings)
                 - reference_loglik(worse, strings)) / 400
        assert est.value == pytest.approx(diffs.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(
            diffs.std(ddof=1) / np.sqrt(6), rel=1e-12)
        assert est.value == pytest.approx(0.09148497444740418, rel=1e-12)
        assert est.std_error == pytest.approx(0.00578347520889999, rel=1e-9)


class TestKlExactSmall:
    def test_identical_models_zero(self):
        model = bernoulli_hmm(0.3)
        assert kl_exact_small(model, model, horizon=6) == pytest.approx(0.0,
                                                                        abs=1e-12)

    def test_bernoulli_closed_form(self):
        true = bernoulli_hmm(0.5)
        learned = bernoulli_hmm(0.25)
        want = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        assert want == pytest.approx(0.143841, abs=5e-7)
        for horizon in (1, 3, 6):
            got = kl_exact_small(true, learned, horizon=horizon)
            assert got == pytest.approx(want, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a, b = two_state_hmm(rng), two_state_hmm(rng)
            assert kl_exact_small(a, b, horizon=5) >= -1e-12

    def test_guard_refuses_large_instances(self):
        model = make_loop_model(LoopSpec())
        with pytest.raises(ValueError):
            kl_exact_small(model, model, horizon=5)

    def test_zero_probability_infinite(self):
        true = bernoulli_hmm(0.5)
        broken = bernoulli_hmm(0.0)
        assert math.isinf(kl_exact_small(true, broken, horizon=3))
