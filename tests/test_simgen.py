"""Loop-model construction and Monte Carlo sequence generation."""

import numpy as np
import pytest

from geohmm.circstats import KAPPA_MAX, wrap_angle
from geohmm.inference import forward_backward
from geohmm.model import (ConstraintLevel, CoordinateMode, GeoHmm,
                          RelationMatrix, check_consistency, embed_relations)
from geohmm.simgen import (LoopSpec, make_loop_model, sample_observations,
                           sample_path, sample_sequence)
from oracles import (random_geohmm, reference_sample_observations,
                     reference_sample_path, with_entries, zero_relations)


class TestMakeLoopModel:
    def test_default_is_sixteen_state_four_corridor(self):
        spec = LoopSpec()
        assert len(spec.corridor_lengths) == 4
        assert spec.n_states == 16

    def test_consistency_exact(self):
        model = make_loop_model(LoopSpec())
        report = check_consistency(model, ConstraintLevel.ADDITIVE, 1e-12)
        assert report.consistent, report.summary()

    def test_forward_cycle(self):
        model = make_loop_model(LoopSpec(obs_noise=0.0))
        n = model.n_states
        for i in range(n):
            off = model.A[i] * (1 - np.eye(n)[i])
            assert off.argmax() == (i + 1) % n

    def test_perimeter_closure(self):
        model = make_loop_model(LoopSpec())
        R = model.relations
        total = np.zeros(2)
        theta_total = 0.0
        n = model.n_states
        for i in range(n):
            j = (i + 1) % n
            total += (R.mu_x[i, j], R.mu_y[i, j])
            theta_total += R.mu_theta[i, j]
        np.testing.assert_allclose(total, 0.0, atol=1e-9)
        assert wrap_angle(theta_total) == pytest.approx(0.0, abs=1e-9)

    def test_observation_noise_mass(self):
        model = make_loop_model(LoopSpec(obs_noise=0.1))
        for b in model.B:
            assert b.max(axis=0).min() == pytest.approx(0.9)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            LoopSpec(corridor_lengths=(4.0, 4.0), states_per_corridor=(2, 2))
        with pytest.raises(ValueError):
            LoopSpec(corridor_lengths=(4.0, 4.0, 4.0, 5.0),
                     states_per_corridor=(2, 2, 2, 2))
        with pytest.raises(ValueError):
            LoopSpec(obs_noise=1.0)

    def test_relative_mode_consistent(self):
        model = make_loop_model(LoopSpec(mode=CoordinateMode.RELATIVE))
        report = check_consistency(model, ConstraintLevel.ADDITIVE, 1e-9)
        assert report.consistent


class TestSampleSequence:
    def test_degenerate_model_pins_everything(self):
        n = 3
        A = np.roll(np.eye(n), 1, axis=1)   # deterministic cycle
        B = (np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),)
        x, y = np.array([0.0, 1.0, 2.0]), np.zeros(3)
        theta = np.zeros(3)
        mu_x, mu_y, mu_t = embed_relations(x, y, theta, CoordinateMode.GLOBAL)
        rel = RelationMatrix(mu_x, mu_y, mu_t, np.full((n, n), 1e-6),
                             np.full((n, n), 1e-6), np.full((n, n), KAPPA_MAX))
        model = GeoHmm(A=A, B=B, start_state=0, relations=rel)
        states, seq = sample_path(model, 30, np.random.default_rng(0))
        np.testing.assert_array_equal(states, np.arange(30) % 3)
        np.testing.assert_array_equal(seq.observations[:, 0], states)
        for t in range(29):
            i, j = states[t], states[t + 1]
            assert abs(seq.readings[t, 0] - rel.mu_x[i, j]) < 5 * 1e-3
            assert abs(wrap_angle(seq.readings[t, 2])) < 0.05

    def test_transition_frequencies(self):
        A = np.array([[0.7, 0.3], [0.2, 0.8]])
        model = GeoHmm(A=A, B=(np.full((2, 2), 0.5),), start_state=0,
                       relations=zero_relations(2, var=1.0, kappa=1.0))
        T = 100_000
        states, _ = sample_path(model, T, np.random.default_rng(1))
        for i in range(2):
            from_i = states[:-1] == i
            n_i = from_i.sum()
            for j in range(2):
                freq = (states[1:][from_i] == j).mean()
                se = np.sqrt(A[i, j] * (1 - A[i, j]) / n_i)
                assert abs(freq - A[i, j]) <= 3 * se + 1e-12

    def test_reading_means_match_relations(self):
        spec = LoopSpec(states_per_corridor=(2, 2, 2, 2),
                        corridor_lengths=(4.0, 4.0, 4.0, 4.0))
        model = make_loop_model(spec)
        R = model.relations
        T = 60_000
        states, seq = sample_path(model, T, np.random.default_rng(2))
        for (i, j) in [(0, 1), (3, 4), (7, 0 if model.n_states == 8 else 8)]:
            mask = (states[:-1] == i) & (states[1:] == j)
            count = mask.sum()
            if count < 50:
                continue
            vals = seq.readings[mask]
            se_x = np.sqrt(R.var_x[i, j] / count)
            assert abs(vals[:, 0].mean() - R.mu_x[i, j]) <= 3 * se_x + 1e-9
            se_y = np.sqrt(R.var_y[i, j] / count)
            assert abs(vals[:, 1].mean() - R.mu_y[i, j]) <= 3 * se_y + 1e-9
            circ = np.arctan2(np.sin(vals[:, 2]).sum(),
                              np.cos(vals[:, 2]).sum())
            spread = 1.0 / np.sqrt(R.kappa_theta[i, j] * count)
            assert abs(wrap_angle(circ - R.mu_theta[i, j])) <= 4 * spread

    def test_reproducible(self):
        model = make_loop_model(LoopSpec())
        a = sample_sequence(model, 50, np.random.default_rng(33))
        b = sample_sequence(model, 50, np.random.default_rng(33))
        np.testing.assert_array_equal(a.observations, b.observations)
        np.testing.assert_array_equal(a.readings, b.readings)

    def test_generated_sequences_possible_under_generator(self):
        model = make_loop_model(LoopSpec())
        for seed in range(3):
            seq = sample_sequence(model, 200, np.random.default_rng(seed))
            trellis = forward_backward(model, seq, use_odometry=True)
            assert np.isfinite(trellis.loglik)

    def test_length_one(self):
        model = make_loop_model(LoopSpec())
        seq = sample_sequence(model, 1, np.random.default_rng(4))
        assert len(seq) == 1 and seq.readings.shape == (0, 3)
        with pytest.raises(ValueError):
            sample_sequence(model, 0, np.random.default_rng(4))


def _edge_model():
    """4 states with a zero A entry mid-row, and kappa_theta both 0 and
    KAPPA_MAX."""
    model = random_geohmm(4, np.random.default_rng(5), obs_dims=(3, 2))
    A = model.A.copy()
    A[:, 1] = 0.0
    A /= A.sum(axis=1, keepdims=True)
    relations = with_entries(model.relations, kappa_theta={
        (0, 2): 0.0, (2, 0): 0.0, (0, 3): KAPPA_MAX, (3, 3): KAPPA_MAX})
    return model.replace(A=A, start_state=0, relations=relations)


class TestSamplePathStream:
    """The inverse-CDF sampler makes the draws of per-step rng.choice."""

    @pytest.mark.parametrize("length", [1, 2, 800])
    @pytest.mark.parametrize("make", [lambda: make_loop_model(LoopSpec()),
                                      _edge_model], ids=["loop", "edge"])
    def test_byte_identical_to_choice(self, make, length):
        model = make()
        for seed in range(10):
            states, seq = sample_path(model, length,
                                      np.random.default_rng(seed))
            ref = reference_sample_path(model, length,
                                        np.random.default_rng(seed))
            assert states.tobytes() == ref[0].tobytes()
            assert seq.observations.tobytes() == ref[1].tobytes()
            assert seq.readings.tobytes() == ref[2].tobytes()

    def test_edge_model_visits_its_edges(self):
        model = _edge_model()
        states, seq = sample_path(model, 800, np.random.default_rng(0))
        pairs = set(zip(states[:-1].tolist(), states[1:].tolist()))
        assert 1 not in states
        assert {(0, 2), (0, 3), (3, 3)} <= pairs
        assert np.all(np.abs(seq.readings[:, 2]) <= np.pi)


class TestSampleObservations:
    """The batched observation sampler: two uniform blocks, no readings."""

    @pytest.mark.parametrize("length", [1, 2, 37, 1000])
    @pytest.mark.parametrize("make", [lambda: make_loop_model(LoopSpec()),
                                      _edge_model], ids=["loop", "edge"])
    def test_byte_identical_to_reference(self, make, length):
        model = make()
        for seed in range(5):
            rng, ref_rng = (np.random.default_rng(seed),
                            np.random.default_rng(seed))
            got = sample_observations(model, length, 3, rng)
            want = reference_sample_observations(model, length, 3, ref_rng)
            assert got.shape == (3, length, len(model.obs_dims))
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_transition_and_symbol_frequencies(self):
        # Dimension 0 reveals the state, so the strings show the transitions.
        A = np.array([[0.7, 0.3], [0.2, 0.8]])
        B = (np.eye(2), np.array([[0.5, 0.1], [0.3, 0.1], [0.2, 0.8]]))
        model = GeoHmm(A=A, B=B, start_state=0, relations=zero_relations(2))
        obs = sample_observations(model, 10_000, 10,
                                  np.random.default_rng(1))
        states = obs[:, :, 0]
        assert np.all(states[:, 0] == 0)
        # Ten checks in one test: 4 standard errors keeps the family's
        # false-alarm rate small.
        for i in range(2):
            from_i = states[:, :-1] == i
            n_i = from_i.sum()
            for j in range(2):
                freq = (states[:, 1:][from_i] == j).mean()
                se = np.sqrt(A[i, j] * (1 - A[i, j]) / n_i)
                assert abs(freq - A[i, j]) <= 4 * se
            in_i = states == i
            for v in range(3):
                p = B[1][v, i]
                freq = (obs[:, :, 1][in_i] == v).mean()
                se = np.sqrt(p * (1 - p) / in_i.sum())
                assert abs(freq - p) <= 4 * se

    def test_one_string_of_one_symbol(self):
        model = _edge_model()
        got = sample_observations(model, 1, 1, np.random.default_rng(3))
        want = reference_sample_observations(model, 1, 1,
                                             np.random.default_rng(3))
        assert got.shape == (1, 1, 2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length, n", [(0, 1), (1, 0), (-1, 2)])
    def test_empty_sample_rejected(self, length, n):
        model = make_loop_model(LoopSpec())
        with pytest.raises(ValueError, match="at least 1"):
            sample_observations(model, length, n, np.random.default_rng(0))
