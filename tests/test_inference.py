"""Forward/backward, posteriors, and the path-enumeration oracle."""

import tracemalloc

import numpy as np
import pytest

from geohmm import inference
from geohmm.circstats import KAPPA_MAX, wrap_angle
from geohmm.inference import (emission_probs, forward_backward, loglik,
                              posteriors, relation_density_tensor)
from geohmm.initialization import random_model
from geohmm.model import (VAR_FLOOR, ExperienceSequence, GeoHmm,
                          ImpossibleSequenceError, RelationMatrix,
                          encode_symbols)
from geohmm.simgen import (LoopSpec, make_loop_model, sample_observations,
                           sample_sequence)
from oracles import (brute_force_posteriors, obs_prob, pair_statistics,
                     path_density, random_experience, random_geohmm,
                     reference_forward_backward, reference_loglik,
                     reference_emissions, reference_pair_statistics,
                     reference_posteriors,
                     reference_relation_density_tensor,
                     reference_relation_log_density, tiny_emission_model,
                     zero_relations)


class TestObsProb:
    def test_single_dimension(self):
        model = random_geohmm(2, np.random.default_rng(0), obs_dims=(4,))
        B = (np.full((4, 2), 0.25),)
        model = GeoHmm(A=model.A, B=B, start_state=0,
                       relations=model.relations)
        assert obs_prob(model, 1, [2]) == 0.25

    def test_factored_product(self):
        B = (np.array([[0.5], [0.5]]), np.array([[0.4], [0.6]]))
        model = GeoHmm(A=np.ones((1, 1)), B=B, start_state=0,
                       relations=zero_relations(1))
        assert obs_prob(model, 0, [0, 0]) == pytest.approx(0.5 * 0.4)

    def test_one_hot_gives_indicator(self):
        B = (np.array([[1.0, 0.0], [0.0, 1.0]]),)
        model = GeoHmm(A=np.full((2, 2), 0.5), B=B, start_state=0,
                       relations=zero_relations(2))
        assert obs_prob(model, 0, [0]) == 1.0
        assert obs_prob(model, 1, [0]) == 0.0

    def test_out_of_alphabet(self):
        model = random_geohmm(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            obs_prob(model, 0, [99])

    # Both callers gather rows of one table over the distinct symbol
    # vectors; each step's row must be the longhand product, bit for bit.
    @pytest.mark.parametrize("obs_dims", [(4,), (3, 2), (2, 5, 3)])
    @pytest.mark.parametrize("used", [1.0, 0.5])
    def test_gathered_table_is_the_longhand_product(self, obs_dims, used):
        rng = np.random.default_rng(len(obs_dims))
        model = random_geohmm(5, rng, obs_dims=obs_dims)
        # used < 1 leaves the upper symbols of each alphabet out.
        high = [max(1, int(k * used)) for k in obs_dims]
        obs = np.stack([rng.integers(0, k, size=(3, 40)) for k in high], -1)
        vectors, index = encode_symbols(obs)
        np.testing.assert_array_equal(vectors[index], obs)
        assert len(vectors) == len(np.unique(obs.reshape(-1, len(high)),
                                             axis=0))
        np.testing.assert_array_equal(
            emission_probs(model, vectors, index)[index],
            reference_emissions(model, obs))
        e = ExperienceSequence(obs[0], np.zeros((39, 3)))
        np.testing.assert_array_equal(
            forward_backward(model, e, use_odometry=False).emit,
            reference_emissions(model, obs[0]))

    def test_encoding_beyond_int64_codes(self):
        # 15 ranges of 1000 symbols have 1e45 codes: more than an int64
        # holds, which used to raise in ravel_multi_index.
        rng = np.random.default_rng(15)
        obs = rng.integers(0, 1000, size=(2, 30, 15))
        obs[1, :10] = obs[0, :10]
        vectors, index = encode_symbols(obs)
        np.testing.assert_array_equal(vectors[index], obs)
        np.testing.assert_array_equal(
            vectors, np.unique(obs.reshape(-1, 15), axis=0))


class TestForwardBackward:
    def test_single_state_closed_form(self):
        rng = np.random.default_rng(5)
        model = random_geohmm(1, rng)
        e = random_experience(model, 6, rng)
        trellis = forward_backward(model, e, use_odometry=True)
        expected = sum(np.log(obs_prob(model, 0, v)) for v in e.observations)
        pairf = relation_density_tensor(model, e)
        expected += np.log(pairf[:, 0, 0]).sum()
        assert trellis.loglik == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_matches_path_enumeration(self, use_odometry):
        rng = np.random.default_rng(11)
        model = random_geohmm(2, rng)
        e = random_experience(model, 4, rng)
        want_ll, _, _ = brute_force_posteriors(model, e, use_odometry)
        trellis = forward_backward(model, e, use_odometry=use_odometry)
        assert trellis.loglik == pytest.approx(want_ll, abs=1e-10)

    def test_uniform_model_closed_form(self):
        n, T = 3, 7
        rng = np.random.default_rng(2)
        B = (np.full((2, n), 0.5),)
        model = GeoHmm(A=np.full((n, n), 1 / n), B=B, start_state=1,
                       relations=zero_relations(n))
        obs = rng.integers(0, 2, size=(T, 1))
        e = ExperienceSequence(observations=obs, readings=np.zeros((T - 1, 3)))
        trellis = forward_backward(model, e, use_odometry=False)
        expected = T * np.log(0.5)   # transitions sum out: sum_j 1/n = 1
        assert trellis.loglik == pytest.approx(expected, abs=1e-10)

    def test_scaled_alpha_rows_normalized(self):
        rng = np.random.default_rng(21)
        model = random_geohmm(3, rng)
        e = random_experience(model, 9, rng)
        trellis = forward_backward(model, e)
        np.testing.assert_allclose(trellis.alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(trellis.scales > 0)

    def test_scaling_matches_unscaled_forward(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = random_geohmm(3, rng)
            e = random_experience(model, 7, rng)
            trellis = forward_backward(model, e)
            total = 0.0
            import itertools
            for path in itertools.product(range(3), repeat=7):
                total += path_density(model, e, path, True)
            assert trellis.loglik == pytest.approx(np.log(total), abs=1e-9)

    def test_impossible_sequence_names_step(self):
        B = (np.array([[1.0, 1.0], [0.0, 0.0]]),)
        model = GeoHmm(A=np.full((2, 2), 0.5), B=B, start_state=0,
                       relations=zero_relations(2))
        obs = np.array([[0], [0], [1], [0]])
        e = ExperienceSequence(observations=obs, readings=np.zeros((3, 3)))
        with pytest.raises(ImpossibleSequenceError) as info:
            forward_backward(model, e, use_odometry=False)
        assert info.value.step == 2

    def test_density_floor_rescues_outlier(self):
        rng = np.random.default_rng(41)
        model = random_geohmm(2, rng)
        e = random_experience(model, 4, rng)
        readings = e.readings.copy()
        readings[1, 0] = 1e6   # outlier reading underflows every density
        bad = ExperienceSequence(observations=e.observations, readings=readings)
        with pytest.raises(ImpossibleSequenceError):
            forward_backward(model, bad, use_odometry=True)
        trellis = forward_backward(model, bad, use_odometry=True,
                                   density_floor=1e-30)
        assert np.isfinite(trellis.loglik)


def sparse_geohmm(n, rng, obs_dims=(3,)):
    """Random model with structural zeros in A: each row keeps its own
    state, its successor and a random third of the others."""
    model = random_geohmm(n, rng, obs_dims=obs_dims)
    keep = rng.uniform(size=(n, n)) < 1 / 3
    keep |= np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
    A = np.where(keep, model.A, 0.0)
    return model.replace(A=A / A.sum(axis=1, keepdims=True))


def assert_matches_reference(got, want):
    np.testing.assert_allclose(got.alpha, want.alpha, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.beta, want.beta, rtol=1e-10, atol=0)
    np.testing.assert_allclose(got.scales, want.scales, rtol=1e-12, atol=0)
    assert got.loglik == pytest.approx(want.loglik, rel=1e-12, abs=0)


def assert_unit_alpha_beta(trellis):
    np.testing.assert_allclose((trellis.alpha * trellis.beta).sum(axis=1),
                               1.0, rtol=1e-12, atol=0)


def strings(seqs):
    """The (S, T, D) symbol array of equal-length sequences."""
    return np.stack([e.observations for e in seqs])


# T - 1 steps: none, 1, 2, 3 (ragged), exact squares 16, 25 and 784,
# and 799 and 1000 with ragged last blocks.
BLOCK_LENGTHS = [1, 2, 3, 4, 17, 26, 785, 800, 1001]


class TestBlockedRecursion:
    @pytest.mark.parametrize("T", BLOCK_LENGTHS)
    @pytest.mark.parametrize("use_odometry", [True, False])
    @pytest.mark.parametrize("floored", [False, True])
    def test_matches_sequential_reference(self, T, use_odometry, floored):
        rng = np.random.default_rng(T)
        for model in (random_geohmm(4, rng, obs_dims=(3, 2)),
                      sparse_geohmm(5, rng)):
            e = random_experience(model, T, rng)
            floor = None
            if floored and T > 1:
                floor = float(np.median(relation_density_tensor(model, e)))
            assert_matches_reference(
                forward_backward(model, e, use_odometry, floor),
                reference_forward_backward(model, e, use_odometry, floor))

    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_matches_sequential_reference_on_loop(self, use_odometry):
        model = make_loop_model(LoopSpec())
        e = sample_sequence(model, 800, np.random.default_rng(11))
        assert_matches_reference(
            forward_backward(model, e, use_odometry),
            reference_forward_backward(model, e, use_odometry))

    @staticmethod
    def _beyond_double_range(offset):
        """Variances of 1e-12 make every step's density about 1e11 on the
        readings' own pair (offset 0) or about 1e-250 (offset 3.4e-5),
        so a block product of 32 steps leaves the double range."""
        rng = np.random.default_rng(61)
        model = random_geohmm(3, rng)
        R = model.relations
        tiny = np.full((3, 3), 1e-12)
        model = model.replace(relations=RelationMatrix(
            R.mu_x, R.mu_y, R.mu_theta, tiny, tiny, np.full((3, 3), 50.0)))
        path = [model.start_state]
        for _ in range(1000):
            path.append(int(rng.choice(3, p=model.A[path[-1]])))
        i, j = np.array(path[:-1]), np.array(path[1:])
        readings = np.column_stack([R.mu_x[i, j] + offset, R.mu_y[i, j],
                                    R.mu_theta[i, j]])
        e = ExperienceSequence(observations=rng.integers(0, 3, (1001, 1)),
                               readings=readings)
        return model, e

    @pytest.mark.parametrize("offset", [0.0, 3.4e-5])
    def test_matches_reference_beyond_double_range(self, offset):
        model, e = self._beyond_double_range(offset)
        want = reference_forward_backward(model, e)
        assert abs(want.loglik) / 1000 * 32 > np.log(2.0) * 1024
        assert_matches_reference(forward_backward(model, e), want)

    def test_matches_reference_rescaling_repeatedly_without_odometry(self):
        """Symbols of probability near 1e-3 shrink the rows of a block
        product of the shared operator A by about 2**-10 per step, so
        they leave 2**±64 every few stages and are rescaled repeatedly."""
        rng = np.random.default_rng(67)
        model = random_geohmm(4, rng, obs_dims=(1000,))
        e = random_experience(model, 1001, rng)
        want = reference_forward_backward(model, e, use_odometry=False)
        assert want.loglik / 1000 < -6.0
        got = forward_backward(model, e, use_odometry=False)
        assert_matches_reference(got, want)
        assert_unit_alpha_beta(got)

    # The backward pass scales each beta row by sum_i alpha_t(i) beta_t(i)
    # instead of the forward scales; both give 1 in Rabiner's scaling.
    @pytest.mark.parametrize("T", BLOCK_LENGTHS)
    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_alpha_beta_sums_to_one(self, T, use_odometry):
        rng = np.random.default_rng(300 + T)
        for model in (random_geohmm(4, rng, obs_dims=(3, 2)),
                      sparse_geohmm(5, rng)):
            e = random_experience(model, T, rng)
            assert_unit_alpha_beta(forward_backward(model, e, use_odometry))

    @pytest.mark.parametrize("offset", [0.0, 3.4e-5])
    def test_alpha_beta_sums_to_one_beyond_double_range(self, offset):
        model, e = self._beyond_double_range(offset)
        assert_unit_alpha_beta(forward_backward(model, e))

    @pytest.mark.parametrize("T", BLOCK_LENGTHS)
    def test_loglik_matches_sequential_reference(self, T):
        rng = np.random.default_rng(200 + T)
        for model in (random_geohmm(4, rng, obs_dims=(3, 2)),
                      sparse_geohmm(5, rng)):
            obs = strings([random_experience(model, T, rng)
                           for _ in range(5)])
            np.testing.assert_allclose(loglik([model], obs)[0],
                                       reference_loglik(model, obs),
                                       rtol=1e-12, atol=0)

    @staticmethod
    def _forbidden_symbol_model():
        """Cycle 0 -> 1 -> 2 -> 0 with self-loops; symbol 2 is emitted by
        no state and symbol 1 only by state 2."""
        A = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        B = (np.array([[1.0, 1.0, 0.5], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]),)
        return GeoHmm(A=A, B=B, start_state=0, relations=zero_relations(3))

    @staticmethod
    def _outcome(fn):
        try:
            fn()
        except ImpossibleSequenceError as err:
            return err.step
        return None

    @pytest.mark.parametrize("symbol", [1, 2])
    def test_impossible_step_matches_reference(self, symbol):
        model = self._forbidden_symbol_model()
        for T in range(1, 41):
            seqs = []
            for pos in range(T):
                obs = np.zeros((T, 1), dtype=int)
                obs[pos] = symbol
                e = ExperienceSequence(observations=obs,
                                       readings=np.zeros((T - 1, 3)))
                want = self._outcome(
                    lambda: reference_forward_backward(model, e, False))
                got = self._outcome(lambda: forward_backward(model, e, False))
                assert got == want, (T, pos)
                if symbol == 2:
                    assert got == pos
                seqs.append(e)
            obs = strings(seqs)
            got, want = loglik([model], obs)[0], reference_loglik(model, obs)
            np.testing.assert_array_equal(got == -np.inf, want == -np.inf)
            live = want > -np.inf
            np.testing.assert_allclose(got[live], want[live], rtol=1e-12,
                                       atol=0)


class TestLoglik:
    @staticmethod
    def _reference(model, seqs):
        return np.array([forward_backward(model, e, use_odometry=False).loglik
                         for e in seqs])

    @pytest.mark.parametrize("n,T", [(1, 1), (2, 2), (3, 40), (5, 120)])
    def test_matches_forward_backward(self, n, T):
        rng = np.random.default_rng(100 + n)
        model = random_geohmm(n, rng, obs_dims=(3, 2))
        seqs = [random_experience(model, T, rng) for _ in range(6)]
        np.testing.assert_allclose(loglik([model], strings(seqs))[0],
                                   self._reference(model, seqs),
                                   rtol=1e-12, atol=0)

    def test_matches_forward_backward_on_loop(self):
        model = make_loop_model(LoopSpec())
        rng = np.random.default_rng(3)
        seqs = [sample_sequence(model, 1000, rng) for _ in range(4)]
        got = loglik([model], strings(seqs))
        assert got.shape == (1, 4)
        np.testing.assert_allclose(got[0], self._reference(model, seqs),
                                   rtol=1e-12, atol=0)

    def test_impossible_row_is_minus_inf_and_isolated(self):
        B = (np.array([[1.0, 1.0], [0.0, 0.0]]),)
        model = GeoHmm(A=np.full((2, 2), 0.5), B=B, start_state=0,
                       relations=zero_relations(2))
        readings = np.zeros((3, 3))
        good = ExperienceSequence(observations=np.zeros((4, 1), dtype=int),
                                  readings=readings)
        bad = ExperienceSequence(observations=np.array([[0], [0], [1], [0]]),
                                 readings=readings)
        first = ExperienceSequence(observations=np.array([[1], [0], [0], [0]]),
                                   readings=readings)
        got = loglik([model], strings([good, bad, first, good]))[0]
        want = loglik([model], strings([good, good, good, good]))[0]
        assert got[1] == -np.inf and got[2] == -np.inf
        assert got[0] == want[0] and got[3] == want[3]
        assert got[0] == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_unequal_batches(self):
        model = random_geohmm(2, np.random.default_rng(0))
        assert loglik([model], np.zeros((0, 3, 1), dtype=int)).shape == (1, 0)
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            loglik([model], [random_experience(model, 3, rng).observations,
                             random_experience(model, 4, rng).observations])

    # Different state counts share one zero-padded (K, S, N) stack; each
    # model's row must still be its own sequential score.
    @pytest.mark.parametrize("T", [1, 2, 37])
    @pytest.mark.parametrize("K", [0, 1, 2])
    def test_models_of_different_sizes_match_reference(self, T, K):
        rng = np.random.default_rng(500 + T)
        loop = make_loop_model(LoopSpec())
        # The last pair's strings use 3 of its 6 symbols.
        for models, used in ([[random_geohmm(5, rng, obs_dims=(3, 2)),
                               sparse_geohmm(3, rng, obs_dims=(3, 2))], (3, 2)],
                             [[loop, random_model(12, loop.obs_dims, rng)],
                              loop.obs_dims],
                             [[random_geohmm(4, rng, obs_dims=(6,)),
                               random_geohmm(2, rng, obs_dims=(6,))], (3,)]):
            obs = rng.integers(0, used, size=(4, T, len(used)))
            models = models[:K]
            got = loglik(models, obs)
            assert got.shape == (K, 4)
            for k, model in enumerate(models):
                np.testing.assert_allclose(got[k], reference_loglik(model, obs),
                                           rtol=1e-12, atol=0)

    def test_no_strings_gives_one_empty_row_per_model(self):
        rng = np.random.default_rng(6)
        models = [random_geohmm(5, rng), random_geohmm(3, rng)]
        assert loglik(models, np.zeros((0, 4, 1), dtype=int)).shape == (2, 0)

    def test_rejected_row_is_isolated_across_models(self):
        # Model 1 emits symbol 2 from no state and symbol 1 only from
        # state 2, two steps from the start, so it rejects string 1 only;
        # model 0 accepts everything.
        rng = np.random.default_rng(7)
        models = [random_geohmm(3, rng),
                  TestBlockedRecursion._forbidden_symbol_model()]
        obs = rng.integers(0, 2, size=(4, 30, 1))
        obs[:, :2] = 0
        clean = obs.copy()
        obs[1, 12, 0] = 2
        got = loglik(models, obs)
        dead = np.zeros((2, 4), dtype=bool)
        dead[1, 1] = True
        np.testing.assert_array_equal(np.isneginf(got), dead)
        assert np.isfinite(got[~dead]).all()
        for k, model in enumerate(models):
            np.testing.assert_array_equal(got[k], loglik([model], obs)[0])
        # The dead row leaves the other strings' scores bit for bit.
        np.testing.assert_array_equal(np.delete(got, 1, axis=1),
                                      np.delete(loglik(models, clean), 1,
                                                axis=1))

    @pytest.mark.parametrize("symbol", [-1, 3, 99])
    def test_symbols_outside_the_alphabet_rejected(self, symbol):
        model = random_geohmm(2, np.random.default_rng(8))
        obs = np.zeros((2, 5, 1), dtype=int)
        obs[1, 3, 0] = symbol
        message = "symbol %d out of alphabet on dimension 0 at step 3" % symbol
        with pytest.raises(ValueError, match=message):
            loglik([model], obs)
        with pytest.raises(ValueError, match=message):
            emission_probs(model, *encode_symbols(obs[1]))
        if symbol >= 0:
            e = ExperienceSequence(obs[1], np.zeros((4, 3)))
            with pytest.raises(ValueError, match=message):
                forward_backward(model, e)

    # T - 1 steps: none, 1, 7, one chunk, a chunk and a step, two chunks,
    # and 999 with a short last chunk.
    @pytest.mark.parametrize("T", [1, 2, 8, 9, 10, 17, 1000])
    def test_chunk_lengths_match_reference(self, T):
        rng = np.random.default_rng(900 + T)
        models = [random_geohmm(4, rng, obs_dims=(3, 2)),
                  sparse_geohmm(5, rng, obs_dims=(3, 2))]
        obs = rng.integers(0, (3, 2), size=(6, T, 2))
        got = loglik(models, obs)
        for k, model in enumerate(models):
            np.testing.assert_allclose(got[k], reference_loglik(model, obs),
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("T", [1, 2, 8, 9, 10, 17, 1000])
    def test_tiny_emissions_score_finite(self, T):
        # About 1e-45 per step, 1196 bits a chunk: from CHUNK_SCALE every
        # chunk ends below CHUNK_FLOOR (from 1, at 0), so each one is
        # redone with a division at every step.
        rng = np.random.default_rng(950 + T)
        model = tiny_emission_model(rng)
        bits = -inference.CHUNK * np.log2([b.max() for b in model.B]).sum()
        assert bits > np.log2(inference.CHUNK_SCALE / inference.CHUNK_FLOOR)
        obs = sample_observations(model, T, 3, rng)
        got = loglik([model], obs)[0]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, reference_loglik(model, obs),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("T", [9, 1000])
    def test_steep_rows_stay_exact_on_the_chunk_path(self, T):
        # About 1e-30 per step: 700 to 900 bits a chunk, which ends far
        # below a sum of 1 but above CHUNK_FLOOR from CHUNK_SCALE.
        rng = np.random.default_rng(980 + T)
        model = tiny_emission_model(rng, dims=10)
        per_dim = np.log2([[b.min(), b.max()] for b in model.B]).sum(axis=0)
        lost = -inference.CHUNK * per_dim
        assert 700 < lost[1] < lost[0] < np.log2(
            inference.CHUNK_SCALE / inference.CHUNK_FLOOR)
        obs = sample_observations(model, T, 3, rng)
        np.testing.assert_allclose(loglik([model], obs)[0],
                                   reference_loglik(model, obs),
                                   rtol=1e-12, atol=0)

    def test_row_dying_at_each_chunk_offset(self):
        # Model 1 emits symbol 2 from no state: string j carries it at
        # offset j of the second chunk, and string CHUNK never.
        C = inference.CHUNK
        rng = np.random.default_rng(14)
        models = [random_geohmm(3, rng),
                  TestBlockedRecursion._forbidden_symbol_model()]
        obs = rng.integers(0, 2, size=(C + 1, 1 + 3 * C, 1))
        obs[:, :2] = 0
        for j in range(C):
            obs[j, 1 + C + j] = 2
        got = loglik(models, obs)
        for k, model in enumerate(models):
            np.testing.assert_allclose(got[k], reference_loglik(model, obs),
                                       rtol=1e-12, atol=0)
        assert np.isneginf(got[1, :C]).all()
        assert np.isfinite(got[0]).all() and np.isfinite(got[1, C])
        np.testing.assert_array_equal(got[0], loglik(models[:1], obs)[0])

    def test_low_rows_leave_ordinary_rows_bit_for_bit(self):
        # The tiny model scores every string low, and the plain one on the
        # tiny model's own strings is dead from step 0; the plain model's
        # rows on its own strings are computed as if neither were there.
        rng = np.random.default_rng(15)
        tiny = tiny_emission_model(rng)
        B = [np.zeros((1000, 3)) for _ in range(15)]
        B[0][:3] = rng.dirichlet(np.ones(3), size=3).T
        for b in B[1:]:
            b[0] = 1.0
        plain = GeoHmm(A=rng.dirichlet(np.ones(3), size=3), B=tuple(B),
                       start_state=1, relations=zero_relations(3))
        T = 40
        ordinary = np.zeros((8, T, 15), dtype=int)
        ordinary[..., 0] = rng.integers(0, 3, size=(8, T))
        low = np.arange(8) % 3 == 1
        obs = ordinary.copy()
        obs[low] = sample_observations(tiny, T, low.sum(), rng)
        models = [tiny, plain]
        got = loglik(models, obs)
        for k, model in enumerate(models):
            np.testing.assert_allclose(got[k], reference_loglik(model, obs),
                                       rtol=1e-12, atol=0)
        assert np.isfinite(got[0]).all() and np.isfinite(got[1, ~low]).all()
        assert np.isneginf(got[1, low]).all()
        np.testing.assert_array_equal(got[1, ~low],
                                      loglik([plain], ordinary)[0, ~low])

    def test_peak_memory(self):
        # kl_sampled's call: (K, U, N) emission tables, the (S, T) symbol
        # index and a few (K, S, N) stacks, 0.73 MB. The (T, K, S, N)
        # emission array once gathered up front was 2.56 MB on its own.
        S, T = 10, 1000
        rng = np.random.default_rng(12)
        true = make_loop_model(LoopSpec())
        other = random_model(16, true.obs_dims, rng)
        obs = sample_observations(true, T, S, rng)
        tracemalloc.start()
        try:
            loglik([true, other], obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6, peak

    def test_non_integer_symbols_rejected(self):
        model = random_geohmm(2, np.random.default_rng(9))
        with pytest.raises(ValueError, match="integers"):
            loglik([model], np.zeros((2, 5, 1)))


class TestPosteriors:
    def test_single_state(self):
        rng = np.random.default_rng(3)
        model = random_geohmm(1, rng)
        e = random_experience(model, 5, rng)
        trellis = forward_backward(model, e)
        post = posteriors(trellis, model, e)
        np.testing.assert_allclose(post.gamma, 1.0)

    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_matches_path_enumeration(self, use_odometry):
        rng = np.random.default_rng(17)
        model = random_geohmm(2, rng)
        e = random_experience(model, 4, rng)
        _, want_gamma, want_xi = brute_force_posteriors(model, e, use_odometry)
        trellis = forward_backward(model, e, use_odometry=use_odometry)
        post = posteriors(trellis, model, e)
        np.testing.assert_allclose(post.gamma, want_gamma, atol=1e-10)
        np.testing.assert_allclose(
            post.pair, reference_pair_statistics(want_xi, e.readings),
            atol=1e-10)

    def test_marginalization_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            model = random_geohmm(4, rng)
            e = random_experience(model, 12, rng)
            trellis = forward_backward(model, e)
            post = posteriors(trellis, model, e)
            np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, atol=1e-9)
            # each xi slab sums to one, and its rows (columns) to gamma at
            # t (t + 1)
            assert post.pair[0].sum() == pytest.approx(len(e) - 1, abs=1e-9)
            np.testing.assert_allclose(post.pair[0].sum(axis=1),
                                       post.gamma[:-1].sum(axis=0), atol=1e-9)
            np.testing.assert_allclose(post.pair[0].sum(axis=0),
                                       post.gamma[1:].sum(axis=0), atol=1e-9)

    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_single_step_sequence_has_zero_pair(self, use_odometry):
        rng = np.random.default_rng(21)
        model = random_geohmm(3, rng)
        e = random_experience(model, 1, rng)
        trellis = forward_backward(model, e, use_odometry=use_odometry)
        # With T = 1 the trellis's operator is A itself, even with
        # odometry, so posteriors does not spend it.
        for _ in range(2):
            post = posteriors(trellis, model, e)
            assert post.pair.shape == (7, 3, 3)
            assert not post.pair.any()

    def test_mismatched_trellis_rejected(self):
        rng = np.random.default_rng(23)
        model = random_geohmm(2, rng)
        e = random_experience(model, 5, rng)
        trellis = forward_backward(model, e, use_odometry=True)
        other = random_experience(model, 6, rng)
        with pytest.raises(ValueError):
            posteriors(trellis, model, other)

    def test_transition_mass_tracks_transition_prob(self):
        # raising A[i,j] (renormalized) should not shrink total xi[i,j]
        rng = np.random.default_rng(29)
        model = random_geohmm(3, rng)
        e = random_experience(model, 15, rng)

        def total_xi(m):
            trellis = forward_backward(m, e)
            return posteriors(trellis, m, e).pair[0]

        base = total_xi(model)
        A = model.A.copy()
        A[0, 1] *= 2.5
        A /= A.sum(axis=1, keepdims=True)
        boosted = total_xi(GeoHmm(A=A, B=model.B,
                                  start_state=model.start_state,
                                  relations=model.relations))
        assert boosted[0, 1] >= base[0, 1] - 1e-9


class TestXiFreePosteriors:
    """posteriors against the explicit, self-normalized xi of the oracle."""

    @pytest.mark.parametrize("T", [1, 2, 3, 17, 800])
    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_matches_xi_reference(self, T, use_odometry):
        rng = np.random.default_rng(300 + T)
        for model in (random_geohmm(4, rng, obs_dims=(3, 2)),
                      sparse_geohmm(5, rng)):
            e = random_experience(model, T, rng)
            trellis = forward_backward(model, e, use_odometry)
            want = reference_posteriors(trellis, model, e)
            got = posteriors(trellis, model, e)   # spends the step tensor
            np.testing.assert_allclose(got.gamma, want.gamma, rtol=1e-12,
                                       atol=0)
            np.testing.assert_allclose(got.pair, want.pair, rtol=0,
                                       atol=1e-12 * np.abs(want.pair).max())
            # structural zeros of A stay exact zeros
            assert not got.pair[:, model.A == 0.0].any()

    def test_no_pair_tensor_without_odometry(self):
        n, T = 16, 800
        rng = np.random.default_rng(7)
        model = random_geohmm(n, rng)
        e = random_experience(model, T, rng)
        trellis = forward_backward(model, e, use_odometry=False)
        tracemalloc.start()
        try:
            posteriors(trellis, model, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Below one (T-1, 7, N) float array: the weighted alpha rows are
        # formed one feature at a time.
        assert peak < 8 * (T - 1) * 7 * n, peak


class TestSpentTrellis:
    """posteriors builds xi in the trellis's step operators and reads the
    lazily computed beta."""

    def test_second_posteriors_call_raises(self):
        rng = np.random.default_rng(71)
        model = random_geohmm(3, rng)
        e = random_experience(model, 9, rng)
        trellis = forward_backward(model, e)
        posteriors(trellis, model, e)
        assert trellis.pending is None
        with pytest.raises(ValueError, match="spent"):
            posteriors(trellis, model, e)

    @pytest.mark.parametrize("use_odometry", [True, False])
    def test_backward_scan_runs_once(self, monkeypatch, use_odometry):
        scans = []
        scan = inference._backward_scan

        def counted_scan(*args):
            scans.append(1)
            return scan(*args)

        monkeypatch.setattr(inference, "_backward_scan", counted_scan)
        rng = np.random.default_rng(79)
        model = random_geohmm(4, rng)
        e = random_experience(model, 30, rng)
        trellis = forward_backward(model, e, use_odometry)
        assert scans == []
        first = trellis.beta
        assert trellis.beta is first
        post = posteriors(trellis, model, e)
        assert len(scans) == 1
        np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, rtol=1e-12)


def random_spread_relations(n, rng):
    """Relations with means up to 12 m, variances from VAR_FLOOR up, and
    concentrations that include 0 and KAPPA_MAX."""
    mu_x, mu_y = rng.uniform(-12.0, 12.0, (2, n, n))
    mu_t = rng.uniform(-np.pi, np.pi, (n, n))
    for m in (mu_x, mu_y, mu_t):
        np.fill_diagonal(m, 0.0)
    var_x, var_y = 10.0 ** rng.uniform(np.log10(VAR_FLOOR), 1.0, (2, n, n))
    var_x[0] = VAR_FLOOR
    var_y[:, 1] = VAR_FLOOR
    kappa = rng.uniform(0.0, 50.0, (n, n))
    kappa[2] = 0.0
    kappa[:, 3] = KAPPA_MAX
    return RelationMatrix(mu_x, mu_y, mu_t, var_x, var_y, kappa)


class TestRelationDensityProduct:
    """The natural-parameter product against the elementwise formula."""

    @staticmethod
    def readings(R, rng, T1):
        """Readings near random relations' means, plus far-off ones, with
        headings shifted by -2 pi, 0 or +2 pi."""
        n = R.n_states
        i, j = rng.integers(n, size=(2, T1))
        spread = rng.choice([1e-3, 0.1, 1.0, 30.0], size=(T1, 1))
        near = np.column_stack([R.mu_x[i, j], R.mu_y[i, j], R.mu_theta[i, j]])
        readings = near + spread * rng.normal(size=(T1, 3))
        readings[:, 2] = (wrap_angle(readings[:, 2])
                          + 2.0 * np.pi * rng.integers(-1, 2, size=T1))
        return readings

    @pytest.mark.parametrize("seed", range(5))
    def test_log_density_within_bound(self, seed):
        rng = np.random.default_rng(seed)
        R = random_spread_relations(6, rng)
        readings = self.readings(R, rng, 400)
        e = ExperienceSequence(np.zeros((len(readings) + 1, 1), dtype=int),
                               readings)
        want = reference_relation_log_density(readings, R)
        got = (e.features @ R.eta.reshape(7, -1)).reshape(want.shape)
        dx, dy = readings[:, 0, None, None], readings[:, 1, None, None]
        # Rounding of the expanded squares, of the heading term and of the
        # normalizers log(2 pi var), which reach 12 at VAR_FLOOR.
        bound = 8.0 * np.finfo(float).eps * (
            1.0 + (dx ** 2 + R.mu_x ** 2) / R.var_x
            + (dy ** 2 + R.mu_y ** 2) / R.var_y
            + np.clip(R.kappa_theta, 0.0, KAPPA_MAX)
            + np.abs(np.log(2.0 * np.pi * R.var_x))
            + np.abs(np.log(2.0 * np.pi * R.var_y)))
        assert np.isfinite(want).all()
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("seed", range(3))
    def test_tensor_matches_reference_and_zeros_stay_zeros(self, seed):
        rng = np.random.default_rng(10 + seed)
        model = random_geohmm(6, rng)
        model = model.replace(relations=random_spread_relations(6, rng))
        readings = self.readings(model.relations, rng, 300)
        e = ExperienceSequence(observations=np.zeros((301, 1), dtype=int),
                               readings=readings)
        got = relation_density_tensor(model, e)
        want = reference_relation_density_tensor(model, e)
        assert (want == 0.0).any() and (want > 0.0).any()
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        # the log bound above is below 1e-6 at these scales
        live = want > 0.0
        np.testing.assert_allclose(np.log(got[live]), np.log(want[live]),
                                   rtol=1e-6, atol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("value", [1e200, -1e200])
    def test_huge_readings_give_no_nan(self, column, value):
        rng = np.random.default_rng(31)
        model = random_geohmm(4, rng)
        e = random_experience(model, 12, rng)
        readings = e.readings.copy()
        readings[6, column] = value
        e = ExperienceSequence(observations=e.observations, readings=readings)
        got = relation_density_tensor(model, e)
        want = reference_relation_density_tensor(model, e)
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        step = TestBlockedRecursion._outcome(lambda: forward_backward(model, e))
        assert step == TestBlockedRecursion._outcome(
            lambda: reference_forward_backward(model, e))
        assert step == (7 if column < 2 else None)


class TestPairStatistics:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(43)
        for T1, n in ((0, 3), (1, 1), (5, 2), (9, 4), (30, 3)):
            xi = rng.uniform(size=(T1, n, n))
            xi /= xi.sum(axis=(1, 2), keepdims=True)
            readings = np.column_stack([rng.normal(0, 3, T1),
                                        rng.normal(0, 3, T1),
                                        rng.uniform(-np.pi, np.pi, T1)])
            np.testing.assert_allclose(pair_statistics(xi, readings),
                                       reference_pair_statistics(xi, readings),
                                       rtol=1e-12, atol=1e-12)


class TestStepOperator:
    def test_step_is_transition_times_relation_density(self):
        rng = np.random.default_rng(47)
        model = random_geohmm(3, rng)
        e = random_experience(model, 8, rng)
        want = model.A * relation_density_tensor(model, e)
        trellis = forward_backward(model, e)
        np.testing.assert_array_equal(trellis.pending[0], want)

    def test_density_floor_applied_before_product(self):
        rng = np.random.default_rng(53)
        model = random_geohmm(3, rng)
        e = random_experience(model, 8, rng)
        pairf = relation_density_tensor(model, e)
        floor = float(np.median(pairf))
        trellis = forward_backward(model, e, density_floor=floor)
        np.testing.assert_array_equal(trellis.pending[0],
                                      model.A * np.maximum(pairf, floor))

    def test_step_is_transition_matrix_without_odometry(self):
        rng = np.random.default_rng(59)
        model = random_geohmm(3, rng)
        e = random_experience(model, 8, rng)
        trellis = forward_backward(model, e, use_odometry=False)
        np.testing.assert_array_equal(trellis.pending[0], model.A)
