"""M-step updates, constrained MLE oracle checks, and the EM driver."""

import numpy as np
import pytest

from geohmm import estimation, pipeline
from geohmm.estimation import (REL_TOL, LearnConfig, em_learn,
                               project_headings, solve_positions,
                               update_observations, update_relations_additive,
                               update_relations_antisym, update_transitions)
from geohmm.inference import (Posteriors, forward_backward, pair_statistics,
                              posteriors)
from geohmm.model import (ConstraintLevel, CoordinateMode, ExperienceSequence,
                          GeoHmm, RelationMatrix, check_consistency,
                          embed_relations, natural_parameters)
from geohmm.circstats import wrap_angle
from geohmm.simgen import LoopSpec, make_loop_model, sample_sequence
from geohmm.initialization import init_model, random_model
from geohmm.pipeline import default_bucket_config, learn_runs
from oracles import (brute_force_posteriors, constrained_two_normal_mle,
                     random_experience, random_geohmm, reference_antisym_means,
                     reference_relation_log_density,
                     reference_solve_positions, reference_update_observations)


def posteriors_from_xi(xi, readings=None):
    """Posteriors consistent with a hand-crafted xi tensor and the
    readings it weighs (zeros when not given)."""
    xi = np.asarray(xi, dtype=float)
    T1, n, _ = xi.shape
    gamma = np.zeros((T1 + 1, n))
    gamma[:-1] = xi.sum(axis=2)
    gamma[-1] = xi[-1].sum(axis=0)
    if readings is None:
        readings = np.zeros((T1, 3))
    return Posteriors(gamma=gamma, pair=pair_statistics(xi, readings))


class TestUpdateTransitions:
    def test_uniform_xi_gives_uniform_rows(self):
        xi = np.full((6, 2, 2), 0.25)
        post = posteriors_from_xi(xi)
        A = update_transitions(post, np.eye(2))
        np.testing.assert_allclose(A, 0.5)

    def test_deterministic_transition(self):
        xi = np.zeros((5, 2, 2))
        xi[:, 0, 1] = 1.0
        post = posteriors_from_xi(xi)
        A = update_transitions(post, np.full((2, 2), 0.5))
        assert A[0, 1] == 1.0
        # row 1 had no weight: keeps the previous row
        np.testing.assert_allclose(A[1], [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        xi = rng.uniform(size=(9, 4, 4))
        xi /= xi.sum(axis=(1, 2), keepdims=True)
        A = update_transitions(posteriors_from_xi(xi), np.eye(4))
        np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)


class TestUpdateObservations:
    def test_concentrated_gamma_constant_symbol(self):
        gamma = np.zeros((4, 2))
        gamma[:, 1] = 1.0
        pair = pair_statistics(np.zeros((3, 2, 2)), np.zeros((3, 3)))
        post = Posteriors(gamma=gamma, pair=pair)
        e = ExperienceSequence(observations=np.full((4, 1), 2, dtype=int),
                               readings=np.zeros((3, 3)))
        B = update_observations(post, e, (np.full((3, 2), 1 / 3),))
        assert B[0][2, 1] == 1.0
        np.testing.assert_allclose(B[0][:, 0], 1 / 3)   # no weight: kept

    def test_uniform_gamma_counts_symbols(self):
        gamma = np.full((4, 2), 0.5)
        pair = pair_statistics(np.zeros((3, 2, 2)), np.zeros((3, 3)))
        post = Posteriors(gamma=gamma, pair=pair)
        obs = np.array([[0], [1], [0], [1]])
        e = ExperienceSequence(observations=obs, readings=np.zeros((3, 3)))
        B = update_observations(post, e, (np.full((2, 2), 0.5),))
        np.testing.assert_allclose(B[0], 0.5)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        gamma = rng.dirichlet(np.ones(3), size=8)
        pair = pair_statistics(np.zeros((7, 3, 3)), np.zeros((7, 3)))
        post = Posteriors(gamma=gamma, pair=pair)
        obs = rng.integers(0, 4, size=(8, 2))
        e = ExperienceSequence(observations=obs, readings=np.zeros((7, 3)))
        B = update_observations(post, e, (np.full((4, 3), 0.25),) * 2)
        for b in B:
            np.testing.assert_allclose(b.sum(axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("pseudocount", [0.0, 0.005])
    def test_matches_scatter_reference(self, pseudocount):
        model = make_loop_model(LoopSpec())
        e = sample_sequence(model, 800, np.random.default_rng(11))
        gamma = np.random.default_rng(2).dirichlet(np.ones(16), size=800)
        gamma[:, 3] = 0.0                  # a state with no occupancy
        pair = pair_statistics(np.zeros((799, 16, 16)), e.readings)
        B = update_observations(Posteriors(gamma=gamma, pair=pair), e,
                                model.B, pseudocount)
        want = reference_update_observations(gamma, e.observations, model.B,
                                             pseudocount)
        for b, w in zip(B, want):
            np.testing.assert_allclose(b, w, rtol=1e-12, atol=0)


class TestConstrainedTwoNormalMle:
    def grid_oracle(self, P, Q, lo, hi):
        """Profile-likelihood grid search over mu, refined around the peak;
        the per-mu optimal variances have the textbook closed forms,
        independent of the cubic-root route under test."""
        P, Q = np.asarray(P, float), np.asarray(Q, float)

        def best_on(mus):
            sp2 = ((P[:, None] - mus) ** 2).mean(axis=0)
            sq2 = ((Q[:, None] + mus) ** 2).mean(axis=0)
            ll = -0.5 * (len(P) * np.log(sp2) + len(Q) * np.log(sq2))
            return mus[np.argmax(ll)]

        center = best_on(np.linspace(lo, hi, 20001))
        step = (hi - lo) / 20000
        for _ in range(3):
            center = best_on(np.linspace(center - 2 * step,
                                         center + 2 * step, 2001))
            step = 4 * step / 2000
        return center

    def test_singleton_consistent_pair_is_degenerate(self):
        with pytest.raises(ValueError):
            constrained_two_normal_mle([1.3], [-1.3])

    def test_exactly_consistent_constants_floor(self):
        mu, vp, vq = constrained_two_normal_mle([1, 1, 1, 1], [-1, -1])
        assert mu == 1.0
        assert vp == pytest.approx(1e-6) and vq == pytest.approx(1e-6)

    def test_conflicting_constants_rejected(self):
        with pytest.raises(ValueError):
            constrained_two_normal_mle([1.0, 1.0], [-2.0, -2.0])

    def test_frozen_example_matches_grid(self):
        P, Q = [0.9, 1.1], [-2.0, -1.8]
        mu, vp, vq = constrained_two_normal_mle(P, Q)
        want = self.grid_oracle(P, Q, 0.5, 2.5)
        assert mu == pytest.approx(want, abs=1e-4)
        assert vp == pytest.approx(np.mean((np.array(P) - mu) ** 2), rel=1e-9)
        assert vq == pytest.approx(np.mean((np.array(Q) + mu) ** 2), rel=1e-9)

    def test_twenty_random_pairs_match_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            center = rng.uniform(-3, 3)
            P = rng.normal(center, rng.uniform(0.3, 2.0),
                           size=rng.integers(2, 8))
            Q = rng.normal(-center + rng.uniform(-0.5, 0.5),
                           rng.uniform(0.3, 2.0), size=rng.integers(2, 8))
            mu, _, _ = constrained_two_normal_mle(P, Q)
            lo = min(P.min(), -Q.max()) - 3.0
            hi = max(P.max(), -Q.min()) + 3.0
            want = self.grid_oracle(P, Q, lo, hi)
            assert mu == pytest.approx(want, abs=1e-4)


class TestLagBehindFixedPoint:
    def test_converges_to_constrained_mle(self):
        rng = np.random.default_rng(13)
        P = rng.normal(1.0, 0.4, size=6)
        Q = rng.normal(-1.2, 0.9, size=4)
        xi = np.zeros((10, 2, 2))
        readings = np.zeros((10, 3))
        for t, p in enumerate(P):
            xi[t, 0, 1] = 1.0
            readings[t, 0] = p
        for t, q in enumerate(Q):
            xi[len(P) + t, 1, 0] = 1.0
            readings[len(P) + t, 0] = q
        post = posteriors_from_xi(xi, readings)

        R = RelationMatrix.zero(2, var=4.0, kappa=1.0)
        for _ in range(300):
            R = update_relations_antisym(post, R, CoordinateMode.GLOBAL)
        mu, vp, vq = constrained_two_normal_mle(P, Q)
        assert R.mu_x[0, 1] == pytest.approx(mu, abs=1e-6)
        assert R.mu_x[1, 0] == pytest.approx(-mu, abs=1e-6)
        assert R.var_x[0, 1] == pytest.approx(vp, abs=1e-6)
        assert R.var_x[1, 0] == pytest.approx(vq, abs=1e-6)

    def test_mutual_equations_hold_at_fixed_point(self):
        rng = np.random.default_rng(17)
        P = rng.normal(0.8, 0.5, size=5)
        Q = rng.normal(-0.6, 0.7, size=5)
        xi = np.zeros((10, 2, 2))
        readings = np.zeros((10, 3))
        for t, p in enumerate(P):
            xi[t, 0, 1] = 1.0
            readings[t, 0] = p
        for t, q in enumerate(Q):
            xi[5 + t, 1, 0] = 1.0
            readings[5 + t, 0] = q
        post = posteriors_from_xi(xi, readings)
        R = RelationMatrix.zero(2, var=1.0, kappa=1.0)
        for _ in range(300):
            R = update_relations_antisym(post, R, CoordinateMode.GLOBAL)
        mu, vp, vq = R.mu_x[0, 1], R.var_x[0, 1], R.var_x[1, 0]
        # simultaneous (non-lagged) stationarity of the mean equation
        want_mu = ((P.sum() / vp) - (Q.sum() / vq)) / (len(P) / vp
                                                       + len(Q) / vq)
        assert mu == pytest.approx(want_mu, abs=1e-6)


class TestUpdateRelationsAntisym:
    def test_equal_variance_symmetric_weights(self):
        fw = [2.0, 2.4]
        bw = [-1.8, -2.2]
        xi = np.zeros((4, 2, 2))
        readings = np.zeros((4, 3))
        xi[0, 0, 1], xi[1, 0, 1] = 1.0, 1.0
        readings[0, 0], readings[1, 0] = fw
        xi[2, 1, 0], xi[3, 1, 0] = 1.0, 1.0
        readings[2, 0], readings[3, 0] = bw
        R_old = RelationMatrix.zero(2, var=2.5, kappa=1.0)
        R = update_relations_antisym(posteriors_from_xi(xi, readings),
                                     R_old, CoordinateMode.GLOBAL)
        want = (np.mean(fw) - np.mean(bw)) / 2.0
        assert R.mu_x[0, 1] == pytest.approx(want, rel=1e-12)
        assert R.mu_x[1, 0] == pytest.approx(-want, rel=1e-12)

    def test_no_reverse_transitions_reduces_to_weighted_stats(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(1.5, 0.3, size=6)
        weights = rng.uniform(0.2, 1.0, size=6)
        xi = np.zeros((6, 2, 2))
        readings = np.zeros((6, 3))
        xi[:, 0, 1] = weights
        readings[:, 0] = vals
        R = update_relations_antisym(posteriors_from_xi(xi, readings),
                                     RelationMatrix.zero(2, var=1.0),
                                     CoordinateMode.GLOBAL)
        want_mu = np.average(vals, weights=weights)
        want_var = np.average((vals - want_mu) ** 2, weights=weights)
        assert R.mu_x[0, 1] == pytest.approx(want_mu, rel=1e-12)
        assert R.var_x[0, 1] == pytest.approx(want_var, rel=1e-12)
        # dataless reverse direction keeps its previous variance
        assert R.var_x[1, 0] == 1.0

    @pytest.mark.parametrize("mode", list(CoordinateMode))
    def test_zero_weight_pairs_keep_old_values(self, mode):
        xi = np.zeros((2, 3, 3))
        xi[:, 0, 1] = 1.0
        readings = np.array([[1.0, 0, 0], [1.2, 0, 0]])
        R_old = RelationMatrix.zero(3, var=1.0)
        R_old.mu_x[1, 2], R_old.mu_x[2, 1] = 7.0, -7.0
        R_old.mu_y[1, 2], R_old.mu_y[2, 1] = 2.0, -3.0
        R_old.mu_theta[1, 2], R_old.mu_theta[2, 1] = 0.4, -0.4
        R = update_relations_antisym(posteriors_from_xi(xi, readings),
                                     R_old, mode)
        for name in ("mu_x", "mu_y", "mu_theta"):
            got, old = getattr(R, name), getattr(R_old, name)
            assert got[1, 2] == old[1, 2] and got[2, 1] == old[2, 1]

    @pytest.mark.parametrize("mode", list(CoordinateMode))
    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("near_pi", [False, True])
    def test_matches_per_pair_reference(self, mode, n, near_pi):
        rng = np.random.default_rng(n)
        T1 = 60
        # Pairs i < j in turn seen both ways, forward only, backward
        # only and not at all.
        i, j = np.triu_indices(n, 1)
        kind = rng.permutation(np.arange(len(i)) % 4)
        seen = np.zeros((n, n), dtype=bool)
        seen[i[kind <= 1], j[kind <= 1]] = True
        seen[j[kind % 2 == 0], i[kind % 2 == 0]] = True
        xi = rng.uniform(size=(T1, n, n)) * seen
        dtheta = (wrap_angle(np.pi + rng.normal(0.0, 0.05, size=T1))
                  if near_pi else rng.uniform(-np.pi, np.pi, size=T1))
        readings = np.column_stack([rng.normal(1.0, 1.5, size=T1),
                                    rng.normal(-0.5, 1.5, size=T1), dtheta])
        post = posteriors_from_xi(xi, readings)
        # independent per-direction var_x and var_y
        R_old = random_geohmm(n, rng, mode=mode).relations
        R = update_relations_antisym(post, R_old, mode)
        if near_pi:
            live = (post.pair[0] + post.pair[0].T) > 0
            assert np.all(np.abs(R.mu_theta[live]) > 2.5)
        want_x, want_y = reference_antisym_means(post, R_old, R.mu_theta,
                                                 mode)
        np.testing.assert_allclose(R.mu_x, want_x, rtol=1e-12)
        np.testing.assert_allclose(R.mu_y, want_y, rtol=1e-12)

    @pytest.mark.parametrize("mode", [CoordinateMode.GLOBAL,
                                      CoordinateMode.RELATIVE])
    def test_postcondition_antisymmetric(self, mode):
        rng = np.random.default_rng(23)
        model = random_geohmm(4, rng, mode=mode, consistent=True)
        e = random_experience(model, 30, rng)
        trellis = forward_backward(model, e)
        from geohmm.inference import posteriors as post_fn
        post = post_fn(trellis, model, e)
        R = update_relations_antisym(post, model.relations, mode)
        check_model = GeoHmm(n_states=4, obs_dims=model.obs_dims, A=model.A,
                             B=model.B, start_state=model.start_state,
                             relations=R, mode=mode)
        report = check_consistency(check_model,
                                   ConstraintLevel.ANTISYMMETRIC, 1e-9)
        assert report.consistent, report.summary()


class TestSolvePositions:
    def test_single_edge(self):
        x = solve_positions([(0, 1, 5.0, 2.0)], 2)
        np.testing.assert_allclose(x, [0.0, 5.0])

    def test_three_edge_normal_equations(self):
        targets = [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 3.0, 1.0)]
        x = solve_positions(targets, 3)
        np.testing.assert_allclose(x, [0.0, 4 / 3, 8 / 3], atol=1e-12)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(5)
        targets = [(i, j, rng.normal(), rng.uniform(0.5, 2.0))
                   for i in range(4) for j in range(4) if i != j]
        x1 = solve_positions(targets, 4)
        scaled = [(i, j, v, 17.0 * w) for i, j, v, w in targets]
        x2 = solve_positions(scaled, 4)
        np.testing.assert_allclose(x1, x2, atol=1e-9)

    def test_consistent_chain_zero_residual(self):
        targets = [(0, 1, 2.0, 1.0), (1, 2, 3.0, 5.0), (0, 2, 5.0, 0.25)]
        x = solve_positions(targets, 3)
        np.testing.assert_allclose(x, [0.0, 2.0, 5.0], atol=1e-12)

    def test_disconnected_components_anchored(self):
        targets = [(0, 1, 1.0, 1.0), (2, 3, 4.0, 1.0)]
        x = solve_positions(targets, 5)
        np.testing.assert_allclose(x[[0, 1]], [0.0, 1.0])
        np.testing.assert_allclose(x[[2, 3]], [0.0, 4.0])
        assert x[4] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_positions([], 0)
        with pytest.raises(ValueError):
            solve_positions([(0, 1, 1.0, -2.0)], 2)
        with pytest.raises(ValueError):
            solve_positions([(0, 2, 1.0, 1.0)], 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_loop_reference_on_random_graphs(self, seed):
        # Edges only inside 1-4 random groups, so several components
        # (and isolated nodes) appear; zero weights and self-pairs are
        # dropped by both solvers.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 17))
        group = rng.integers(0, rng.integers(1, 5), n)
        i, j = rng.integers(0, n, (2, int(rng.integers(0, 4 * n))))
        i, j = i[group[i] == group[j]], j[group[i] == group[j]]
        weight = rng.uniform(0.05, 20.0, len(i)) * (rng.uniform(size=len(i))
                                                    > 0.2)
        targets = np.column_stack([i, j, rng.normal(0, 5, len(i)), weight])
        want = reference_solve_positions(targets, n)
        np.testing.assert_allclose(solve_positions(targets, n), want,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            solve_positions([tuple(row) for row in targets], n), want,
            rtol=1e-12, atol=0)


class TestProjectHeadings:
    def test_identity_on_additive_input(self):
        theta_true = np.array([0.0, 0.4, -1.0, 2.2])
        raw = wrap_angle(theta_true[None, :] - theta_true[:, None])
        weights = np.full((4, 4), 3.0)
        theta, mu = project_headings(raw, weights)
        np.testing.assert_allclose(mu, raw, atol=1e-12)
        np.testing.assert_allclose(theta, theta_true, atol=1e-12)

    def test_weak_cycle_closer_takes_most_of_misclosure(self):
        # One cycle: each pair absorbs the misclosure m = mu01 + mu12 - mu02
        # in proportion to 1 / weight, here 2 of 2.04 on the weak closer.
        raw = np.zeros((3, 3))
        weights = np.zeros((3, 3))
        raw[0, 1], raw[1, 0] = np.pi / 2, -np.pi / 2
        raw[1, 2], raw[2, 1] = np.pi / 2, -np.pi / 2
        raw[0, 2], raw[2, 0] = np.radians(170.0), -np.radians(170.0)
        weights[0, 1] = weights[1, 2] = 50.0
        weights[0, 2] = 0.5
        theta, mu = project_headings(raw, weights)
        m = np.radians(10.0)
        strong = np.pi / 2 - m * 0.02 / 2.04
        np.testing.assert_allclose(theta, [0.0, strong, 2 * strong],
                                   atol=1e-12)
        assert mu[0, 1] == pytest.approx(strong, abs=1e-12)
        assert mu[1, 2] == pytest.approx(strong, abs=1e-12)
        assert mu[0, 2] == pytest.approx(np.radians(170.0) + m * 2 / 2.04,
                                         abs=1e-12)

    def test_all_soft_is_weighted_least_squares(self):
        rng = np.random.default_rng(11)
        theta_true = np.array([0.0, 0.5, 1.1, -0.7])
        raw = wrap_angle(theta_true[None, :] - theta_true[:, None]
                         + rng.normal(0, 0.05, size=(4, 4)))
        raw = (raw - raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        weights = rng.uniform(0.01, 0.2, size=(4, 4))
        theta, mu = project_headings(raw, weights)

        def residual(candidate):
            diff = wrap_angle(raw - (candidate[None, :] - candidate[:, None]))
            w = weights + weights.T
            return float(np.sum(np.triu(w * diff ** 2, k=1)))

        ours = residual(theta)
        for _ in range(200):
            assert ours <= residual(rng.normal(0, 1.5, size=4)) + 1e-9

    def test_cycle_misclosure_shared_inverse_to_weight(self):
        # m = 1 + 1 - 1.5 = 0.5 split as (1/30, 1/20, 1/10) / (11/60).
        raw = np.zeros((3, 3))
        for (i, j), v in (((0, 1), 1.0), ((1, 2), 1.0), ((0, 2), 1.5)):
            raw[i, j], raw[j, i] = v, -v
        weights = np.zeros((3, 3))
        weights[0, 1], weights[1, 2], weights[0, 2] = 30.0, 20.0, 10.0
        theta, mu = project_headings(raw, weights)
        assert mu[0, 1] == pytest.approx(1.0 - 1.0 / 11.0, abs=1e-12)
        assert mu[1, 2] == pytest.approx(1.0 - 3.0 / 22.0, abs=1e-12)
        assert mu[0, 2] == pytest.approx(1.5 + 3.0 / 11.0, abs=1e-12)


class TestUpdateRelationsAdditive:
    def make_square_posteriors(self, corrupt_weight=None):
        # square loop 0->1->2->3->0 on the unit square, plus an optional
        # corrupted low-weight (0,2) relation
        legs = {(0, 1): (1.0, 0.0), (1, 2): (0.0, 1.0),
                (2, 3): (-1.0, 0.0), (3, 0): (0.0, -1.0)}
        entries = []
        for (i, j), (dx, dy) in legs.items():
            for _ in range(3):
                entries.append((i, j, dx, dy, 20.0))
        if corrupt_weight is not None:
            entries.append((0, 2, 9.9, -4.2, corrupt_weight))
        xi = np.zeros((len(entries), 4, 4))
        readings = np.zeros((len(entries), 3))
        for t, (i, j, dx, dy, w) in enumerate(entries):
            xi[t, i, j] = w
            readings[t, 0], readings[t, 1] = dx, dy
        return posteriors_from_xi(xi, readings)

    def test_noise_free_embedding_recovered(self):
        post = self.make_square_posteriors()
        R, theta = update_relations_additive(
            post, RelationMatrix.zero(4, var=1.0), CoordinateMode.GLOBAL)
        assert R.mu_x[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert R.mu_y[1, 2] == pytest.approx(1.0, abs=1e-9)
        assert R.mu_x[0, 2] == pytest.approx(1.0, abs=1e-9)
        assert R.mu_y[0, 2] == pytest.approx(1.0, abs=1e-9)

    def test_corrupted_low_weight_relation_replaced_by_leg_sum(self):
        post = self.make_square_posteriors(corrupt_weight=1e-7)
        R, _ = update_relations_additive(
            post, RelationMatrix.zero(4, var=1.0), CoordinateMode.GLOBAL)
        assert R.mu_x[0, 2] == pytest.approx(1.0, abs=1e-5)
        assert R.mu_y[0, 2] == pytest.approx(1.0, abs=1e-5)

    def test_two_states_reduces_to_antisym(self):
        rng = np.random.default_rng(31)
        xi = np.zeros((8, 2, 2))
        readings = np.zeros((8, 3))
        for t in range(5):
            xi[t, 0, 1] = rng.uniform(0.5, 1.0)
            readings[t] = rng.normal(0, 1, size=3)
        for t in range(5, 8):
            xi[t, 1, 0] = rng.uniform(0.5, 1.0)
            readings[t] = rng.normal(0, 1, size=3)
        readings[:, 2] = wrap_angle(readings[:, 2])
        post = posteriors_from_xi(xi, readings)
        R_old = RelationMatrix.zero(2, var=1.3, kappa=2.0)
        R_add, _ = update_relations_additive(post, R_old,
                                             CoordinateMode.GLOBAL)
        R_anti = update_relations_antisym(post, R_old, CoordinateMode.GLOBAL)
        np.testing.assert_allclose(R_add.mu_x, R_anti.mu_x, atol=1e-9)
        np.testing.assert_allclose(R_add.mu_y, R_anti.mu_y, atol=1e-9)
        np.testing.assert_allclose(R_add.mu_theta, R_anti.mu_theta,
                                   atol=1e-9)
        np.testing.assert_allclose(R_add.var_x, R_anti.var_x, atol=1e-9)

    @pytest.mark.parametrize("mode", [CoordinateMode.GLOBAL,
                                      CoordinateMode.RELATIVE])
    def test_postcondition_additive(self, mode):
        rng = np.random.default_rng(37)
        model = random_geohmm(4, rng, mode=mode, consistent=True)
        e = random_experience(model, 40, rng)
        trellis = forward_backward(model, e)
        from geohmm.inference import posteriors as post_fn
        post = post_fn(trellis, model, e)
        R, _ = update_relations_additive(post, model.relations, mode)
        check_model = GeoHmm(n_states=4, obs_dims=model.obs_dims, A=model.A,
                             B=model.B, start_state=model.start_state,
                             relations=R, mode=mode)
        report = check_consistency(check_model, ConstraintLevel.ADDITIVE,
                                   1e-9)
        assert report.consistent, report.summary()


class TestEmLearn:
    def test_stationary_start_converges_immediately(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 600, np.random.default_rng(3))
        cfg = LearnConfig(constraint_level=ConstraintLevel.ANTISYMMETRIC,
                          max_iters=30)
        _, report = em_learn(seq, true, cfg)
        assert report.converged
        assert report.iterations_run <= 5

    def test_trace_length_invariant(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 200, np.random.default_rng(4))
        _, report = em_learn(seq, true, LearnConfig(max_iters=10))
        assert len(report.loglik_trace) == report.iterations_run + 1

    @pytest.mark.parametrize("level", [ConstraintLevel.UNCONSTRAINED,
                                       ConstraintLevel.ANTISYMMETRIC])
    def test_gem_monotone_randomized(self, level):
        rng = np.random.default_rng(41)
        for k in range(10):
            model = random_geohmm(int(rng.integers(2, 5)), rng,
                                  consistent=True)
            seq = sample_sequence(model, 60, rng)
            start = random_geohmm(model.n_states, rng, consistent=True)
            start = GeoHmm(n_states=model.n_states, obs_dims=model.obs_dims,
                           A=start.A, B=start.B,
                           start_state=model.start_state,
                           relations=start.relations, mode=start.mode)
            cfg = LearnConfig(constraint_level=level, max_iters=25)
            _, report = em_learn(seq, start, cfg)
            trace = np.array(report.loglik_trace)
            drops = np.diff(trace) < -1e-8 * np.abs(trace[:-1])
            assert not drops.any(), (k, trace)
            assert not report.monotonicity_violations

    def test_additive_trace_never_decreases(self):
        true = make_loop_model(LoopSpec())
        for s in range(4):
            seq = sample_sequence(true, 300, np.random.default_rng(50 + s))
            init = init_model(seq, 16, default_bucket_config(seq))
            cfg = LearnConfig(constraint_level=ConstraintLevel.ADDITIVE,
                              max_iters=40)
            _, report = em_learn(seq, init, cfg)
            trace = np.array(report.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

    def test_constraints_hold_after_every_m_step(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 250, np.random.default_rng(8))
        init = init_model(seq, 16, default_bucket_config(seq))
        for level in (ConstraintLevel.ANTISYMMETRIC, ConstraintLevel.ADDITIVE):
            seen = []

            def check(_it, model, _level=level, _seen=seen):
                report = check_consistency(model, _level, 1e-9)
                _seen.append(report.consistent)

            cfg = LearnConfig(constraint_level=level, max_iters=15)
            em_learn(seq, init, cfg, on_iteration=check)
            assert seen and all(seen)

    def test_loop_cycle_recovered(self):
        spec = LoopSpec(corridor_lengths=(4.0, 4.0, 4.0, 4.0),
                        states_per_corridor=(1, 1, 1, 1))
        true = make_loop_model(spec)
        seq = sample_sequence(true, 150, np.random.default_rng(9))
        init = init_model(seq, 4, default_bucket_config(seq))
        cfg = LearnConfig(constraint_level=ConstraintLevel.ADDITIVE,
                          max_iters=60)
        model, _ = em_learn(seq, init, cfg)
        for i in range(4):
            assert model.A[i].argmax() in (i, (i + 1) % 4)
        off_diag = model.A * (1 - np.eye(4))
        for i in range(4):
            assert off_diag[i].argmax() == (i + 1) % 4

    def test_mode_conflict_rejected(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 50, np.random.default_rng(10))
        cfg = LearnConfig(mode=CoordinateMode.RELATIVE)
        with pytest.raises(ValueError):
            em_learn(seq, true, cfg)

    def test_baseline_without_odometry_runs(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 150, np.random.default_rng(11))
        start = random_model(16, true.obs_dims, np.random.default_rng(12))
        cfg = LearnConfig(use_odometry=False, max_iters=20)
        model, report = em_learn(seq, start, cfg)
        trace = np.array(report.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
        # relations untouched by the baseline
        np.testing.assert_array_equal(model.relations.mu_x,
                                      start.relations.mu_x)


def relative_loop():
    """The T=800 RELATIVE-mode loop sequence of the relative repros."""
    spec = LoopSpec(mode=CoordinateMode.RELATIVE)
    return sample_sequence(make_loop_model(spec), 800,
                           np.random.default_rng(11))


def map_objective(model, seq, pseudocount):
    """loglik + pc * (sum log A + sum log B), written out."""
    log_prior = np.log(model.A).sum() + sum(np.log(b).sum() for b in model.B)
    return forward_backward(model, seq).loglik + pseudocount * log_prior


class TestOneEStepPerIteration:
    @pytest.mark.parametrize("mode", [CoordinateMode.GLOBAL,
                                      CoordinateMode.RELATIVE])
    def test_relation_term_of_q_is_pair_dot_eta(self, mode):
        # <pair, eta(R)> is sum_t sum_ij xi[t, i, j] log f(r_t | R[i, j]),
        # the relation term of Q that the guard compares across R.
        rng = np.random.default_rng(61)
        for _ in range(4):
            model = random_geohmm(3, rng, mode=mode)
            e = random_experience(model, 6, rng)
            post = posteriors(forward_backward(model, e), model, e)
            _, _, xi = brute_force_posteriors(model, e, True)
            other = random_geohmm(3, rng, mode=mode).relations
            for R in (model.relations, other):
                want = (xi * reference_relation_log_density(e.readings,
                                                            R)).sum()
                got = np.vdot(post.pair, natural_parameters(R))
                assert got == pytest.approx(want, rel=1e-9)

    def test_one_forward_backward_per_iteration(self, monkeypatch):
        # The relative-additive repro, whose relation candidates can lower
        # Q and are then held: each one used to cost a second E-step (65
        # calls for 50 iterations).
        calls, per_run = [], []

        def counted_fb(*args, **kwargs):
            calls.append(1)
            return forward_backward(*args, **kwargs)

        def counted_learn(*args, **kwargs):
            del calls[:]
            out = em_learn(*args, **kwargs)
            per_run.append(len(calls))
            return out

        monkeypatch.setattr(estimation, "forward_backward", counted_fb)
        monkeypatch.setattr(pipeline, "em_learn", counted_learn)
        runs = learn_runs(relative_loop(), 16, LearnConfig(
            constraint_level=ConstraintLevel.ADDITIVE,
            mode=CoordinateMode.RELATIVE), restarts=3, seed=5)
        for run, n_calls in zip(runs, per_run):
            rep, trace = run.report, run.report.loglik_trace
            # A refused step costs one E-step more. It ends a run that
            # REL_TOL did not stop: after no step, or one that gained.
            refused = rep.converged and (
                rep.iterations_run == 0
                or trace[-1] - trace[-2] >= REL_TOL * abs(trace[-2]))
            assert n_calls == rep.iterations_run + 1 + refused
            assert np.all(np.diff(trace) >= 0.0)
            assert all(drop > 0.0 for _, drop in rep.monotonicity_violations)
        assert any(r.report.monotonicity_violations for r in runs)

    def test_map_trace_is_the_smoothed_objective(self):
        # Judged by the plain loglik, this run used to stop after 24
        # iterations on a 4e-5 loglik drop, its MAP objective still
        # climbing.
        seq = relative_loop()
        pc = 0.005
        run, = learn_runs(seq, 16, LearnConfig(
            constraint_level=ConstraintLevel.ANTISYMMETRIC,
            mode=CoordinateMode.RELATIVE, pseudocount=pc), seed=5)
        trace = run.report.loglik_trace
        assert np.all(np.diff(trace) >= 0.0)
        assert trace[-1] == pytest.approx(map_objective(run.model, seq, pc),
                                          rel=1e-12)

    def test_zero_cells_start_the_map_trace_at_minus_infinity(self):
        true = make_loop_model(LoopSpec())
        assert (true.A == 0.0).any()
        seq = sample_sequence(true, 300, np.random.default_rng(11))
        _, report = em_learn(seq, true, LearnConfig(
            constraint_level=ConstraintLevel.ADDITIVE, pseudocount=0.005,
            max_iters=20))
        trace = np.array(report.loglik_trace)
        assert trace[0] == -np.inf
        assert report.iterations_run >= 1
        assert np.all(np.isfinite(trace[1:]))
        assert np.all(np.diff(trace[1:]) >= 0.0)


class TestPinnedAnswers:
    """em_learn's answers on the T=800 loop sequence, pinned: a change
    that alters them is a change in behaviour. Pseudocount 0, so the
    pins hold whatever objective judges smoothed steps."""

    @pytest.mark.parametrize("mode, level, iterations, final", [
        (CoordinateMode.GLOBAL, ConstraintLevel.ADDITIVE, 4,
         -174.84826296950303),
        (CoordinateMode.RELATIVE, ConstraintLevel.ANTISYMMETRIC, 25,
         -411.59179001618696),
    ])
    def test_from_initializer(self, mode, level, iterations, final):
        seq = sample_sequence(make_loop_model(LoopSpec(mode=mode)), 800,
                              np.random.default_rng(11))
        init = init_model(seq, 16, default_bucket_config(seq), mode=mode)
        _, report = em_learn(seq, init, LearnConfig(constraint_level=level,
                                                    max_iters=30))
        assert report.iterations_run == iterations
        assert report.converged
        assert report.monotonicity_violations == []
        assert report.loglik_trace[-1] == pytest.approx(final, rel=1e-12)

    def test_baseline_from_random_model(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 800, np.random.default_rng(11))
        start = random_model(16, true.obs_dims, np.random.default_rng(12))
        _, report = em_learn(seq, start, LearnConfig(use_odometry=False,
                                                     max_iters=30))
        assert report.iterations_run == 30
        assert not report.converged
        assert report.monotonicity_violations == []
        assert report.loglik_trace[-1] == pytest.approx(-1768.8536713426963,
                                                        rel=1e-12)

    def test_global_additive_restarts_agree(self):
        # A held-pair heading projection rejected steps here and left the
        # three restarts at 119.72, 119.16 and 119.20.
        seq = sample_sequence(make_loop_model(LoopSpec(obs_noise=0.15)), 800,
                              np.random.default_rng(100))
        runs = learn_runs(seq, 16, LearnConfig(
            constraint_level=ConstraintLevel.ADDITIVE), restarts=3, seed=5)
        assert [r.report.monotonicity_violations for r in runs] == [[]] * 3
        finals = [r.final_loglik for r in runs]
        assert finals == pytest.approx([finals[0]] * 3, rel=1e-8)
        assert finals[0] == pytest.approx(123.83669, abs=1e-4)


class TestLearnConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"pseudocount": -0.5}, {"pseudocount": float("inf")},
        {"pseudocount": float("nan")}, {"max_iters": -3},
        {"density_floor": -1.0}, {"density_floor": float("nan")}])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            LearnConfig(**kwargs)

    def test_edges_accepted(self):
        LearnConfig(pseudocount=0.0, max_iters=0, density_floor=0.0)


class TestResultantClamp:
    def test_negative_resultant_floors_kappa_at_zero(self):
        # readings antipodal to the (kept) zero heading mean: the raw
        # resultant is negative and must clamp to 0 before inversion
        xi = np.zeros((4, 2, 2))
        xi[:, 0, 1] = 1.0
        readings = np.zeros((4, 3))
        readings[:, 2] = np.pi - 1e-3
        readings[1::2, 2] = -np.pi + 1e-3   # mix signs: mean stays near pi
        post = posteriors_from_xi(xi, readings)
        R_old = RelationMatrix.zero(2, var=1.0, kappa=5.0)
        # pin the mean by making the old mean dominate: use additive path
        # with zero-weight headings is awkward; instead check directly that
        # a resultant computed against an antipodal mean gives kappa 0
        R = update_relations_antisym(post, R_old, CoordinateMode.GLOBAL)
        # the new mean sits near +-pi, so residuals are small and kappa is
        # large; now force the antipodal case through the unconstrained
        # update with a fixed mean by reusing the spread helper
        from geohmm.estimation import _spread_updates
        mu_force = np.zeros((2, 2))   # mean 0 while all readings near pi
        var_x, var_y, kappa = _spread_updates(
            post, R_old, mu_force, mu_force, mu_force)
        assert kappa[0, 1] == 0.0
