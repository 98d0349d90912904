"""Bucketing, state tagging, and initial-model construction.

The 8-reading square-loop walk (readings in degrees, deviation constant
20) is the canonical worked case: bucket memberships, running means, the
tagged state sequence, and the closure of the relation table under
anti-symmetry and additivity are all pinned.
"""

import hashlib
import time

import numpy as np
import pytest

from geohmm.circstats import wrap_angle
from geohmm.inference import forward_backward
from geohmm.initialization import (BUCKET_FACTOR, BucketConfig, bucketize,
                                   init_model, perturb_model, random_model,
                                   tag_states)
from geohmm.model import (ConstraintLevel, CoordinateMode, ExperienceSequence,
                          GeoHmm, RelationMatrix, check_consistency,
                          embed_relations)
from geohmm.simgen import LoopSpec, make_loop_model, sample_sequence
from geohmm.pipeline import default_bucket_config
from oracles import (bucket_add, reference_bucketize, reference_tag_states,
                     within, zero_relations)

SQUARE_WALK_DEG = [
    (2.0, 94.0, 92.0),
    (1994.0, 0.0, 88.0),
    (3.0, -93.0, 86.0),
    (-1999.0, 1.0, 94.0),
    (-4.0, 102.0, 91.0),
    (1998.0, -5.0, 90.0),
    (-2.0, -106.0, 91.0),
    (-2003.0, 7.0, 87.0),
]

BUCKET_MEANS_DEG = [
    (-1.0, 98.0, 91.5),
    (1996.0, -2.5, 89.0),
    (0.5, -99.5, 88.5),
    (-2001.0, 4.0, 90.5),
]


def square_walk_readings():
    readings = np.array(SQUARE_WALK_DEG)
    readings[:, 2] = np.radians(readings[:, 2])
    return readings


def square_walk_config():
    return BucketConfig(sigma_x=20.0, sigma_y=20.0,
                        sigma_theta=np.radians(20.0))


class TestBucketize:
    def test_square_walk_memberships(self):
        buckets, assignment = bucketize(square_walk_readings(),
                                        square_walk_config())
        assert [b.members for b in buckets[1:]] == [[0, 4], [1, 5], [2, 6],
                                                    [3, 7]]
        np.testing.assert_array_equal(assignment, [1, 2, 3, 4, 1, 2, 3, 4])

    def test_square_walk_running_means(self):
        buckets, _ = bucketize(square_walk_readings(), square_walk_config())
        for bucket, (x, y, t_deg) in zip(buckets[1:], BUCKET_MEANS_DEG):
            assert bucket.mean[0] == pytest.approx(x, abs=1e-9)
            assert bucket.mean[1] == pytest.approx(y, abs=1e-9)
            assert bucket.mean[2] == pytest.approx(np.radians(t_deg),
                                                   abs=1e-9)

    def test_identical_readings_share_one_bucket(self):
        readings = np.tile([5.0, 5.0, 0.5], (6, 1))
        buckets, assignment = bucketize(readings,
                                        BucketConfig(1.0, 1.0, 0.2))
        assert len(buckets) == 2    # the reserved zero bucket plus one
        assert buckets[1].members == list(range(6))
        assert set(assignment) == {1}

    def test_near_zero_readings_join_zero_bucket(self):
        readings = np.array([[0.1, -0.2, 0.02], [0.0, 0.1, -0.01]])
        buckets, assignment = bucketize(readings, BucketConfig(1.0, 1.0, 0.2))
        assert set(assignment) == {0}
        np.testing.assert_array_equal(buckets[0].mean, [0.0, 0.0, 0.0])

    def test_members_within_insertion_radius(self):
        rng = np.random.default_rng(0)
        readings = np.column_stack([rng.normal(0, 30, 200),
                                    rng.normal(0, 30, 200),
                                    rng.uniform(-np.pi, np.pi, 200)])
        cfg = BucketConfig(8.0, 8.0, 0.3)
        radius = BUCKET_FACTOR * cfg.sigmas
        # replay the pass, checking the invariant at each insertion
        from geohmm.initialization import Bucket
        buckets, sums = [Bucket(mean=np.zeros(3))], [None]
        for t, r in enumerate(readings):
            placed = False
            for b, s in zip(buckets, sums):
                if within(r, b.mean, radius):
                    assert np.all(np.abs((r - b.mean)[:2]) <= radius[:2])
                    bucket_add(b, s, t, r)
                    placed = True
                    break
            if not placed:
                buckets.append(Bucket(mean=r.copy(), members=[t]))
                sums.append([float(np.sin(r[2])), float(np.cos(r[2]))])


class TestTagStates:
    def test_square_walk_state_sequence(self):
        readings = square_walk_readings()
        cfg = square_walk_config()
        buckets, assignment = bucketize(readings, cfg)
        result = tag_states(readings, buckets, assignment, 4, cfg)
        np.testing.assert_array_equal(result.state_sequence,
                                      [0, 1, 2, 3, 0, 1, 2, 3, 0])

    def test_square_walk_closure_entry(self):
        readings = square_walk_readings()
        cfg = square_walk_config()
        buckets, assignment = bucketize(readings, cfg)
        result = tag_states(readings, buckets, assignment, 4, cfg)
        want = -sum(np.array(BUCKET_MEANS_DEG[k]) for k in range(3))
        c = result.coordinates
        got = np.array([m[3, 0] for m in embed_relations(
            c[:, 0], c[:, 1], c[:, 2], CoordinateMode.GLOBAL)])
        assert got[0] == pytest.approx(want[0], abs=1e-9)
        assert got[1] == pytest.approx(want[1], abs=1e-9)
        assert got[2] == pytest.approx(wrap_angle(np.radians(want[2])),
                                       abs=1e-9)
        # and reading 4 sits within one deviation of that entry
        dev = readings[3] - got
        dev[2] = wrap_angle(dev[2])
        assert np.all(np.abs(dev) <= cfg.sigmas)

    def test_all_zero_readings_stay_home(self):
        readings = np.zeros((5, 3))
        cfg = BucketConfig(1.0, 1.0, 0.2)
        buckets, assignment = bucketize(readings, cfg)
        result = tag_states(readings, buckets, assignment, 3, cfg)
        np.testing.assert_array_equal(result.state_sequence, [0] * 6)

    def test_populated_table_additive_consistent(self):
        readings = square_walk_readings()
        cfg = square_walk_config()
        buckets, assignment = bucketize(readings, cfg)
        result = tag_states(readings, buckets, assignment, 4, cfg)
        c = result.coordinates
        n = len(c)
        mu = embed_relations(c[:, 0], c[:, 1], c[:, 2], CoordinateMode.GLOBAL)
        rel = RelationMatrix(*mu, np.ones((n, n)), np.ones((n, n)),
                             np.ones((n, n)))
        model = GeoHmm(A=np.full((n, n), 1 / n), B=(np.full((2, n), 0.5),),
                       start_state=0, relations=rel)
        report = check_consistency(model, ConstraintLevel.ADDITIVE, 1e-9)
        assert report.consistent, report.summary()

    def test_state_exhaustion_falls_back_to_nearest(self):
        # three genuinely distinct displacement clusters but only 2 states
        readings = np.array([[10.0, 0.0, 0.0], [0.0, 10.0, 0.0],
                             [-30.0, -30.0, 1.0]])
        cfg = BucketConfig(1.0, 1.0, 0.1)
        buckets, assignment = bucketize(readings, cfg)
        result = tag_states(readings, buckets, assignment, 2, cfg)
        assert len(result.state_sequence) == 4
        assert len(result.coordinates) == 2
        assert set(result.state_sequence) <= {0, 1}


class TestMatchesReference:
    """bucketize and tag_states give byte-identical results to the
    per-reading numpy versions kept in the oracles."""

    @staticmethod
    def assert_same_buckets(readings, cfg):
        buckets, assignment = bucketize(readings, cfg)
        want_buckets, want_assignment = reference_bucketize(readings, cfg)
        assert assignment.tobytes() == want_assignment.tobytes()
        assert len(buckets) == len(want_buckets)
        for got, want in zip(buckets, want_buckets):
            assert got.members == want.members
            assert got.mean.tobytes() == want.mean.tobytes()
        return buckets, assignment, want_buckets, want_assignment

    def test_square_walk_buckets(self):
        self.assert_same_buckets(square_walk_readings(), square_walk_config())

    def test_heading_at_radius_of_grown_bucket(self):
        # Two readings grow bucket 1; a third lies within a few ulps of
        # the heading radius around its mean, where math.atan2 and
        # numpy's arctan2 can decide differently.
        rng = np.random.default_rng(8)
        cfg = BucketConfig(1.0, 1.0, 0.5)
        radius = BUCKET_FACTOR * cfg.sigma_theta
        for _ in range(200):
            t1 = rng.uniform(-np.pi, np.pi)
            t2 = t1 + rng.uniform(-0.5, 0.5)
            mean = float(np.arctan2(np.sin(t1) + np.sin(t2),
                                    np.cos(t1) + np.cos(t2)))
            edge = mean + rng.choice([-radius, radius])
            for k in range(-2, 3):
                t3 = edge + k * np.spacing(edge)
                readings = np.array([[10.0, 10.0, t1], [10.0, 10.0, t2],
                                     [10.0, 10.0, t3]])
                self.assert_same_buckets(readings, cfg)

    @pytest.mark.parametrize("T", [800, 2000])
    @pytest.mark.parametrize("mode", list(CoordinateMode))
    def test_byte_identical_on_loop_sequences(self, mode, T):
        true = make_loop_model(LoopSpec(mode=mode))
        for seed in range(20):
            seq = sample_sequence(true, T, np.random.default_rng(seed))
            cfg = default_bucket_config(seq)
            buckets, assignment, want_buckets, want_assignment = (
                self.assert_same_buckets(seq.readings, cfg))
            tags = tag_states(seq.readings, buckets, assignment, 16, cfg, mode)
            want = reference_tag_states(seq.readings, want_buckets,
                                        want_assignment, 16, cfg, mode)
            assert (tags.state_sequence.tobytes()
                    == want.state_sequence.tobytes())
            assert tags.coordinates.tobytes() == want.coordinates.tobytes()
            assert tags.pair_buckets == want.pair_buckets


class TestInitModel:
    def square_walk_experience(self):
        readings = square_walk_readings()
        obs = np.zeros((9, 1), dtype=int)
        return ExperienceSequence(observations=obs, readings=readings,
                                  alphabet=(2,))

    def test_square_walk_dominant_cycle(self):
        e = self.square_walk_experience()
        model = init_model(e, 4, square_walk_config())
        for i in range(4):
            assert model.A[i].argmax() == (i + 1) % 4

    def test_no_exact_zero_probabilities(self):
        e = self.square_walk_experience()
        model = init_model(e, 4, square_walk_config())
        assert all(b.min() > 0 for b in model.B)
        assert model.A.min() > 0

    def test_beats_uniform_model_on_training_data(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 300, np.random.default_rng(5))
        model = init_model(seq, 16, default_bucket_config(seq))
        n = 16
        uniform = GeoHmm(
            A=np.full((n, n), 1 / n),
            B=tuple(np.full((k, n), 1 / k) for k in true.obs_dims),
            start_state=0, relations=zero_relations(n, var=25.0, kappa=0.5))
        ll_init = forward_backward(model, seq, use_odometry=False).loglik
        ll_uniform = forward_backward(uniform, seq, use_odometry=False).loglik
        assert ll_init >= ll_uniform

    def test_deterministic(self):
        e = self.square_walk_experience()
        a = init_model(e, 4, square_walk_config())
        b = init_model(e, 4, square_walk_config())
        np.testing.assert_array_equal(a.A, b.A)
        for x, y in zip(a.B, b.B):
            np.testing.assert_array_equal(x, y)
        for name in ("mu_x", "mu_y", "mu_theta", "var_x", "var_y",
                     "kappa_theta"):
            np.testing.assert_array_equal(getattr(a.relations, name),
                                          getattr(b.relations, name))

    def test_too_short_rejected(self):
        e = ExperienceSequence(observations=np.zeros((1, 1), dtype=int),
                               readings=np.zeros((0, 3)))
        with pytest.raises(ValueError):
            init_model(e, 2, BucketConfig(1.0, 1.0, 0.1))

    def test_cost_comparable_to_one_e_step(self):
        true = make_loop_model(LoopSpec())
        seq = sample_sequence(true, 2000, np.random.default_rng(6))
        cfg = default_bucket_config(seq)
        init_model(seq, 16, cfg)                      # warm caches
        model = init_model(seq, 16, cfg)
        fb_time = min(_timed(lambda: forward_backward(model, seq))
                      for _ in range(3))
        init_time = min(_timed(lambda: init_model(seq, 16, cfg))
                        for _ in range(3))
        assert init_time <= 2.0 * fb_time, (init_time, fb_time)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class TestRandomAndPerturb:
    def test_random_model_valid_and_seeded(self):
        a = random_model(5, (3, 2), np.random.default_rng(9))
        b = random_model(5, (3, 2), np.random.default_rng(9))
        np.testing.assert_array_equal(a.A, b.A)

    def test_perturb_keeps_consistency(self):
        true = make_loop_model(LoopSpec())
        jittered = perturb_model(true, np.random.default_rng(10), scale=0.2)
        report = check_consistency(jittered, ConstraintLevel.ADDITIVE, 1e-9)
        assert report.consistent
        assert not np.allclose(jittered.A, true.A)

    def test_perturb_draws_pinned(self):
        # A draws first, then each B in turn; the digest pins those draws.
        true = make_loop_model(LoopSpec())
        jittered = perturb_model(true, np.random.default_rng(10), scale=0.2)
        digest = hashlib.sha256(jittered.A.tobytes())
        for b in jittered.B:
            digest.update(b.tobytes())
        assert digest.hexdigest() == (
            "b595f877cd16127b4a09035c48f89f47521becb2b0cf428b986f6246457f8fff")

    def test_perturb_shares_relations(self):
        true = make_loop_model(LoopSpec())
        jittered = perturb_model(true, np.random.default_rng(10))
        assert jittered.relations is true.relations
