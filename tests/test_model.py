"""Model containers, transforms, relation densities, consistency checks."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from scipy.integrate import quad

from geohmm.model import (ConstraintLevel, CoordinateMode, ExperienceSequence,
                          GeoHmm, RelationMatrix, _rotate_xy,
                          check_consistency, embed_relations)
from geohmm.inference import relation_density_tensor
from geohmm.circstats import wrap_angle
from geohmm.simgen import LoopSpec, make_loop_model

from oracles import (RelationEntry, model_density, random_geohmm,
                     reference_check_consistency, relation_density,
                     relation_entry, with_entries, zero_relations)


def simple_model(n=2, mode=CoordinateMode.GLOBAL, relations=None):
    A = np.full((n, n), 1.0 / n)
    B = (np.full((3, n), 1.0 / 3),)
    if relations is None:
        relations = zero_relations(n)
    return GeoHmm(A=A, B=B, start_state=0, relations=relations, mode=mode)


class TestRotateXy:
    REL = CoordinateMode.RELATIVE

    def test_identity(self):
        assert _rotate_xy(0.0, 3.0, 4.0, self.REL) == pytest.approx((3.0, 4.0))

    def test_quarter_turn(self):
        x, y = _rotate_xy(np.pi / 2, 1.0, 0.0, self.REL)
        assert (x, y) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_composition_is_summed_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = rng.uniform(-np.pi, np.pi, size=2)
            p = tuple(rng.normal(size=2))
            via_two = _rotate_xy(b, *_rotate_xy(a, *p, self.REL), self.REL)
            direct = _rotate_xy(a + b, *p, self.REL)
            assert via_two == pytest.approx(direct, abs=1e-12)

    def test_global_mode_returns_input_unchanged(self):
        x, y = np.array([3.0, -0.5]), np.array([4.0, 2.0])
        gx, gy = _rotate_xy(np.pi / 3, x, y, CoordinateMode.GLOBAL)
        assert gx is x and gy is y


class TestRelationDensity:
    # The model's reading density, through relation_density_tensor.
    def test_product_of_three_densities_at_mean(self):
        entry = RelationEntry(mu_x=1.5, mu_y=-2.0, mu_theta=0.7,
                              var_x=1.0, var_y=1.0, kappa_theta=0.0)
        got = model_density((1.5, -2.0, 0.7), entry)
        assert got == pytest.approx(0.025330, abs=5e-7)

    def test_circular_in_dtheta(self):
        entry = RelationEntry(0.0, 0.0, 0.4, 2.0, 3.0, 5.0)
        at_mean = model_density((0.0, 0.0, 0.4), entry)
        wrapped = model_density((0.0, 0.0, 0.4 + 2 * np.pi), entry)
        assert wrapped == pytest.approx(at_mean, rel=1e-12)

    def test_nonnegative_and_symmetric_in_dx(self):
        entry = RelationEntry(1.0, 0.0, 0.0, 0.5, 0.5, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.normal(size=3)
            assert model_density(d, entry) >= 0.0
            plus = model_density((1.0 + d[0], 0.0, 0.0), entry)
            minus = model_density((1.0 - d[0], 0.0, 0.0), entry)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_marginalizes_to_one(self):
        entry = RelationEntry(0.5, -1.0, 0.9, 0.8, 2.5, 3.0)
        ix, _ = quad(lambda v: model_density((v, entry.mu_y, entry.mu_theta),
                                             entry), 0.5 - 12, 0.5 + 12)
        iy, _ = quad(lambda v: model_density((entry.mu_x, v, entry.mu_theta),
                                             entry), -1 - 20, -1 + 20)
        it, _ = quad(lambda v: model_density((entry.mu_x, entry.mu_y, v),
                                             entry), -np.pi, np.pi, limit=200)
        peak = model_density((0.5, -1.0, 0.9), entry)
        # each 1-D slice integrates to density-of-other-two; their product
        # over the peak squared gives the full integral by independence
        assert ix * iy * it / peak ** 2 == pytest.approx(1.0, abs=1e-5)

    def test_entry_matches_matrix(self):
        # Every pair's density in the tensor is the entry's density
        # written out.
        rng = np.random.default_rng(4)
        model = random_geohmm(4, rng)
        readings = rng.normal(size=(5, 3))
        e = ExperienceSequence(np.zeros((6, 1), dtype=int), readings)
        tensor = relation_density_tensor(model, e)
        for reading, table in zip(readings, tensor):
            for i in range(4):
                for j in range(4):
                    want = relation_density(
                        reading, relation_entry(model.relations, i, j))
                    assert table[i, j] == pytest.approx(want, rel=1e-12)


class TestEmbedRelations:
    def test_all_zero(self):
        mu_x, mu_y, mu_t = embed_relations(np.zeros(3), np.zeros(3),
                                           np.zeros(3), CoordinateMode.GLOBAL)
        assert not mu_x.any() and not mu_y.any() and not mu_t.any()

    def test_global_differences(self):
        mu_x, _, _ = embed_relations([0.0, 5.0, 7.0], np.zeros(3), np.zeros(3),
                                     CoordinateMode.GLOBAL)
        assert mu_x[0, 2] == 7.0
        assert mu_x[2, 1] == -2.0
        assert mu_x[1, 1] == 0.0

    @pytest.mark.parametrize("mode", [CoordinateMode.GLOBAL,
                                      CoordinateMode.RELATIVE])
    def test_output_is_additive_consistent(self, mode):
        rng = np.random.default_rng(3)
        n = 5
        x, y = rng.normal(size=n), rng.normal(size=n)
        theta = rng.uniform(-np.pi, np.pi, size=n)
        mu_x, mu_y, mu_t = embed_relations(x, y, theta, mode)
        rel = RelationMatrix(mu_x, mu_y, mu_t, np.ones((n, n)),
                             np.ones((n, n)), np.ones((n, n)))
        model = simple_model(n, mode, rel)
        report = check_consistency(model, ConstraintLevel.ADDITIVE, 1e-9)
        assert report.consistent, report.summary()


class TestCheckConsistency:
    def test_antisymmetry_violation_magnitude(self):
        rel = with_entries(zero_relations(2),
                           mu_x={(0, 1): 5.0, (1, 0): -4.0})
        model = simple_model(2, relations=rel)
        report = check_consistency(model, ConstraintLevel.ANTISYMMETRIC, 1e-9)
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.kind == "antisymmetry" and v.component == "x"
        assert v.magnitude == pytest.approx(1.0)

    def test_additivity_violation_magnitude(self):
        rel = with_entries(zero_relations(3), mu_x={
            (0, 1): 1.0, (1, 0): -1.0, (1, 2): 1.0, (2, 1): -1.0,
            (0, 2): 3.0, (2, 0): -3.0})
        model = simple_model(3, relations=rel)
        report = check_consistency(model, ConstraintLevel.ADDITIVE, 1e-9)
        assert report.violations
        mags = {v.magnitude for v in report.violations
                if v.kind == "additivity" and v.component == "x"}
        assert 1.0 in {round(m, 9) for m in mags}
        # anti-symmetry alone is satisfied
        anti = check_consistency(model, ConstraintLevel.ANTISYMMETRIC, 1e-9)
        assert anti.consistent

    def test_additive_implies_antisymmetric(self):
        rng = np.random.default_rng(4)
        for mode in CoordinateMode:
            x, y = rng.normal(size=4), rng.normal(size=4)
            theta = rng.uniform(-np.pi, np.pi, size=4)
            mu = embed_relations(x, y, theta, mode)
            rel = RelationMatrix(*mu, np.ones((4, 4)), np.ones((4, 4)),
                                 np.ones((4, 4)))
            model = simple_model(4, mode, rel)
            if check_consistency(model, ConstraintLevel.ADDITIVE,
                                 1e-9).consistent:
                assert check_consistency(model, ConstraintLevel.ANTISYMMETRIC,
                                         1e-9).consistent

    def test_relative_mode_uses_transformed_constraints(self):
        # a matrix that is anti-symmetric in the plain sense but not under
        # the frame transforms must be flagged in relative mode
        theta = np.array([0.0, np.pi / 2])
        mu_x, mu_y, mu_t = embed_relations([0.0, 1.0], [0.0, 0.5], theta,
                                           CoordinateMode.RELATIVE)
        rel = RelationMatrix(mu_x, mu_y, mu_t, np.ones((2, 2)),
                             np.ones((2, 2)), np.ones((2, 2)))
        model = simple_model(2, CoordinateMode.RELATIVE, rel)
        assert check_consistency(model, ConstraintLevel.ADDITIVE,
                                 1e-9).consistent
        # plain negation of the relative vectors breaks the constraint
        negated = with_entries(rel, mu_x={(1, 0): -rel.mu_x[0, 1]},
                               mu_y={(1, 0): -rel.mu_y[0, 1]})
        model = simple_model(2, CoordinateMode.RELATIVE, negated)
        report = check_consistency(model, ConstraintLevel.ANTISYMMETRIC, 1e-9)
        assert not report.consistent

    @pytest.mark.parametrize("mode", list(CoordinateMode))
    @pytest.mark.parametrize("level", list(ConstraintLevel))
    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_matches_loop_reference(self, mode, level, tol):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 6):
            model = random_geohmm(n, rng, mode=mode)
            # a consistent model nudged in one entry, so both tolerances
            # see residuals near zero as well as large ones
            near = random_geohmm(n, rng, mode=mode, consistent=True)
            if n > 1:
                R = near.relations
                near = near.replace(relations=with_entries(
                    R, mu_x={(0, 1): R.mu_x[0, 1] + 1e-10}))
            for m in (model, near):
                got = check_consistency(m, level, tol)
                want = reference_check_consistency(m, level, tol)
                assert got.violations == want.violations
                assert (got.level, got.tol) == (want.level, want.tol)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, -np.inf])
    def test_invalid_tol_rejected(self, tol):
        rel = with_entries(zero_relations(2), mu_x={(0, 1): 5.0})
        with pytest.raises(ValueError, match="tol"):
            check_consistency(simple_model(2, relations=rel),
                              ConstraintLevel.ANTISYMMETRIC, tol)


class TestValidation:
    def test_bad_transition_rows(self):
        with pytest.raises(ValueError):
            GeoHmm(A=np.array([[0.7, 0.6],
                                                          [0.5, 0.5]]),
                   B=(np.full((2, 2), 0.5),), start_state=0,
                   relations=zero_relations(2))

    def test_bad_observation_columns(self):
        with pytest.raises(ValueError):
            GeoHmm(A=np.full((2, 2), 0.5),
                   B=(np.array([[0.9, 0.2], [0.2, 0.8]]),), start_state=0,
                   relations=zero_relations(2))

    def test_sizes_are_read_from_a_and_b(self):
        model = make_loop_model(LoopSpec())
        assert [f.name for f in fields(GeoHmm)] == [
            "A", "B", "start_state", "relations", "mode"]
        assert model.n_states == 16 and model.obs_dims == (4, 4, 4)
        assert simple_model(3).obs_dims == (3,)

    @pytest.mark.parametrize("value", [1.0, True, "1", None, np.float64(1)])
    def test_start_state_must_be_an_integer(self, value):
        # 1.0 used to build, then fail in sample_sequence with a TypeError.
        with pytest.raises(ValueError, match="^start_state must be an integer"):
            make_loop_model(LoopSpec()).replace(start_state=value)

    @pytest.mark.parametrize("value", [-1, 16, np.int64(-1)])
    def test_start_state_out_of_range(self, value):
        with pytest.raises(ValueError, match="^start_state"):
            make_loop_model(LoopSpec()).replace(start_state=value)

    @pytest.mark.parametrize("A, B, says", [
        (np.ones((1, 2)) / 2, np.ones((1, 2)), "A must be"),
        (np.ones((0, 0)), np.ones((1, 0)), "A must be"),
        (np.ones(1), np.ones((1, 1)), "A must be"),
        (np.full((2, 2), 0.5), np.ones((1, 3)), "B\\[0\\] must be"),
        (np.full((2, 2), 0.5), np.ones(2), "B\\[0\\] must be")])
    def test_shapes_rejected(self, A, B, says):
        with pytest.raises(ValueError, match=says):
            GeoHmm(A=A, B=(B,), start_state=0, relations=zero_relations(2))

    @pytest.mark.parametrize("where", ["A", "B"])
    def test_nan_transition_row_or_observation_column_rejected(self, where):
        A = np.full((2, 2), 0.5)
        B = np.full((2, 2), 0.5)
        if where == "A":
            A[0] = np.nan
        else:
            B[:, 1] = np.nan
        with pytest.raises(ValueError):
            GeoHmm(A=A, B=(B,), start_state=0, relations=zero_relations(2))

    @pytest.mark.parametrize("name,bad", [
        ("var_x", np.nan), ("var_x", np.inf),
        ("var_y", np.nan), ("var_y", np.inf),
        ("kappa_theta", np.nan)])
    def test_non_finite_spread_rejected(self, name, bad):
        with pytest.raises(ValueError, match="non-finite"):
            with_entries(zero_relations(2), **{name: {(0, 1): bad}})

    @pytest.mark.parametrize("where", ["A", "B"])
    def test_entry_just_below_zero_rejected(self, where):
        # An entry within STOCHASTIC_TOL below 0 used to validate, and
        # sample_sequence then refused the model.
        model = make_loop_model(LoopSpec())
        A, B = model.A.copy(), model.B[0].copy()
        if where == "A":
            A[0, 5], A[0, 1] = -5e-10, A[0, 1] + 5e-10
        else:
            B[1, 3], B[0, 3] = -5e-10, B[0, 3] + 5e-10
        with pytest.raises(ValueError, match="negative"):
            model.replace(A=A, B=(B,) + model.B[1:])

    def test_built_objects_are_read_only(self):
        # Each object is checked once, when built, so none can change after:
        # every array refuses writes, derived ones too, and no relation
        # table field can be rebound.
        model = make_loop_model(LoopSpec())
        R = model.relations
        seq = ExperienceSequence(np.zeros((3, 2), dtype=int),
                                 np.zeros((2, 3)))
        arrays = ([model.A, *model.B, R.eta, seq.observations, seq.readings,
                   seq.features, *seq.symbols]
                  + [getattr(R, f.name) for f in fields(RelationMatrix)])
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0
        for f in fields(RelationMatrix):
            with pytest.raises(FrozenInstanceError):
                setattr(R, f.name, getattr(R, f.name).copy())

    def test_pickle_rebuilds_a_checked_relation_table(self):
        # Pickle's default restore assigned the frozen slots and raised.
        R = make_loop_model(LoopSpec()).relations
        for copied in (pickle.loads(pickle.dumps(R)), copy.deepcopy(R)):
            np.testing.assert_array_equal(copied.var_x, R.var_x)
            assert not copied.var_x.flags.writeable

    def test_pickle_rebuilds_read_only_models_and_sequences(self):
        # The default restore set the attributes of a copy to writable
        # arrays, and carried the cached values over unchecked.
        model = make_loop_model(LoopSpec())
        seq = ExperienceSequence(np.array([[0, 1], [2, 1]]),
                                 np.zeros((1, 3)), alphabet=(3, 2))
        model.relations.eta, seq.features, seq.symbols
        for copy_of in (lambda x: pickle.loads(pickle.dumps(x)),
                        copy.deepcopy):
            m, e = copy_of(model), copy_of(seq)
            assert m.obs_dims == model.obs_dims and e.alphabet == (3, 2)
            for got, want in [(m.A, model.A), (m.B[1], model.B[1]),
                              (e.observations, seq.observations),
                              (e.readings, seq.readings)]:
                np.testing.assert_array_equal(got, want)
                assert not got.flags.writeable
            assert "eta" not in vars(m.relations)
            assert not {"features", "symbols"} & set(vars(e))

    def test_callers_arrays_stay_theirs(self):
        # A model copies what it is given: the caller's arrays stay
        # writable, and their later edits do not reach it.
        A, B = np.full((2, 2), 0.5), np.full((3, 2), 1.0 / 3)
        mu = np.zeros((2, 2))
        model = simple_model(2, relations=RelationMatrix(
            mu, mu, mu, np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))))
        model = model.replace(A=A, B=(B,))
        A[0], B[:, 0], mu[0, 1] = [1.0, 0.0], [1.0, 0.0, 0.0], 9.0
        assert model.A[0, 0] == 0.5 and model.B[0][0, 0] == 1.0 / 3
        assert model.relations.mu_x[0, 1] == 0.0

    def test_replace_does_not_recheck_kept_relations(self):
        # A relation table checks itself when built; a model checks only
        # that it has N states. A table made invalid behind its
        # constructor's back shows replace leaves it unchecked.
        model = make_loop_model(LoopSpec())
        object.__setattr__(model.relations, "var_x", -model.relations.var_x)
        assert model.replace(start_state=1).relations is model.relations

    def test_equality_is_identity(self):
        # The generated __eq__ compared array fields and raised.
        a, b = make_loop_model(LoopSpec()), make_loop_model(LoopSpec())
        assert (a == b) is False and (a == a) is True
        obs, readings = np.zeros((3, 1), dtype=int), np.zeros((2, 3))
        e, f = (ExperienceSequence(obs, readings),
                ExperienceSequence(obs, readings))
        assert (e == f) is False and (e == e) is True

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal of mu_x"):
            with_entries(zero_relations(2), mu_x={(1, 1): 0.1})

    def test_experience_shape_checks(self):
        obs = np.zeros((4, 2), dtype=int)
        with pytest.raises(ValueError):
            ExperienceSequence(observations=obs, readings=np.zeros((2, 3)))
        seq = ExperienceSequence(observations=obs, readings=np.zeros((3, 3)))
        assert len(seq) == 4 and seq.n_dims == 2
        assert len(seq.prefix(2)) == 2

    def test_experience_symbols_must_be_integral(self):
        with pytest.raises(ValueError, match="integers"):
            ExperienceSequence(observations=[[1.7], [2.9]],
                               readings=np.zeros((1, 3)))
        seq = ExperienceSequence(observations=[[1.0], [2.0]],
                                 readings=np.zeros((1, 3)))
        assert seq.observations.dtype.kind == "i"
        np.testing.assert_array_equal(seq.observations, [[1], [2]])

    def test_experience_alphabet(self):
        obs = np.array([[0, 1], [2, 0]])
        undeclared = ExperienceSequence(obs, np.zeros((1, 3)))
        assert undeclared.alphabet is None and undeclared.obs_dims == (3, 2)
        assert undeclared.prefix(1).obs_dims == (1, 2)
        seq = ExperienceSequence(obs, np.zeros((1, 3)), alphabet=[4, 2])
        assert seq.alphabet == seq.obs_dims == (4, 2)
        assert seq.prefix(1).obs_dims == (4, 2)
        with pytest.raises(ValueError, match="dimension 1 at step 0"):
            ExperienceSequence(obs, np.zeros((1, 3)), alphabet=(4, 1))
        with pytest.raises(ValueError, match="one size per"):
            ExperienceSequence(obs, np.zeros((1, 3)), alphabet=(4,))

    def test_wrap_consistency_of_embedding_theta(self):
        theta = np.array([0.0, 3.0, -3.0])
        _, _, mu_t = embed_relations(np.zeros(3), np.zeros(3), theta,
                                     CoordinateMode.GLOBAL)
        assert mu_t[1, 2] == pytest.approx(wrap_angle(-6.0))
