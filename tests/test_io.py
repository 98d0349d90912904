"""File-format round trips and unit conversion."""

import numpy as np
import pytest

from geohmm.io import (load_experience, load_model, model_from_dict,
                       model_to_dict, save_experience, save_model)
from geohmm.model import (CoordinateMode, ExperienceSequence, GeoHmm,
                          ModelFormatError, RelationMatrix)
from geohmm.simgen import LoopSpec, make_loop_model, sample_sequence


@pytest.fixture
def model():
    return make_loop_model(LoopSpec(states_per_corridor=(2, 2, 2, 2),
                                    corridor_lengths=(4.0, 4.0, 4.0, 4.0)))


def assert_models_equal(a: GeoHmm, b: GeoHmm, tol=0.0):
    np.testing.assert_allclose(a.A, b.A, atol=tol)
    for x, y in zip(a.B, b.B):
        np.testing.assert_allclose(x, y, atol=tol)
    for name in ("mu_x", "mu_y", "mu_theta", "var_x", "var_y", "kappa_theta"):
        np.testing.assert_allclose(getattr(a.relations, name),
                                   getattr(b.relations, name), atol=tol)
    assert a.obs_dims == b.obs_dims
    assert a.start_state == b.start_state
    assert a.mode == b.mode


class TestModelFile:
    def test_round_trip_exact(self, model, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert_models_equal(model, loaded, tol=0.0)

    def test_double_round_trip_is_byte_identical(self, model, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, str(p1))
        save_model(load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_degree_mm_conversion(self, model):
        data = model_to_dict(model)
        data["angle_unit"] = "degrees"
        data["length_unit"] = "mm"
        rel = np.asarray(data["relations"])
        rel[:, :, 2] = np.degrees(rel[:, :, 2])
        rel[:, :, 0] *= 1000.0
        rel[:, :, 1] *= 1000.0
        rel[:, :, 3] *= 1000.0 ** 2
        rel[:, :, 4] *= 1000.0 ** 2
        data["relations"] = rel.tolist()
        converted = model_from_dict(data)
        assert_models_equal(model, converted, tol=1e-9)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(str(path))
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def test_inconsistent_shapes_rejected(self, model):
        data = model_to_dict(model)
        data["n_states"] = 3
        with pytest.raises(ModelFormatError):
            model_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("n_states", 16.9), ("n_states", 16.0), ("n_states", True),
        ("obs_dims", [4.5, 4, 4]), ("start_state", 1.7)])
    def test_non_integer_sizes_rejected(self, key, value):
        # int() used to truncate them: 16.9 loaded as 16 states.
        data = model_to_dict(make_loop_model(LoopSpec()))
        data[key] = value
        with pytest.raises(ModelFormatError, match="^%s: expected integers"
                           % key):
            model_from_dict(data)

    @pytest.mark.parametrize("key, value, says", [
        ("n_states", 15, "n_states 15 disagrees with A's 16 rows"),
        ("obs_dims", [4, 4, 3], "obs_dims [4, 4, 3] disagrees with B's row "
                                "counts [4, 4, 4]")])
    def test_sizes_that_disagree_with_a_and_b_rejected(self, key, value, says):
        data = model_to_dict(make_loop_model(LoopSpec()))
        data[key] = value
        with pytest.raises(ModelFormatError) as err:
            model_from_dict(data)
        assert str(err.value) == says


class TestExperienceFile:
    def test_round_trip_exact(self, model, tmp_path):
        seq = sample_sequence(model, 40, np.random.default_rng(1))
        path = tmp_path / "e.txt"
        save_experience(seq, str(path))
        loaded = load_experience(str(path))
        np.testing.assert_array_equal(seq.observations, loaded.observations)
        np.testing.assert_array_equal(seq.readings, loaded.readings)
        assert "l=3 alphabet=4,4,4 " in path.read_text()
        assert loaded.alphabet == seq.alphabet == model.obs_dims

    def test_single_step_sequence(self, tmp_path):
        seq = ExperienceSequence(observations=np.array([[1, 0]]),
                                 readings=np.zeros((0, 3)))
        path = tmp_path / "one.txt"
        save_experience(seq, str(path))
        loaded = load_experience(str(path))
        assert len(loaded) == 1 and loaded.readings.shape == (0, 3)
        # Without a declared alphabet none is written or read back.
        assert "alphabet" not in path.read_text()
        assert loaded.alphabet is None and loaded.obs_dims == (2, 1)

    def test_degrees_converted_on_load(self, tmp_path):
        path = tmp_path / "deg.txt"
        path.write_text("l=1 angle_unit=degrees length_unit=units\n"
                        "0\n"
                        "1 2.0 94.0 92.0\n")
        seq = load_experience(str(path))
        assert seq.readings[0, 2] == pytest.approx(np.radians(92.0))
        assert seq.readings[0, 0] == 2.0

    # Lines are numbered from 0 after the header, comments skipped.
    def test_field_count_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        for body, message in [
                ("0 1\n0 1 1.0 2.0\n", "line 1: expected 5 fields, got 4"),
                ("0\n", "line 0: expected 2 fields, got 1"),
                ("0 1\n# skipped\n0 1 1.0 2.0 3.0\n1 0 1.0 2.0\n",
                 "line 2: expected 5 fields, got 4")]:
            path.write_text("l=2\n" + body)
            with pytest.raises(ModelFormatError, match=message):
                load_experience(str(path))

    # The first bad token in file order is named, symbols before readings.
    def test_bad_token_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        for body, message in [
                ("0 x\n0 1 1.0 2.0 3.0\n", "line 0: invalid literal for int"),
                ("0 1\n0 1 1.0 2.0 3.0\n0 1 1.0 y 3.0\n",
                 "line 2: could not convert string to float: 'y'"),
                ("0 1\n0 1 1.0 2.0 z\n1.5 1 1.0 2.0 3.0\n",
                 "line 1: could not convert string to float: 'z'"),
                ("0 1\n0 1 1.0 2.0 3.0\n0 1.5 z 2.0 3.0\n",
                 "line 2: invalid literal for int.*'1.5'")]:
            path.write_text("l=2\n" + body)
            with pytest.raises(ModelFormatError, match=message):
                load_experience(str(path))

    def test_alphabet_errors(self, tmp_path):
        path = tmp_path / "bad.txt"
        for header, message in [
                ("l=2 alphabet=2,2", "symbol 2 out of alphabet on dimension "
                                     "0 at step 1"),
                ("l=2 alphabet=3", "one size per observation dimension"),
                ("l=2 alphabet=3,x", "alphabet must be comma-separated")]:
            path.write_text(header + "\n0 1\n2 1 1.0 2.0 3.0\n")
            with pytest.raises(ModelFormatError, match=message):
                load_experience(str(path))

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ModelFormatError):
            load_experience(str(path))

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# comment\nl=1 angle_unit=radians length_unit=units\n"
                        "# another\n2\n0 0.5 0.25 0.1\n")
        seq = load_experience(str(path))
        assert len(seq) == 2
        assert seq.observations[0, 0] == 2
