"""Model embedding and SVG rendering."""

import hashlib

import numpy as np
import pytest

from geohmm.circstats import wrap_angle
from geohmm.model import (ConstraintLevel, CoordinateMode, RelationMatrix,
                          check_consistency)
from geohmm.render import embed_model_positions, render_svg
from geohmm.simgen import LoopSpec, make_loop_model


def noisy_loop(mode: CoordinateMode):
    """The default loop with seeded noise on every off-diagonal relation
    mean, variance and concentration: no longer additive."""
    model = make_loop_model(LoopSpec(mode=mode))
    R = model.relations
    rng = np.random.default_rng(7)
    shape = (R.n_states, R.n_states)
    off = ~np.eye(R.n_states, dtype=bool)

    def shift(a, sd):
        return a + np.where(off, rng.normal(0.0, sd, shape), 0.0)

    def scale(a):
        return np.where(off, a * rng.uniform(0.5, 2.0, shape), a)

    rel = RelationMatrix(shift(R.mu_x, 0.5), shift(R.mu_y, 0.5),
                         wrap_angle(shift(R.mu_theta, 0.3)), scale(R.var_x),
                         scale(R.var_y), scale(R.kappa_theta))
    return model.replace(relations=rel)


class TestEmbedModelPositions:
    @pytest.mark.parametrize("mode", [CoordinateMode.GLOBAL,
                                      CoordinateMode.RELATIVE])
    def test_recovers_loop_geometry(self, mode):
        spec = LoopSpec(mode=mode)
        model = make_loop_model(spec)
        x, y, theta = embed_model_positions(model)
        # consistent relations embed exactly: check a few pair differences
        R = model.relations
        if mode is CoordinateMode.GLOBAL:
            np.testing.assert_allclose(x[5] - x[2], R.mu_x[2, 5], atol=1e-6)
            np.testing.assert_allclose(y[9] - y[0], R.mu_y[0, 9], atol=1e-6)

    def test_corner_quadrilateral_closes(self):
        model = make_loop_model(LoopSpec())
        x, y, _ = embed_model_positions(model)
        corners = [5, 9, 13, 0]   # first state of corridors 1..3 and 0
        total = np.zeros(2)
        prev = corners[-1]
        for c in corners:
            total += np.array([x[c] - x[prev], y[c] - y[prev]])
            prev = c
        assert np.linalg.norm(total) < 1e-6

    def test_rectangle_dimensions(self):
        model = make_loop_model(LoopSpec())
        x, y, _ = embed_model_positions(model)
        # corridor 0 spans 10 units east to state 5; corridor 1 spans 6 north
        assert x[5] - x[0] == pytest.approx(10.0, abs=1e-6)
        assert y[9] - y[5] == pytest.approx(6.0, abs=1e-6)


class TestRenderSvg:
    def test_basic_structure(self):
        model = make_loop_model(LoopSpec())
        svg = render_svg(model)
        assert svg.startswith("<?xml")
        assert svg.count("<circle") == model.n_states
        assert "marker-end" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_solid_arrows_follow_argmax(self):
        model = make_loop_model(LoopSpec())
        svg = render_svg(model)
        solid = [ln for ln in svg.splitlines()
                 if "<line" in ln and "dasharray" not in ln]
        # every state has exactly one most-likely outgoing transition
        assert len(solid) == model.n_states

    def test_deterministic(self):
        model = make_loop_model(LoopSpec())
        assert render_svg(model) == render_svg(model)

    @pytest.mark.parametrize("mode, digest", [
        (CoordinateMode.GLOBAL,
         "cdae85aba1d43c7da3d8bb72ed1e1796ee66241c7b535ee3e62ae1ec8d4f7a07"),
        (CoordinateMode.RELATIVE,
         "a33da0ac035dd9f38378ad4e800401bb2edc439e3c68aeb261f079e9ea0c3e68"),
    ])
    def test_inconsistent_model_pinned(self, mode, digest):
        # The heading projection and position fit both settle this
        # model's conflicts; a change to either shows up in the bytes.
        model = noisy_loop(mode)
        assert check_consistency(model, ConstraintLevel.ADDITIVE).violations
        svg = render_svg(model)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest
