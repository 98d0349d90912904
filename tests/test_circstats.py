"""Von Mises primitives against independent oracles."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from geohmm.circstats import (KAPPA_MAX, bessel_ratio, log_bessel_i0,
                              mean_resultant_length, resultant_to_kappa,
                              wrap_angle)
from geohmm.simgen import LoopSpec, make_loop_model, sample_path
from oracles import heading_density


def i0_power_series_oracle(kappa, tol=1e-18):
    """Straight summation of sum_k (kappa/2)^(2k) / (k!)^2."""
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        term *= (kappa / 2.0) ** 2 / k ** 2
        total += term
        if term < tol * total:
            return total


class TestBesselI0:
    # I0 as the pipeline computes it: exp(log_bessel_i0).
    def test_zero(self):
        assert np.exp(log_bessel_i0(0.0)) == 1.0

    @pytest.mark.parametrize("kappa,expected", [(1.0, 1.266066), (2.0, 2.279585)])
    def test_frozen_values(self, kappa, expected):
        i0 = np.exp(log_bessel_i0(kappa))
        assert i0 == pytest.approx(expected, abs=5e-7)
        assert i0 == pytest.approx(i0_power_series_oracle(kappa), rel=1e-12)

    def test_matches_scipy_over_range(self):
        for kappa in [0.1, 0.5, 1, 3, 7, 14.9, 15.1, 30, 80, 200, 500]:
            assert np.exp(log_bessel_i0(kappa)) == pytest.approx(
                special.i0(kappa), rel=1e-10)

    def test_log_variant_large_kappa(self):
        # log I0(k) ~ k - 0.5 log(2 pi k) for large k; exact vs scipy's
        # scaled function: log I0 = k + log(i0e(k)).
        for k in [50.0, 700.0, 5000.0, KAPPA_MAX]:
            assert log_bessel_i0(k) == pytest.approx(
                k + np.log(special.i0e(k)), rel=1e-12)

    def test_negative_rejected(self):
        for fn in (log_bessel_i0, bessel_ratio):
            for kappa in (-1.0, np.array([1.0, -1.0])):
                with pytest.raises(ValueError):
                    fn(kappa)


class TestVmDensity:
    # The von Mises density as learning, sampling and scoring use it: the
    # heading factor of the model's reading density.
    def test_uniform_when_flat(self):
        assert heading_density(0.7, 123.4, 0.0) == pytest.approx(
            1 / (2 * np.pi), rel=1e-12)

    def test_frozen_peak_and_antipode(self):
        assert heading_density(0.0, 0.0, 1.0) == pytest.approx(0.341710,
                                                               abs=5e-7)
        mu = 0.3
        assert heading_density(mu + np.pi, mu, 1.0) == pytest.approx(
            0.046245, abs=5e-7)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 10.0, 50.0])
    def test_integrates_to_one(self, kappa):
        total, _ = quad(lambda t: heading_density(t, 0.4, kappa), -np.pi,
                        np.pi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_periodicity_exact_after_wrapping(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.uniform(-np.pi, np.pi)
            mu = rng.uniform(-np.pi, np.pi)
            kappa = rng.uniform(0, 30)
            for k in (-2, -1, 1, 3):
                shifted = wrap_angle(theta + 2 * np.pi * k)
                assert heading_density(shifted, mu, kappa) == pytest.approx(
                    heading_density(theta, mu, kappa), rel=1e-12)


class TestResultantToKappa:
    def test_zero(self):
        assert resultant_to_kappa(0.0) == 0.0

    def test_frozen_inverse_of_a2(self):
        # A(2) = I1(2)/I0(2) from the Bessel oracle.
        forward = special.i1(2.0) / special.i0(2.0)
        assert forward == pytest.approx(0.697775, abs=5e-7)
        assert resultant_to_kappa(0.697775) == pytest.approx(2.0, abs=1e-4)

    def test_clamps(self):
        assert resultant_to_kappa(0.999999999) == KAPPA_MAX
        assert resultant_to_kappa(-0.3) == 0.0

    def test_round_trip_grid(self):
        for r in np.linspace(0.0, 0.99, 45):
            kappa = resultant_to_kappa(float(r))
            assert abs(bessel_ratio(kappa) - r) < 1e-6

    def test_residual_tolerance(self):
        for r in [0.1, 0.5, 0.9, 0.99]:
            kappa = resultant_to_kappa(r)
            assert abs(bessel_ratio(kappa) - r) < 1e-8

    def test_array_variant_matches_scalar(self):
        grid = np.linspace(0.0, 0.995, 60)
        kappas = resultant_to_kappa(grid)
        assert isinstance(kappas, np.ndarray) and kappas.shape == grid.shape
        for r, k in zip(grid, kappas):
            scalar = resultant_to_kappa(float(r))
            assert isinstance(scalar, float)
            assert k == pytest.approx(scalar, abs=1e-6)

    def test_ratio_array_matches_scalar(self):
        grid = [0.0, 0.3, 2.0, 40.0, 800.0]
        scalars = [bessel_ratio(k) for k in grid]
        assert all(isinstance(a, float) for a in scalars)
        np.testing.assert_allclose(bessel_ratio(grid), scalars, rtol=1e-10)


def pair_headings(kappa, seed):
    """Heading readings sample_path draws on the (0, 1) pair of a 4-state
    loop whose relations all have concentration kappa (about 22 500 of
    100 000 steps), and that pair's mean heading change."""
    model = make_loop_model(LoopSpec(states_per_corridor=(1, 1, 1, 1),
                                     kappa=kappa))
    states, seq = sample_path(model, 100_000, np.random.default_rng(seed))
    on_pair = (states[:-1] == 0) & (states[1:] == 1)
    return seq.readings[on_pair, 2], model.relations.mu_theta[0, 1]


class TestVmSample:
    # The von Mises draws as sample_path makes them.
    def test_flat_concentration_is_uniform(self):
        draws, _ = pair_headings(0.0, 7)
        assert mean_resultant_length(draws) < 0.02
        assert draws.min() > -np.pi and draws.max() <= np.pi

    def test_tight_concentration_centers_on_mu(self):
        draws, mu = pair_headings(50.0, 11)
        center = np.arctan2(np.sin(draws).sum(), np.cos(draws).sum())
        assert abs(wrap_angle(center - mu)) < 0.02

    def test_resultant_matches_bessel_ratio(self):
        draws, _ = pair_headings(2.0, 13)
        assert mean_resultant_length(draws) == pytest.approx(
            bessel_ratio(2.0), abs=0.01)


class TestWrapAngle:
    @pytest.mark.parametrize("raw,expected", [
        (0.0, 0.0),
        (3 * np.pi, np.pi),
        (-np.pi, np.pi),
        (np.pi, np.pi),
        (2 * np.pi, 0.0),
    ])
    def test_examples(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)

    def test_congruence(self):
        grid = np.linspace(-3.1, 3.1, 101)
        for k in (-3, -1, 2, 5):
            np.testing.assert_allclose(wrap_angle(grid + 2 * np.pi * k),
                                       wrap_angle(grid), atol=1e-9)

    def test_range_half_open(self):
        rng = np.random.default_rng(3)
        vals = wrap_angle(rng.uniform(-50, 50, size=10_000))
        assert np.all(vals > -np.pi) and np.all(vals <= np.pi)


def _python(code, cwd=None):
    """Run code in a fresh interpreter on this checkout's src/; stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_scipy_optimize_out():
    # No scipy module at all: scipy.special, the only one the pipeline
    # uses, loads on the first Bessel evaluation; a root finder would
    # pull in scipy.optimize and its start-up cost.
    out = _python("import sys, geohmm, geohmm.cli; "
                  "print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


# The CLI runs of a plain Baum-Welch comparison, then a with-odometry
# learn; prints whether scipy.special was loaded after each, and the
# sha256 of the learned model.
_CLI_RUNS = """
import hashlib, json, sys
%s
from geohmm.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

run("make-loop", "-o", "true.json")
run("simulate", "true.json", "-o", "exp.txt", "-T", "200", "--seed", "4")
run("check", "true.json")
run("render", "true.json", "-o", "map.svg")
run("learn", "exp.txt", "-o", "without.json", "-n", "16", "--no-odometry",
    "--max-iters", "5", "--seed", "5")
run("eval-kl", "true.json", "without.json", "-L", "100", "-n", "2")
after_baseline = "scipy.special" in sys.modules
run("learn", "exp.txt", "-o", "with.json", "-n", "16", "--max-iters", "3",
    "--seed", "6")
with open("with.json", "rb") as fh:
    digest = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps([after_baseline, "scipy.special" in sys.modules, digest]))
"""


def test_scipy_special_loads_at_first_bessel_evaluation(tmp_path):
    lazy, eager = tmp_path / "lazy", tmp_path / "eager"
    lazy.mkdir()
    eager.mkdir()
    after_baseline, after_learn, digest = json.loads(
        _python(_CLI_RUNS % "", cwd=lazy).splitlines()[-1])
    assert not after_baseline
    assert after_learn
    # Loading scipy.special up front changes no byte of the model.
    *_, eager_digest = json.loads(
        _python(_CLI_RUNS % "import scipy.special",
                cwd=eager).splitlines()[-1])
    assert digest == eager_digest
