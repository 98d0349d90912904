"""Command-line surface: files, exit codes, determinism, replay."""

import hashlib
import json

import numpy as np
import pytest

from geohmm.cli import (EXIT_IMPOSSIBLE, EXIT_INCONSISTENT, EXIT_INPUT,
                        EXIT_OK, main)
from geohmm.io import load_experience, load_model, save_experience, save_model
from geohmm.model import ExperienceSequence
from geohmm.simgen import LoopSpec, make_loop_model


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def loop_model_path(tmp_path):
    path = tmp_path / "loop.json"
    save_model(make_loop_model(LoopSpec()), str(path))
    return path


@pytest.fixture
def experience_path(tmp_path, loop_model_path):
    path = tmp_path / "exp.txt"
    code = main(["simulate", str(loop_model_path), "-o", str(path),
                 "-T", "300", "--seed", "11"])
    assert code == EXIT_OK
    return path


class TestSimulate:
    def test_writes_sequence_of_requested_shape(self, tmp_path,
                                                loop_model_path):
        out = tmp_path / "exp800.txt"
        code = main(["simulate", str(loop_model_path), "-o", str(out),
                     "-T", "800", "--seed", "1"])
        assert code == EXIT_OK
        seq = load_experience(str(out))
        assert len(seq) == 800
        assert seq.readings.shape == (799, 3)

    def test_length_one(self, tmp_path, loop_model_path):
        out = tmp_path / "one.txt"
        assert main(["simulate", str(loop_model_path), "-o", str(out),
                     "-T", "1"]) == EXIT_OK
        seq = load_experience(str(out))
        assert len(seq) == 1 and seq.readings.shape == (0, 3)

    def test_same_seed_identical_files(self, tmp_path, loop_model_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["simulate", str(loop_model_path), "-o", str(a), "-T", "100",
              "--seed", "9"])
        main(["simulate", str(loop_model_path), "-o", str(b), "-T", "100",
              "--seed", "9"])
        assert sha(a) == sha(b)

    def test_missing_model_is_input_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json"), "-o",
                     str(tmp_path / "x.txt"), "-T", "5"]) == EXIT_INPUT


class TestLearn:
    def test_square_walk_recovers_cycle(self, tmp_path):
        from square_walk_data import write_square_walk_experience
        exp = write_square_walk_experience(tmp_path / "walk.txt")
        out = tmp_path / "m.json"
        code = main(["learn", str(exp), "-o", str(out), "-n", "4",
                     "--sigma-x", "20", "--sigma-y", "20",
                     "--sigma-theta", "0.349", "--seed", "0"])
        assert code == EXIT_OK
        model = load_model(str(out))
        for i in range(4):
            assert model.A[i].argmax() == (i + 1) % 4

    def test_restart_determinism_byte_identical(self, tmp_path,
                                                experience_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        argv = ["learn", str(experience_path), "-n", "16", "--restarts", "3",
                "--seed", "7", "--max-iters", "30"]
        assert main(argv + ["-o", str(out1)]) == EXIT_OK
        assert main(argv + ["-o", str(out2)]) == EXIT_OK
        assert sha(out1) == sha(out2)
        r1 = json.loads((tmp_path / "m1.json.report.json").read_text())
        r2 = json.loads((tmp_path / "m2.json.report.json").read_text())
        assert r1 == r2
        assert len(r1["runs"]) == 3

    def test_additive_output_passes_check(self, tmp_path, experience_path):
        out = tmp_path / "m.json"
        assert main(["learn", str(experience_path), "-o", str(out),
                     "-n", "16", "--constraints", "additive",
                     "--max-iters", "30"]) == EXIT_OK
        assert main(["check", str(out), "--level", "additive"]) == EXIT_OK

    def test_no_odometry_baseline(self, tmp_path, experience_path):
        out = tmp_path / "b.json"
        assert main(["learn", str(experience_path), "-o", str(out),
                     "-n", "16", "--no-odometry", "--max-iters", "15",
                     "--seed", "2"]) == EXIT_OK
        report = json.loads((tmp_path / "b.json.report.json").read_text())
        assert report["runs"][0]["iterations"] >= 1

    def test_prefix_sweep_outputs(self, tmp_path, experience_path):
        out = tmp_path / "sweep.json"
        assert main(["learn", str(experience_path), "-o", str(out),
                     "-n", "16", "--prefix-lengths", "100,200",
                     "--max-iters", "15", "--seed", "5"]) == EXIT_OK
        assert (tmp_path / "sweep.p100.model.json").exists()
        assert (tmp_path / "sweep.p200.model.json").exists()
        report = json.loads((tmp_path / "sweep.report.json").read_text())
        assert set(report["prefix_sweep"]) == {"100", "200"}

    def test_multi_restart_later_best_run(self, tmp_path):
        # Restart 0 is not the best here: choosing the best run used to
        # compare runs by value and exit 2.
        true, exp = tmp_path / "true.json", tmp_path / "exp.txt"
        assert main(["make-loop", "-o", str(true)]) == EXIT_OK
        assert main(["simulate", str(true), "-o", str(exp), "-T", "800",
                     "--seed", "1"]) == EXIT_OK
        argv = ["learn", str(exp), "-n", "16", "--constraints", "additive",
                "--smoothing", "0.005", "--restarts", "3", "--seed", "101"]
        assert main(argv + ["-o", str(tmp_path / "m.json")]) == EXIT_OK
        assert main(argv + ["-o", str(tmp_path / "sweep.json"),
                            "--prefix-lengths", "200,800"]) == EXIT_OK
        single = json.loads((tmp_path / "m.json.report.json").read_text())
        sweep = json.loads((tmp_path / "sweep.report.json").read_text())
        reports = [single] + [sweep["prefix_sweep"][k] for k in ("200", "800")]
        for report in reports:
            finals = [run["final_loglik"] for run in report["runs"]]
            assert len(finals) == 3
            assert report["best_index"] == int(np.argmax(finals))
        assert all(report["best_index"] != 0 for report in reports)
        chosen = load_model(str(tmp_path / "sweep.p800.model.json"))
        assert np.array_equal(chosen.A, load_model(str(tmp_path / "m.json")).A)

    def test_missing_n_states_is_input_error(self, tmp_path,
                                             experience_path):
        assert main(["learn", str(experience_path), "-o",
                     str(tmp_path / "m.json")]) == EXIT_INPUT

    def test_impossible_sequence_exit_code(self, tmp_path, loop_model_path,
                                           experience_path):
        # an out-of-alphabet observation makes the sequence impossible to
        # parse against the model: corrupt a reading instead so loading
        # works but the density underflows
        seq = load_experience(str(experience_path))
        readings = seq.readings.copy()
        readings[5] = [1e9, 1e9, 0.0]
        bad = ExperienceSequence(observations=seq.observations,
                                 readings=readings)
        bad_path = tmp_path / "bad.txt"
        save_experience(bad, str(bad_path))
        code = main(["learn", str(bad_path), "-o", str(tmp_path / "m.json"),
                     "--initial", str(loop_model_path), "--max-iters", "5"])
        assert code == EXIT_IMPOSSIBLE

    @pytest.mark.parametrize("option, value", [("--smoothing", "-0.5"),
                                               ("--max-iters", "-3"),
                                               ("--density-floor", "nan")])
    def test_invalid_learn_option_rejected_up_front(self, tmp_path, capsys,
                                                    experience_path, option,
                                                    value):
        out = tmp_path / "m.json"
        code = main(["learn", str(experience_path), "-o", str(out),
                     "-n", "16", option, value])
        assert code == EXIT_INPUT
        assert option in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flags", [[], ["--no-odometry"]])
    @pytest.mark.parametrize("n_states", ["0", "-3"])
    def test_nonpositive_state_count_is_input_error(self, tmp_path, capsys,
                                                    experience_path,
                                                    n_states, flags):
        out = tmp_path / "m.json"
        code = main(["learn", str(experience_path), "-o", str(out),
                     "-n", n_states] + flags)
        assert code == EXIT_INPUT
        assert "n_states must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.glob("m.json*"))

    def test_smoothed_learn_from_model_with_zero_cells(self, tmp_path,
                                                       loop_model_path,
                                                       experience_path):
        # The true loop model has zero cells in A, so its MAP objective,
        # the first trace value, is -inf.
        out = tmp_path / "m.json"
        assert main(["learn", str(experience_path), "-o", str(out),
                     "--initial", str(loop_model_path), "--smoothing",
                     "0.005", "--max-iters", "5"]) == EXIT_OK
        with open(tmp_path / "m.json.report.json") as fh:
            run, = json.load(fh)["runs"]
        assert run["loglik_trace"][0] == -np.inf
        assert np.isfinite(run["final_loglik"])

class TestNoDeadKnobs:
    """Every learning knob is read somewhere: a field or option that
    nothing reads is a knob that does nothing."""

    def test_every_learn_config_field_is_read(self):
        import dataclasses
        import pathlib

        from geohmm.estimation import LearnConfig
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "geohmm"
        text = "".join(p.read_text() for p in sorted(src.glob("*.py")))
        unread = [f.name for f in dataclasses.fields(LearnConfig)
                  if "cfg.%s" % f.name not in text]
        assert not unread

    def test_every_subcommand_option_is_read(self):
        import argparse
        import inspect

        from geohmm import cli
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        text = inspect.getsource(cli)
        unread = [(name, a.dest) for name, p in sub.choices.items()
                  for a in p._actions
                  if not isinstance(a, argparse._HelpAction)
                  and "args.%s" % a.dest not in text]
        assert sorted(sub.choices) == ["check", "eval-kl", "learn",
                                       "make-loop", "render", "replay",
                                       "simulate"]
        assert not unread


class TestCheck:
    def test_consistent_model_exit_zero(self, loop_model_path):
        assert main(["check", str(loop_model_path)]) == EXIT_OK

    def test_violations_exit_code(self, tmp_path, loop_model_path):
        model = load_model(str(loop_model_path))
        model.relations.mu_x[0, 1] += 0.5   # break anti-symmetry
        bad = tmp_path / "bad.json"
        save_model(model, str(bad))
        assert main(["check", str(bad), "--level", "antisym"]) \
            == EXIT_INCONSISTENT

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tol_is_input_error(self, tmp_path, loop_model_path,
                                        tol, capsys):
        model = load_model(str(loop_model_path))
        model.relations.mu_x[0, 1] += 5.0   # break anti-symmetry
        bad = tmp_path / "bad.json"
        save_model(model, str(bad))
        out = tmp_path / "check.json"
        assert main(["check", str(bad), "--level", "antisym", "--tol", tol,
                     "-o", str(out)]) == EXIT_INPUT
        assert "tol" in capsys.readouterr().err
        assert not out.exists()

    def test_json_format(self, loop_model_path, capsys):
        assert main(["check", str(loop_model_path), "--format",
                     "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is True


class TestEvalKl:
    def test_self_comparison_near_zero(self, tmp_path, loop_model_path,
                                       capsys):
        assert main(["eval-kl", str(loop_model_path), str(loop_model_path),
                     "-L", "200", "-n", "4", "--format", "json",
                     "--seed", "3"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value_nats_per_symbol"]) \
            <= 3 * payload["std_error"] + 1e-12

    def test_alphabet_mismatch_is_input_error(self, tmp_path,
                                              loop_model_path):
        other = make_loop_model(LoopSpec())
        small = tmp_path / "small.json"
        import numpy as np
        from geohmm.model import GeoHmm, RelationMatrix
        tiny = GeoHmm(n_states=1, obs_dims=(2,), A=np.ones((1, 1)),
                      B=(np.array([[0.5], [0.5]]),), start_state=0,
                      relations=RelationMatrix.zero(1))
        save_model(tiny, str(small))
        assert main(["eval-kl", str(loop_model_path),
                     str(small)]) == EXIT_INPUT


    @pytest.mark.parametrize("flag", ["-n", "-L"])
    def test_empty_sample_is_input_error(self, tmp_path, loop_model_path,
                                         flag):
        out = tmp_path / "kl.json"
        assert main(["eval-kl", str(loop_model_path), str(loop_model_path),
                     flag, "0", "-o", str(out)]) == EXIT_INPUT
        assert not out.exists()


class TestRenderAndReplay:
    def test_render_svg(self, tmp_path, loop_model_path):
        out = tmp_path / "map.svg"
        assert main(["render", str(loop_model_path), "-o",
                     str(out)]) == EXIT_OK
        svg = out.read_text()
        assert svg.startswith("<?xml") and "<svg" in svg
        assert svg.count("<circle") == 16

    @pytest.mark.parametrize("size", [["--width", "80"], ["--height", "80"],
                                      ["--width", "0"], ["--height", "-5"]])
    def test_canvas_within_margins_is_input_error(self, tmp_path, capsys,
                                                  loop_model_path, size):
        out = tmp_path / "map.svg"
        assert main(["render", str(loop_model_path), "-o", str(out)]
                    + size) == EXIT_INPUT
        assert "margins" in capsys.readouterr().err
        assert not list(tmp_path.glob("map.svg*"))

    def test_smallest_canvas_beyond_margins(self, tmp_path, loop_model_path):
        out = tmp_path / "map.svg"
        assert main(["render", str(loop_model_path), "-o", str(out),
                     "--width", "81", "--height", "81"]) == EXIT_OK
        assert out.read_text().count("<circle") == 16

    def test_replay_reproduces_outputs(self, tmp_path, loop_model_path):
        out = tmp_path / "exp.txt"
        main(["simulate", str(loop_model_path), "-o", str(out), "-T", "60",
              "--seed", "21"])
        before = sha(out)
        assert main(["replay", str(tmp_path / "exp.txt.manifest.json")]) \
            == EXIT_OK
        assert sha(out) == before

    def test_replay_rejects_non_manifest(self, tmp_path, loop_model_path):
        assert main(["replay", str(loop_model_path)]) == EXIT_INPUT

    def test_env_seed_fallback(self, tmp_path, loop_model_path, monkeypatch):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        monkeypatch.setenv("GEOHMM_SEED", "77")
        main(["simulate", str(loop_model_path), "-o", str(a), "-T", "40"])
        monkeypatch.delenv("GEOHMM_SEED")
        main(["simulate", str(loop_model_path), "-o", str(b), "-T", "40",
              "--seed", "77"])
        assert sha(a) == sha(b)


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-m", "geohmm", "make-loop",
                               "-o", str(tmp_path / "loop.json")],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert load_model(str(tmp_path / "loop.json")).n_states == 16


class TestEndToEndScript:
    def test_loop_script_runs_unattended(self, tmp_path):
        import os
        import subprocess
        import sys

        env = dict(os.environ, SEQS="1", RESTARTS="1", LENGTH="120",
                   GEOHMM="%s -m geohmm.cli" % sys.executable)
        proc = subprocess.run(
            ["bash", "experiments/loop.sh", str(tmp_path / "out"), "3"],
            capture_output=True, text=True, env=env, timeout=300,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert proc.returncode == 0, proc.stderr
        assert "KL(nats/symbol)" in proc.stdout
        assert "with" in proc.stdout and "without" in proc.stdout
        assert (tmp_path / "out" / "map_with1.svg").exists()
