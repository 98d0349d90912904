"""Command-line surface: files, exit codes, determinism, replay."""

import ast
import hashlib
import json
import pathlib

import numpy as np
import pytest

from geohmm.cli import (EXIT_IMPOSSIBLE, EXIT_INCONSISTENT, EXIT_INPUT,
                        EXIT_OK, main)
from geohmm.io import load_experience, load_model, save_experience, save_model
from geohmm.model import ExperienceSequence
from geohmm.simgen import LoopSpec, make_loop_model
from oracles import with_entries


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

    def test_file_bytes_are_pinned(self, experience_path):
        # The experience file format must not change by a byte.
        assert sha(experience_path) == (
            "237e18f0af30dc4a41eeb5738415704cd0d96273bc110e41d8f475a919b84eea")


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

    def test_runs_carry_their_restart_index(self, tmp_path, experience_path):
        # A run is reproduced by replaying the manifest (same --seed and
        # --restarts); "seed" + k used to be recorded, which reproduced
        # nothing after restart 0.
        out = tmp_path / "m.json"
        assert main(["learn", str(experience_path), "-o", str(out),
                     "-n", "16", "--restarts", "3", "--seed", "10",
                     "--max-iters", "3"]) == EXIT_OK
        report = json.loads((tmp_path / "m.json.report.json").read_text())
        assert [run["restart"] for run in report["runs"]] == [0, 1, 2]
        assert not any("seed" in run for run in report["runs"])

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

    def test_prefix_sweep_writes_the_report_asked_for(self, tmp_path,
                                                      experience_path):
        out, report = tmp_path / "m.json", tmp_path / "myreport.json"
        assert main(["learn", str(experience_path), "-o", str(out),
                     "-n", "16", "--prefix-lengths", "100",
                     "--max-iters", "2", "--report", str(report)]) == EXIT_OK
        assert set(json.loads(report.read_text())["prefix_sweep"]) == {"100"}
        assert not (tmp_path / "m.report.json").exists()
        manifest = tmp_path / "m.p100.model.json.manifest.json"
        assert json.loads(manifest.read_text())["outputs"][-1] == str(report)

    def test_prefix_length_out_of_range_writes_nothing(self, tmp_path,
                                                       experience_path):
        # Every length is checked before the first learn: 900 > 300 steps.
        before = set(tmp_path.iterdir())
        assert main(["learn", str(experience_path),
                     "-o", str(tmp_path / "out.json"), "-n", "16",
                     "--prefix-lengths", "100,900"]) == EXIT_INPUT
        assert set(tmp_path.iterdir()) == before

    def test_repeated_prefix_length_writes_nothing(self, tmp_path, capsys,
                                                   experience_path):
        # A repeated length used to be learned twice, its model written
        # twice and listed twice in the manifest.
        before = set(tmp_path.iterdir())
        assert main(["learn", str(experience_path),
                     "-o", str(tmp_path / "out.json"), "-n", "16",
                     "--max-iters", "3",
                     "--prefix-lengths", "100,200,100"]) == EXIT_INPUT
        assert "prefix length 100 given twice" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before

    def test_multi_restart_later_best_run(self, tmp_path):
        # Restart 0 is not the best here, by 0.2 nats and more: choosing
        # the best run used to compare runs by value and exit 2.
        true, exp = tmp_path / "true.json", tmp_path / "exp.txt"
        assert main(["make-loop", "-o", str(true)]) == EXIT_OK
        assert main(["simulate", str(true), "-o", str(exp), "-T", "800",
                     "--seed", "1"]) == EXIT_OK
        argv = ["learn", str(exp), "-n", "16", "--constraints", "additive",
                "--mode", "relative", "--smoothing", "0.005",
                "--restarts", "3", "--seed", "102"]
        assert main(argv + ["-o", str(tmp_path / "m.json")]) == EXIT_OK
        assert main(argv + ["-o", str(tmp_path / "sweep.json"),
                            "--prefix-lengths", "200,800"]) == EXIT_OK
        single = json.loads((tmp_path / "m.json.report.json").read_text())
        sweep = json.loads((tmp_path / "sweep.report.json").read_text())
        reports = [single] + [sweep["prefix_sweep"][k] for k in ("200", "800")]
        for report in reports:
            finals = [run["final_loglik"] for run in report["runs"]]
            assert len(finals) == 3
            best = report["best_index"]
            assert best == int(np.argmax(finals))
            assert finals[best] > max(finals[:best] + finals[best + 1:]) + 1e-6
        assert all(report["best_index"] != 0 for report in reports)
        chosen = load_model(str(tmp_path / "sweep.p800.model.json"))
        assert np.array_equal(chosen.A, load_model(str(tmp_path / "m.json")).A)

    def test_learn_from_initial_continues_a_run_exactly(self, tmp_path,
                                                       experience_path):
        argv = ["learn", str(experience_path), "--constraints", "additive"]
        whole, head, resumed = (tmp_path / "whole.json",
                                tmp_path / "head.json",
                                tmp_path / "resumed.json")
        assert main(argv + ["-n", "16", "--max-iters", "6",
                            "-o", str(whole)]) == EXIT_OK
        assert main(argv + ["-n", "16", "--max-iters", "2",
                            "-o", str(head)]) == EXIT_OK
        assert main(argv + ["--initial", str(head), "--max-iters", "4",
                            "-o", str(resumed)]) == EXIT_OK
        assert sha(resumed) == sha(whole)

    def test_n_states_must_match_initial(self, tmp_path, capsys,
                                         loop_model_path, experience_path):
        # -n used to give way to the 16 states of --initial without a word.
        argv = ["learn", str(experience_path), "-o", str(tmp_path / "m.json"),
                "--initial", str(loop_model_path), "--max-iters", "1"]
        before = set(tmp_path.iterdir())
        assert main(argv + ["-n", "5"]) == EXIT_INPUT
        assert "16 states, n_states is 5" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == before
        assert main(argv + ["-n", "16"]) == EXIT_OK

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


    @pytest.mark.parametrize("option", ["--sigma-x", "--sigma-y",
                                        "--sigma-theta"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_invalid_sigma_rejected_up_front(self, tmp_path, capsys,
                                             experience_path, option, value):
        # nan used to end in a TypeError traceback inside tag_states, and
        # inf in a relation-table error that named no option.
        sigmas = {"--sigma-x": "0.5", "--sigma-y": "0.5",
                  "--sigma-theta": "0.3", option: value}
        code = main(["learn", str(experience_path), "-o",
                     str(tmp_path / "m.json"), "-n", "16"]
                    + [token for pair in sigmas.items() for token in pair])
        assert code == EXIT_INPUT
        field = option[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            "error: %s must be finite and > 0, got %r\n"
            % (field, float(value)))
        assert not list(tmp_path.glob("m.json*"))

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

    def test_no_environment_variable_is_read(self):
        # An environment variable is a knob the manifest cannot record.
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "geohmm"
        reads = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"
                        and node.attr in ("environ", "getenv")):
                    reads.append((path.name, node.lineno))
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    reads += [(path.name, node.lineno) for a in node.names
                              if a.name in ("environ", "getenv")]
        assert not reads


class TestCheck:
    def test_consistent_model_exit_zero(self, loop_model_path):
        assert main(["check", str(loop_model_path)]) == EXIT_OK

    @staticmethod
    def save_broken(tmp_path, loop_model_path, shift):
        """The loop model with mu_x[0, 1] shifted, which breaks
        anti-symmetry; returns its path."""
        model = load_model(str(loop_model_path))
        R = model.relations
        relations = with_entries(R, mu_x={(0, 1): R.mu_x[0, 1] + shift})
        bad = tmp_path / "bad.json"
        save_model(model.replace(relations=relations), str(bad))
        return bad

    @pytest.mark.parametrize("key, value", [
        ("n_states", 16.9), ("obs_dims", [4.5, 4, 4]), ("start_state", 1.7),
        ("n_states", 15)])
    def test_model_sizes_checked_on_load(self, tmp_path, capsys,
                                         loop_model_path, key, value):
        data = json.loads(loop_model_path.read_text())
        data[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["check", str(bad)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: %s" % key)

    def test_violations_exit_code(self, tmp_path, loop_model_path):
        bad = self.save_broken(tmp_path, loop_model_path, 0.5)
        assert main(["check", str(bad), "--level", "antisym"]) \
            == EXIT_INCONSISTENT

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_invalid_tol_is_input_error(self, tmp_path, loop_model_path,
                                        tol, capsys):
        bad = self.save_broken(tmp_path, loop_model_path, 5.0)
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

    def test_json_lists_each_violation_record(self, tmp_path,
                                              loop_model_path, capsys):
        bad = self.save_broken(tmp_path, loop_model_path, 0.5)
        assert main(["check", str(bad), "--level", "antisym", "--format",
                     "json"]) == EXIT_INCONSISTENT
        (v,) = json.loads(capsys.readouterr().out)["violations"]
        assert v == {"kind": "antisymmetry", "component": "x",
                     "indices": [0, 1], "magnitude": pytest.approx(0.5)}


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
        from geohmm.model import GeoHmm
        from oracles import zero_relations
        tiny = GeoHmm(A=np.ones((1, 1)), B=(np.array([[0.5], [0.5]]),),
                      start_state=0, relations=zero_relations(1))
        save_model(tiny, str(small))
        assert main(["eval-kl", str(loop_model_path),
                     str(small)]) == EXIT_INPUT

    def test_learned_model_keeps_the_declared_alphabet(self, tmp_path):
        # Five steps miss symbol 3 of dimension 2; the alphabet in the
        # header keeps it.
        true, exp, learned = (tmp_path / "true.json", tmp_path / "exp.txt",
                              tmp_path / "m.json")
        assert main(["make-loop", "-o", str(true)]) == EXIT_OK
        assert main(["simulate", str(true), "-o", str(exp),
                     "-T", "5", "--seed", "1"]) == EXIT_OK
        seq = load_experience(str(exp))
        assert seq.obs_dims == (4, 4, 4)
        assert seq.observations.max(axis=0).tolist() == [3, 3, 2]
        learn = ["learn", str(exp), "-o", str(learned), "-n", "3",
                 "--no-odometry", "--max-iters", "0"]
        assert main(learn) == EXIT_OK
        assert load_model(str(learned)).obs_dims == (4, 4, 4)
        assert main(["eval-kl", str(true), str(learned)]) == EXIT_OK
        # A file without the key reads the alphabet off the data.
        lines = exp.read_text().splitlines()
        lines[1] = lines[1].replace(" alphabet=4,4,4", "")
        exp.write_text("\n".join(lines) + "\n")
        assert main(learn) == EXIT_OK
        assert load_model(str(learned)).obs_dims == (4, 4, 3)
        # A symbol outside the declared alphabet is an input error.
        lines[1] = lines[1].replace("l=3", "l=3 alphabet=4,4,2")
        exp.write_text("\n".join(lines) + "\n")
        assert main(learn) == EXIT_INPUT

    def test_manifest_without_output_file(self, tmp_path, loop_model_path):
        model, manifest = str(loop_model_path), tmp_path / "kl.m.json"
        assert main(["eval-kl", model, model, "-L", "20", "-n", "2",
                     "--manifest", str(manifest)]) == EXIT_OK
        recorded = json.loads(manifest.read_text())
        assert recorded["command"] == "eval-kl"
        assert recorded["inputs"] == [model, model]
        assert recorded["outputs"] == []

    @pytest.mark.parametrize("flag", ["-n", "-L"])
    def test_empty_sample_is_input_error(self, tmp_path, loop_model_path,
                                         flag):
        out = tmp_path / "kl.json"
        assert main(["eval-kl", str(loop_model_path), str(loop_model_path),
                     flag, "0", "-o", str(out)]) == EXIT_INPUT
        assert not out.exists()


class TestParserReuse:
    """main parses every call with one parser per process; no call's
    options reach the next."""

    def test_check_format_does_not_carry_over(self, loop_model_path,
                                               capsys):
        assert main(["check", str(loop_model_path), "--format",
                     "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["consistent"] is True
        assert main(["check", str(loop_model_path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("consistent at level")

    def test_eval_kl_output_does_not_carry_over(self, tmp_path,
                                                 loop_model_path, capsys):
        model = str(loop_model_path)
        assert main(["eval-kl", model, model, "-L", "50", "-n", "2",
                     "-o", str(tmp_path / "kl.json")]) == EXIT_OK
        before = sorted(p.name for p in tmp_path.iterdir())
        assert "kl.json" in before
        assert main(["eval-kl", model, model, "-L", "50", "-n",
                     "2"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "KL estimate")

    def test_bad_option_after_good_call_exits_2(self, loop_model_path,
                                                capsys):
        assert main(["check", str(loop_model_path)]) == EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["check", str(loop_model_path), "--no-such-option"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: geohmm") and "--no-such-option" in err

    def test_at_most_one_parser_tree(self, tmp_path, loop_model_path,
                                     monkeypatch):
        import argparse

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "geohmm":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        model = str(loop_model_path)
        assert main(["check", model]) == EXIT_OK
        assert main(["render", model, "-o", str(tmp_path / "m.svg")]) \
            == EXIT_OK
        assert main(["make-loop", "-o", str(tmp_path / "l.json")]) == EXIT_OK
        assert main(["replay", str(tmp_path / "l.json.manifest.json")]) \
            == EXIT_OK
        assert len(built) <= 1


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

    @pytest.mark.parametrize("command", ["make-loop", "simulate", "learn",
                                         "eval-kl", "check", "render"])
    def test_replay_reproduces_outputs(self, tmp_path, loop_model_path,
                                       experience_path, command):
        model, exp = str(loop_model_path), str(experience_path)
        out = str(tmp_path / "out")
        argv = {
            "make-loop": ["make-loop", "-o", out, "--states", "4,3,4,3"],
            "simulate": ["simulate", model, "-o", out, "-T", "60",
                         "--seed", "21"],
            "learn": ["learn", exp, "-o", out, "-n", "16", "--restarts", "2",
                      "--max-iters", "3", "--seed", "4"],
            "eval-kl": ["eval-kl", model, model, "-L", "50", "-n", "2",
                        "--seed", "3", "-o", out],
            "check": ["check", model, "-o", out],
            "render": ["render", model, "-o", out],
        }[command]
        assert main(argv) == EXIT_OK
        manifest = tmp_path / "out.manifest.json"
        recorded = json.loads(manifest.read_text())
        assert recorded["command"] == command and recorded["argv"] == argv
        outputs = [pathlib.Path(p) for p in recorded["outputs"]]
        assert outputs[0] == pathlib.Path(out)
        before = [sha(p) for p in outputs]
        for path in outputs:
            path.unlink()
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert [sha(p) for p in outputs] == before

    def test_replay_rejects_non_manifest(self, tmp_path, loop_model_path):
        assert main(["replay", str(loop_model_path)]) == EXIT_INPUT

    def test_replay_runs_where_the_run_ran(self, tmp_path, monkeypatch):
        # Relative paths in the argv used to resolve wherever replay was
        # started: this replay sampled ./true.json over ./exp.txt.
        ident = tmp_path / "ident"
        ident.mkdir()
        monkeypatch.chdir(ident)
        assert main(["make-loop", "--states", "4,3,4,3",
                     "-o", "true.json"]) == EXIT_OK
        assert main(["simulate", "true.json", "-o", "exp.txt",
                     "-T", "20"]) == EXIT_OK
        recorded = (ident / "exp.txt").read_bytes()
        (ident / "exp.txt").unlink()
        monkeypatch.chdir(tmp_path)
        assert main(["make-loop", "-o", "true.json"]) == EXIT_OK
        (tmp_path / "exp.txt").write_text("unrelated\n")
        assert main(["replay", "ident/exp.txt.manifest.json"]) == EXIT_OK
        assert (ident / "exp.txt").read_bytes() == recorded
        assert (tmp_path / "exp.txt").read_text() == "unrelated\n"
        assert pathlib.Path.cwd().samefile(tmp_path)

    def test_replay_unrecorded_or_missing_directory(self, tmp_path,
                                                    monkeypatch, capsys,
                                                    loop_model_path):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", loop_model_path.name, "-o", "a.txt",
                     "-T", "20"]) == EXIT_OK
        manifest, out = tmp_path / "a.txt.manifest.json", tmp_path / "a.txt"
        recorded = json.loads(manifest.read_text())
        assert pathlib.Path(recorded["cwd"]).samefile(tmp_path)
        before = sha(out)
        out.unlink()
        # A manifest without the key replays in the current directory.
        del recorded["cwd"]
        manifest.write_text(json.dumps(recorded))
        assert main(["replay", str(manifest)]) == EXIT_OK
        assert sha(out) == before
        out.unlink()
        recorded["cwd"] = str(tmp_path / "gone")
        manifest.write_text(json.dumps(recorded))
        assert main(["replay", str(manifest)]) == EXIT_INPUT
        assert "gone" in capsys.readouterr().err
        assert not out.exists() and pathlib.Path.cwd().samefile(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("argv", None), ("argv", "make-loop -o t.json"),
        ("argv", ["make-loop", 5]), ("cwd", 5), ("cwd", None)])
    def test_replay_rejects_malformed_manifest(self, tmp_path, capsys, key,
                                               value):
        # A missing argv ended in a KeyError traceback, an argv string was
        # parsed letter by letter, and cwd 5 reached os.chdir as a file
        # descriptor.
        manifest = {"format": "geohmm-manifest",
                    "argv": ["make-loop", "-o", str(tmp_path / "t.json")]}
        if value is None and key == "argv":
            del manifest["argv"]
        else:
            manifest[key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        assert main(["replay", str(path)]) == EXIT_INPUT
        assert key in capsys.readouterr().err
        assert not (tmp_path / "t.json").exists()

    def test_replay_rejects_a_replay(self, tmp_path, capsys):
        # A manifest that replayed itself recursed until RecursionError.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "geohmm-manifest",
                                    "argv": ["replay", str(path)]}))
        assert main(["replay", str(path)]) == EXIT_INPUT
        assert "argv replays a manifest" in capsys.readouterr().err

    def test_replay_rejects_a_manifest_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        assert main(["replay", str(path)]) == EXIT_INPUT

    def test_seedless_commands_record_no_seed(self, tmp_path,
                                              loop_model_path):
        # make-loop, render and check take no --seed and recorded seed 0.
        model = str(loop_model_path)
        for argv, out, seed in [
                (["make-loop"], "m.json", None),
                (["render", model], "r.svg", None),
                (["check", model], "c.json", None),
                (["simulate", model, "-T", "5", "--seed", "3"], "s.txt", 3)]:
            assert main(argv + ["-o", str(tmp_path / out)]) == EXIT_OK
            manifest = tmp_path / (out + ".manifest.json")
            assert json.loads(manifest.read_text())["seed"] == seed

    def test_environment_changes_no_run(self, tmp_path, loop_model_path,
                                        monkeypatch):
        # GEOHMM_SEED used to seed a run given no --seed, while its manifest
        # recorded an argv that did not reproduce it.
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        monkeypatch.setenv("GEOHMM_SEED", "5")
        assert main(["simulate", str(loop_model_path), "-o", str(a),
                     "-T", "20"]) == EXIT_OK
        assert main(["simulate", str(loop_model_path), "-o", str(b),
                     "-T", "20", "--seed", "0"]) == EXIT_OK
        assert sha(a) == sha(b)
        monkeypatch.delenv("GEOHMM_SEED")
        a.unlink()
        assert main(["replay", str(tmp_path / "a.txt.manifest.json")]) \
            == EXIT_OK
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
    @pytest.mark.parametrize("plain_checkout", [False, True],
                             ids=["geohmm_set", "plain_checkout"])
    def test_loop_script_runs_unattended(self, tmp_path, plain_checkout):
        # A plain checkout has no GEOHMM and no PYTHONPATH: the script
        # finds src/ by itself.
        import os
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, SEQS="1", RESTARTS="1", LENGTH="120")
        if plain_checkout:
            env.pop("GEOHMM", None)
            env.pop("PYTHONPATH", None)
            env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable),
                                           env.get("PATH", "")])
        else:
            # geohmm need not be installed: the checkout's src/ goes first.
            env["GEOHMM"] = "%s -m geohmm.cli" % sys.executable
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(root, "src")]
                + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            ["bash", "experiments/loop.sh", str(tmp_path / "out"), "3"],
            capture_output=True, text=True, env=env, timeout=300, cwd=root)
        assert proc.returncode == 0, proc.stderr
        assert "KL(nats/symbol)" in proc.stdout
        assert "with" in proc.stdout and "without" in proc.stdout
        assert (tmp_path / "out" / "map_with1.svg").exists()
        # The script's wall time, in whole seconds, is its last line.
        last = proc.stdout.splitlines()[-1].split()
        assert last[0] == "elapsed" and last[1].isdigit() and last[2] == "s"
