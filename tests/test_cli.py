import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equisym
from equisym import checks as checks_mod
from equisym import cli, nn
from equisym.bench import VARIANTS
from equisym.checks import CheckResult
from equisym.groups import orthogonal_group


FAST = ["--steps", "5", "--hidden", "8", "--batch-size", "16",
        "--n-mc-eval", "2", "--n-test", "8"]

# train's flags with small valid values, and the edge values any of them may take
TRAIN_FLAGS = {"--d": ("1", "2", "3"), "--hidden": ("1", "4", "8"), "--steps": ("0", "1", "3"),
               "--batch-size": ("1", "4", "8"), "--n-mc-eval": ("1", "3"),
               "--n-test": ("1", "4", "8"), "--lr": ("1e-3", "1e300", "1.7e308"),
               "--condition-cap": ("3", "1e4"), "--seed": ("0", "1", "5"), "--variant": VARIANTS}
TRAIN_EDGES = ("0", "-1", "1", "nan", "inf", "-inf", "", " ", "2.5", "1e-320", "one")


class TestConfigParsing:
    def test_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# benchmark settings\n"
            "variant = sym_haar\n"
            "d = 3\n"
            "lr = 0.001  # small\n"
            "\n"
        )
        values = cli.parse_config_file(str(cfg))
        assert values == {"variant": "sym_haar", "d": 3, "lr": 0.001}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("colour = blue\n")
        with pytest.raises(cli.UsageError):
            cli.parse_config_file(str(cfg))

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(cli.UsageError):
            cli.parse_config_file(str(cfg))

    def test_unknown_variant_rejected(self):
        args = cli.build_parser().parse_args(["train", "--variant", "mystery"])
        with pytest.raises(cli.UsageError):
            cli.build_config(args)

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nd = 3\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(cfg), "--seed", "9"])
        config = cli.build_config(args)
        assert config.seed == 9
        assert config.d == 3

    def test_every_field_has_a_typed_flag(self):
        from dataclasses import fields

        from equisym.bench import TrainConfig

        parser = cli.build_parser()
        for f in fields(TrainConfig):
            value = "sym_recursive" if f.name == "variant" else "3"
            flag = "--" + f.name.replace("_", "-")
            args = parser.parse_args(["train", flag, value])
            parsed = getattr(args, f.name)
            assert type(parsed) is cli.CONFIG_TYPES[f.name]
            assert type(getattr(cli.build_config(args), f.name)) is type(parsed)

    def test_mistyped_file_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = many\n")
        with pytest.raises(cli.UsageError):
            cli.parse_config_file(str(cfg))

    def test_missing_config_file(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", "/nonexistent.cfg"])
        with pytest.raises(cli.UsageError):
            cli.build_config(args)


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli.main(["train", "--config", "/nonexistent.cfg"]) == 2

    def test_infeasible_condition_cap_is_2(self, tmp_path, capsys):
        # valid at parse time, but no Gaussian batch meets the cap
        rc = cli.main(["train", "--variant", "plain_mlp", "--out", str(tmp_path)]
                      + FAST + ["--condition-cap", "1.0001"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: condition cap 1.0001 rejected 100 batches")
        assert "Traceback" not in err

    def test_failed_run_leaves_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["train", "--variant", "plain_mlp", "--out", str(out)]
                      + FAST + ["--condition-cap", "1.0001"])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--variant", "plain_mlp", "--seed", "-1"],
        ["train", "--variant", "plain_mlp", "--seed", str(2**64)],
        ["sweep", "--variants", "plain_mlp", "--seeds", "0,-1"],
    ], ids=["train-negative", "train-2to64", "sweep-negative"])
    def test_seed_outside_64_bits_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert cli.main(argv + ["--steps", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field seed") and "Traceback" not in err
        assert not out.exists()

    def test_seed_outside_64_bits_in_config_file_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {2**64}\n")
        assert cli.main(["train", "--config", str(cfg), "--steps", "1",
                         "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: config field seed")

    def test_config_directory_is_2(self, tmp_path, capsys):
        assert cli.main(["train", "--config", str(tmp_path), "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_out_file_is_2_before_training(self, tmp_path, monkeypatch, capsys, command):
        def no_experiment(config):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "run_experiment", no_experiment)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert cli.main([command, "--out", str(out)] + FAST) == 2
        assert capsys.readouterr().err == f"error: output path is not a directory: {out}\n"
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_out_under_a_file_is_2_before_training(self, tmp_path, monkeypatch, capsys,
                                                    command):
        def no_experiment(config):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "run_experiment", no_experiment)
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert cli.main([command, "--out", str(taken / "sub" / "run")] + FAST) == 2
        assert capsys.readouterr().err == f"error: output path is not a directory: {taken}\n"
        assert sorted(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "not a directory\n"

    def test_config_not_utf8_is_2(self, tmp_path, capsys):
        config = tmp_path / "bin.cfg"
        config.write_bytes(b"\xff\xfe\x00")
        assert cli.main(["train", "--config", str(config), "--steps", "1",
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read config file {config}: not UTF-8 text\n"
        assert sorted(tmp_path.iterdir()) == [config]

    def test_argparse_error_is_2(self, capsys):
        assert cli.main(["check", "not-a-suite"]) == 2
        assert cli.main([]) == 2
        assert cli.main(["eval"]) == 2  # train already evaluates

    def test_failing_suite_is_1(self, monkeypatch, capsys):
        # violates associativity/unit
        broken = dataclasses.replace(orthogonal_group(2), mul=lambda g, h: g @ h + 1e-3)
        monkeypatch.setattr(checks_mod, "standard_groups", lambda: {"broken O(2)": broken})
        assert cli.main(["check", "groups"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out

    def test_passing_suite_is_0(self, monkeypatch, capsys):
        monkeypatch.setitem(
            checks_mod.SUITES, "groups",
            lambda: [CheckResult("stub", True, 0.0)])
        assert cli.main(["check", "groups"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] stub" in out
        assert "1/1 checks passed" in out


class TestImport:
    def test_cli_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads at the first generator build, not at import
        src = os.path.dirname(os.path.dirname(equisym.__file__))
        code = ("import sys, equisym.cli; "
                "print([m for m in sys.modules if m.startswith('numpy.random')])")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert run.stdout.strip() == "[]"


class TestCheckCommand:
    def test_cosets_suite_passes(self, capsys):
        assert cli.main(["check", "cosets"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7

    def test_suites_take_no_sizes_or_tolerances(self):
        # each row's size and tolerance is a checks constant, so the
        # acceptance tests call exactly what `check all` runs
        for fn in (checks_mod.check_groups, checks_mod.check_cosets,
                   checks_mod.check_stability, checks_mod.check_model_gaps,
                   checks_mod.check_symmetrise, checks_mod.check_gradients):
            assert list(inspect.signature(fn).parameters) == [], fn.__name__
        assert list(inspect.signature(checks_mod.check_group_axioms).parameters) == ["G"]
        assert list(inspect.signature(checks_mod.check_coset_bundle).parameters) == [
            "name", "bundle", "drawn"]

    def test_symmetrise_suite_passes(self, capsys):
        assert cli.main(["check", "symmetrise"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 15
        assert "15/15 checks passed" in out

    @pytest.mark.parametrize("suite, n_rows, failing", [
        ("gradients", 3, ["end-to-end jensen gradient vs finite differences"]),
        ("symmetrise", 15, [f"equivariance gap sym_recursive d={d}" for d in (2, 3)]),
    ])
    def test_degenerate_gamma_fails_its_rows(self, degenerate_gamma, capsys, suite,
                                             n_rows, failing):
        # a near-singular gamma draw is a failed row, not a traceback
        assert cli.main(["check", suite]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("[FAIL]")] == [
            f"[FAIL] {name}  worst_error=inf" for name in failing]
        assert len(lines) == n_rows + 1
        assert lines[-1] == f"{n_rows - len(failing)}/{n_rows} checks passed"

    def test_all_runs_every_suite_in_order(self, monkeypatch):
        for name in checks_mod.SUITES:
            monkeypatch.setitem(
                checks_mod.SUITES, name,
                lambda name=name: [CheckResult(f"{name} {i}", True, 0.0) for i in (1, 2)])
        assert [r.name for r in checks_mod.run_suite("all")] == [
            f"{name} {i}" for name in checks_mod.SUITES for i in (1, 2)]


class TestCheckOutput:
    # SHA-256 of each suite's run_check output, which prints every row's
    # name, verdict and worst_error to four significant digits.  A different
    # BLAS or numpy build may round matrix products differently and move
    # them.
    PINNED_SHA256 = {
        "groups": "e4c37eba53e855cd7a7574ba1ebd65af0737a9bf47ba21b3dbefbbd99e995035",
        "cosets": "ebc0304bef904ca27e770f6ea5678b1bb1b8330966e235ee05c38330f603abf2",
        "symmetrise": "ace92812c1280379caa938dd5d95d293b8b3f1e054340157fc45628a42c87f37",
        "gradients": "612dd08e54997ff5b6530f6b73a3bf63f9a5a48eb7baf165dc26de5e68e826a9",
    }

    @pytest.mark.parametrize("suite", list(PINNED_SHA256))
    def test_run_check_output_bit_identical(self, suite):
        out = io.StringIO()
        assert cli.run_check(suite, out=out) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == self.PINNED_SHA256[suite]


class TestTrainCommand:
    def test_writes_artifacts(self, tmp_path, capsys):
        rc = cli.main(["train", "--variant", "sym_haar", "--seed", "2",
                       "--out", str(tmp_path)] + FAST)
        assert rc == 0
        tag = "sym_haar_d2_seed2"
        history = (tmp_path / f"history_{tag}.csv").read_text().splitlines()
        assert history[0] == "step,objective"
        assert len(history) == 1 + 5  # header + one row per step
        summary = json.loads((tmp_path / f"summary_{tag}.json").read_text())
        assert summary["variant"] == "sym_haar"
        assert summary["equiv_gap"] <= 1e-6
        assert summary["diverged"] is False

        params = nn.load_params(str(tmp_path / f"params_{tag}.txt"))
        assert all(np.all(np.isfinite(p)) for p in params)

    def test_diverged_run_is_1(self, tmp_path, monkeypatch, capsys):
        real_backward = nn.mlp_backward

        def inf_backward(*args, **kwargs):
            grads, dx = real_backward(*args, **kwargs)
            return [np.full_like(g, np.inf) for g in grads], dx

        monkeypatch.setattr(nn, "mlp_backward", inf_backward)
        rc = cli.main(["train", "--variant", "plain_mlp", "--seed", "0",
                       "--out", str(tmp_path)] + FAST)
        assert rc == 1
        summary = json.loads((tmp_path / "summary_plain_mlp_d2_seed0.json").read_text())
        assert summary["diverged"] is True
        assert "status=diverged" in capsys.readouterr().out

    def test_degenerate_gamma_in_evaluate_is_diverged_run(self, tmp_path, degenerate_gamma,
                                                          capsys):
        zero_steps = FAST + ["--steps", "0"]  # so the first gamma draw is evaluate's
        rc = cli.main(["train", "--variant", "sym_recursive", "--seed", "0",
                       "--out", str(tmp_path)] + zero_steps)
        assert rc == 1
        summary = json.loads((tmp_path / "summary_sym_recursive_d2_seed0.json").read_text())
        assert summary["diverged"] is True
        assert np.isnan(summary["final_loss"]) and np.isnan(summary["equiv_gap"])
        assert "status=diverged" in capsys.readouterr().out
        rc = cli.main(["sweep", "--variants", "sym_recursive", "--out", str(tmp_path)]
                      + zero_steps)
        assert rc == 1
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1] == "sym_recursive,2,0,nan,nan,diverged"

    @pytest.mark.parametrize("flags,code", [
        ("--lr inf --steps 2 --batch-size 4 --hidden 4 --n-test 4 --n-mc-eval 2", 2),
        ("--d 3 --hidden 5 --steps 3 --batch-size 3 --lr 1.7e308 --n-mc-eval 3 --seed 3 "
         "--n-test 2", 1),
        ("--d 2 --hidden 5 --steps 1 --batch-size 1 --lr inf --n-mc-eval 1 --seed 1 "
         "--n-test 4", 2),
    ], ids=["lr-inf", "lr-huge", "lr-inf-in-evaluate"])
    def test_nonfinite_gamma_backbone_ends_cleanly(self, tmp_path, flags, code):
        # each once handed a NaN gamma-backbone output to np.linalg.cond, whose
        # LinAlgError escaped as a traceback: from train, or from evaluate
        # after the last step; a subprocess, as numpy's overflow warnings
        # are errors under pytest
        src = os.path.dirname(os.path.dirname(equisym.__file__))
        argv = ["train", "--variant", "sym_recursive", "--out", str(tmp_path / "run")]
        run = subprocess.run([sys.executable, "-m", "equisym.cli"] + argv + flags.split(),
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == code, run.stderr
        assert "Traceback" not in run.stderr
        if code == 2:
            assert run.stderr == "error: lr must be positive and finite, condition_cap above 1\n"
        else:
            assert "status=diverged" in run.stdout

    def test_repeat_run_identical_history(self, tmp_path, capsys):
        args = ["train", "--variant", "plain_mlp", "--seed", "4"] + FAST
        cli.main(args + ["--out", str(tmp_path / "a")])
        cli.main(args + ["--out", str(tmp_path / "b")])
        ha = (tmp_path / "a" / "history_plain_mlp_d2_seed4.csv").read_text()
        hb = (tmp_path / "b" / "history_plain_mlp_d2_seed4.csv").read_text()
        assert ha == hb

    def test_outdir_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EQUISYM_OUT", str(tmp_path / "envout"))
        rc = cli.main(["train", "--variant", "plain_mlp", "--seed", "0"] + FAST)
        assert rc == 0
        assert (tmp_path / "envout" / "summary_plain_mlp_d2_seed0.json").exists()


class TestTrainEndsCleanly:
    """train ends in exit 0 with a finite summary, exit 1 with a diverged
    one, or exit 2 with one error line and no output directory."""

    @pytest.mark.parametrize("flags", [
        "--variant sym_haar --d 2 --hidden 5 --steps 1 --batch-size 1 --lr 1.7e308 "
        "--n-mc-eval 1 --seed 1 --n-test 4",
        "--variant canonical_deterministic --d 2 --hidden 4 --steps 1 --batch-size 4 "
        "--lr 1e300 --n-mc-eval 2 --seed 5 --n-test 4",
    ], ids=["nonfinite-params", "nonfinite-evaluation"])
    def test_nonfinite_run_is_diverged(self, tmp_path, flags):
        # both printed status=ok: the last update made a parameter
        # non-finite, or left finite parameters whose evaluation overflows; a
        # subprocess, as numpy's overflow warnings are errors under pytest
        src = os.path.dirname(os.path.dirname(equisym.__file__))
        run = subprocess.run([sys.executable, "-m", "equisym.cli", "train", "--out",
                              str(tmp_path / "run")] + flags.split(),
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 1, run.stderr
        assert "Traceback" not in run.stderr
        assert "status=diverged" in run.stdout

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(valid=st.fixed_dictionaries({flag: st.sampled_from(values)
                                        for flag, values in TRAIN_FLAGS.items()}),
           edges=st.dictionaries(st.sampled_from(list(TRAIN_FLAGS)),
                                 st.sampled_from(TRAIN_EDGES), max_size=3),
           config=st.none() | st.binary(max_size=40))
    @example(valid={"--variant": "sym_haar", "--d": "2", "--hidden": "5", "--steps": "1",
                    "--batch-size": "1", "--lr": "1.7e308", "--n-mc-eval": "1", "--seed": "1",
                    "--n-test": "4"}, edges={}, config=None)
    def test_train_ends_in_a_summary_or_one_error_line(self, valid, edges, config):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "run")
            argv = ["train", "--out", out]
            if config is not None:
                with open(os.path.join(tmp, "run.cfg"), "wb") as fh:
                    fh.write(config)
                argv += ["--config", os.path.join(tmp, "run.cfg")]
            for flag, value in {**valid, **edges}.items():
                argv += [flag, value]
            err = io.StringIO()
            with warnings.catch_warnings(), np.errstate(all="ignore"), \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = cli.main(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert len([line for line in err.getvalue().splitlines()
                            if "error: " in line]) == 1, err.getvalue()
                assert not os.path.exists(out)
                return
            summaries = [name for name in os.listdir(out) if name.startswith("summary_")]
            assert len(summaries) == 1
            tag = summaries[0][len("summary_"):-len(".json")]
            with open(os.path.join(out, summaries[0])) as fh:
                summary = json.load(fh)
            with open(os.path.join(out, f"history_{tag}.csv")) as fh:
                assert fh.readline() == "step,objective\n"
            nn.load_params(os.path.join(out, f"params_{tag}.txt"))
            assert summary["diverged"] == (code == 1)
            if code == 0:
                assert math.isfinite(summary["final_loss"]) and math.isfinite(summary["equiv_gap"])


class TestSweepCommand:
    def test_grid_and_summary(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--variants", "plain_mlp,sym_haar",
                       "--dims", "2", "--seeds", "0,1",
                       "--summary", "--out", str(tmp_path)] + FAST)
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "variant,d,seed,final_loss,equiv_gap,status"
        assert len(lines) == 1 + 4
        assert all(line.endswith(",ok") for line in lines[1:])
        out = capsys.readouterr().out
        assert "median plain_mlp d=2:" in out
        assert "median sym_haar d=2:" in out

    def test_unknown_variant_rejected(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--variants", "mystery",
                       "--out", str(tmp_path)] + FAST)
        assert rc == 2

    @pytest.mark.parametrize("bad", [["--lr", "-1"], ["--dims", "0"], ["--dims", "two"],
                                     ["--n-mc-eval", "0"], ["--n-test", "0"],
                                     ["--condition-cap", "0.5"]])
    def test_invalid_cell_is_usage_error(self, tmp_path, capsys, bad):
        outdir = tmp_path / "out"
        rc = cli.main(["sweep", "--variants", "plain_mlp",
                       "--out", str(outdir)] + FAST + bad)
        assert rc == 2
        assert not outdir.exists()

    def test_cells_built_like_train_configs(self, tmp_path, monkeypatch, capsys):
        # config file, then flags, then the cell's variant, d and seed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\nhidden = 4\nseed = 9\n")
        seen = []

        def fake_experiment(config):
            seen.append(config)
            return {"final_loss": 0.5, "equiv_gap": 0.0, "diverged": False}

        monkeypatch.setattr(cli, "run_experiment", fake_experiment)
        rc = cli.main(["sweep", "--variants", "plain_mlp", "--dims", "2,3",
                       "--seeds", "0", "--config", str(cfg), "--hidden", "5",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert [(c.variant, c.d, c.seed, c.steps, c.hidden) for c in seen] == [
            ("plain_mlp", 2, 0, 3, 5), ("plain_mlp", 3, 0, 3, 5)]

    def test_failed_cells_exit_1(self, tmp_path, monkeypatch, capsys):
        real_backward = nn.mlp_backward

        def inf_backward(*args, **kwargs):
            grads, dx = real_backward(*args, **kwargs)
            return [np.full_like(g, np.inf) for g in grads], dx

        monkeypatch.setattr(nn, "mlp_backward", inf_backward)
        rc = cli.main(["sweep", "--variants", "plain_mlp", "--seeds", "0,1",
                       "--out", str(tmp_path)] + FAST)
        assert rc == 1
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert all(line.endswith(",diverged") for line in lines[1:])

    def test_raising_cell_is_error_row(self, tmp_path, monkeypatch, capsys):
        real_experiment = cli.run_experiment

        def flaky_experiment(config):
            if config.seed == 1:
                raise RuntimeError("cell failed")
            return real_experiment(config)

        monkeypatch.setattr(cli, "run_experiment", flaky_experiment)
        rc = cli.main(["sweep", "--variants", "plain_mlp", "--seeds", "0,1",
                       "--out", str(tmp_path)] + FAST)
        assert rc == 1
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert lines[1].startswith("plain_mlp,2,0,") and lines[1].endswith(",ok")
        assert lines[2] == "plain_mlp,2,1,nan,nan,error:RuntimeError"

    def test_empty_grid_rejected(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--variants", "", "--out", str(tmp_path)] + FAST)
        assert rc == 2
