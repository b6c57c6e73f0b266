import json
import os

import numpy as np
import pytest

from equisym import checks as checks_mod
from equisym import cli
from equisym.checks import CheckResult
from equisym.groups import orthogonal_group


FAST = ["--steps", "5", "--hidden", "8", "--batch-size", "16",
        "--n-mc-eval", "2", "--n-test", "8"]


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

    def test_argparse_error_is_2(self, capsys):
        assert cli.main(["check", "not-a-suite"]) == 2
        assert cli.main([]) == 2
        assert cli.main(["eval"]) == 2  # train already evaluates

    def test_failing_suite_is_1(self, monkeypatch, capsys):
        broken = orthogonal_group(2)
        broken.mul = lambda g, h: g @ h + 1e-3  # violates associativity/unit
        monkeypatch.setitem(
            checks_mod.SUITES, "groups",
            lambda: checks_mod.check_groups({"broken O(2)": broken},
                                            n_samples=10))
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


class TestCheckCommand:
    def test_cosets_suite_passes(self, monkeypatch, capsys):
        monkeypatch.setitem(
            checks_mod.SUITES, "cosets",
            lambda: checks_mod.check_cosets(n_samples=50))
        assert cli.main(["check", "cosets"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 7

    def test_symmetrise_suite_passes(self, capsys):
        assert cli.main(["check", "symmetrise"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 14
        assert "14/14 checks passed" in out

    def test_all_runs_every_suite_in_order(self, monkeypatch):
        for name in checks_mod.SUITES:
            monkeypatch.setitem(
                checks_mod.SUITES, name,
                lambda name=name: [CheckResult(f"{name} {i}", True, 0.0) for i in (1, 2)])
        assert [r.name for r in checks_mod.run_suite("all")] == [
            f"{name} {i}" for name in checks_mod.SUITES for i in (1, 2)]


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
        from equisym import nn

        params = nn.load_params(str(tmp_path / f"params_{tag}.txt"))
        assert all(np.all(np.isfinite(p)) for p in params)

    def test_diverged_run_is_1(self, tmp_path, monkeypatch, capsys):
        from equisym import nn

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
        from equisym import nn

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
