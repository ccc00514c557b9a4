import json
import os

import numpy as np
import pytest

from visitsim.cli import PRESETS, main
from visitsim.errors import EstimationError

CFG = """
[scenario]
family = joint_model
weibull_scale = 0.30
gamma = 0.0
n_subjects = 25
seed = 31
tag = cli_demo
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(CFG)
    return str(path)


class TestSimulate:
    def test_writes_panel_and_manifest(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "panel.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == "subject_id,z,censoring_time,visit_time,y"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["master_seed"] == 31
        assert manifest["config"]["tag"] == "cli_demo"
        assert "panel.csv" in manifest["outputs"]

    def test_repeat_identical(self, cfg_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", cfg_path, "--seed", "42", "--out", str(a)])
        main(["simulate", "--config", cfg_path, "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, cfg_path, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("VISITSIM_SEED", "99")
        main(["simulate", "--config", cfg_path, "--out", str(a)])
        monkeypatch.delenv("VISITSIM_SEED")
        main(["simulate", "--config", cfg_path, "--seed", "99", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_preset_resolution(self, tmp_path):
        out = tmp_path / "panel.csv"
        assert main(["simulate", "--config", "jm_g0_l010.cfg", "--seed", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_unknown_config_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", "--config", "no_such.cfg", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "presets" in capsys.readouterr().err

    def test_bad_flag_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus"])
        assert exc.value.code == 1


class TestFitCommand:
    @pytest.fixture
    def panel_path(self, cfg_path, tmp_path):
        out = tmp_path / "panel.csv"
        main(["simulate", "--config", cfg_path, "--out", str(out)])
        return str(out)

    @pytest.mark.parametrize("model", ["B", "D", "E"])
    def test_fit_models(self, panel_path, tmp_path, model):
        out = tmp_path / f"fit_{model}.json"
        assert main(["fit", "--panel", panel_path, "--model", model, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["model"] == model
        assert data["converged"] is True
        assert ("loglik" in data and data["loglik"] is not None) == (model != "E")
        assert set(data["params"]["alpha1"]) == {"est", "se"}

    def test_fit_joint_with_dump(self, panel_path, tmp_path):
        out = tmp_path / "fit_A.json"
        dump = tmp_path / "contribs.csv"
        rc = main(["fit", "--panel", panel_path, "--model", "A", "--out", str(out),
                   "--dump-loglik", str(dump), "--gh-order", "15"])
        assert rc == 0
        data = json.loads(out.read_text())
        lines = dump.read_text().splitlines()
        assert lines[0] == "subject_id,loglik"
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert total == pytest.approx(data["loglik"], abs=1e-6)

    def test_dump_loglik_other_model_rejected_before_output(self, panel_path, tmp_path, capsys):
        out = tmp_path / "fit_B.json"
        dump = tmp_path / "contribs.csv"
        capsys.readouterr()
        rc = main(["fit", "--panel", panel_path, "--model", "B", "--out", str(out),
                   "--dump-loglik", str(dump)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("visitsim: error: --dump-loglik applies to model A only")
        assert not out.exists()
        assert not dump.exists()


    @pytest.mark.parametrize("command", ["fit", "run-study"])
    def test_nonadaptive_quadrature_flag_is_gone(self, cfg_path, panel_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = (["--panel", panel_path, "--model", "A", "--out", str(out)] if command == "fit"
                else ["--config", cfg_path, "--reps", "2", "--out-dir", str(out)])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--nonadaptive-quadrature"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --nonadaptive-quadrature" in capsys.readouterr().err
        assert not out.exists()


class TestBadNumericOptions:
    @pytest.mark.parametrize("argv, message", [
        (["run-study", "--config", "{cfg}", "--reps", "3", "--models", "D", "--threads", "1",
          "--gh-order", "2", "--out-dir", "{out}"], "quadrature order must be >= 3"),
        (["run-study", "--config", "{cfg}", "--reps", "3", "--models", "D", "--threads", "-1",
          "--out-dir", "{out}"], "threads must be >= 1"),
        (["run-study", "--config", "{cfg}", "--reps", "3", "--models", "D", "--threads", "0",
          "--out-dir", "{out}"], "threads must be >= 1"),
        (["fit", "--panel", "{panel}", "--model", "A", "--gh-order", "2", "--out", "{out}"],
         "quadrature order must be >= 3"),
        (["diagnose", "--panel", "{panel}", "--permutations", "-1", "--out", "{out}"],
         "permutation count must be >= 0"),
    ], ids=["run-study-gh-order", "run-study-threads-negative", "run-study-threads-zero",
            "fit-gh-order", "diagnose-permutations"])
    def test_rejected_before_any_output(self, cfg_path, tmp_path, capsys, argv, message):
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--config", cfg_path, "--out", str(panel)]) == 0
        out = tmp_path / "out"
        capsys.readouterr()
        argv = [a.format(cfg=cfg_path, panel=panel, out=out) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"visitsim: error: {message}")
        assert captured.out == ""
        assert not out.exists()


class TestRunStudyCommand:
    def test_gaps_that_do_not_advance_the_clock(self, tmp_path):
        # this scenario draws Weibull gaps that round to zero against the visit time;
        # about 300k rows per panel, with observed gaps down to 1e-22
        cfg = tmp_path / "zero_gap.cfg"
        cfg.write_text("[scenario]\nfamily = joint_model\nn_subjects = 200\nweibull_scale = 5.0\n"
                       "weibull_shape = 0.3\nsigma_u2 = 4.0\nseed = 0\n")
        out_dir = tmp_path / "study"
        assert main(["run-study", "--config", str(cfg), "--reps", "2", "--threads", "1",
                     "--models", "A,B,C,D,E", "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "estimates.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * (10 + 6 + 6 + 5 + 3)
        assert all(row.endswith(",1") for row in rows)

    def test_too_few_converged_fits_still_summarized(self, cfg_path, tmp_path, monkeypatch):
        from visitsim import harness

        real_fit_model = harness.fit_model
        calls = []

        def fit_model(panel, label, gh_order=25):
            calls.append(label)
            if calls.count("D") == 1 and label == "D":  # threads=1: replication 1
                raise EstimationError("no convergence")
            return real_fit_model(panel, label, gh_order)

        monkeypatch.setattr(harness, "fit_model", fit_model)
        out_dir = tmp_path / "study"
        with pytest.warns(RuntimeWarning, match="1 of 2 replications converged for model D"):
            rc = main(["run-study", "--config", cfg_path, "--reps", "2", "--models", "D,E",
                       "--out-dir", str(out_dir), "--threads", "1"])
        assert rc == 0
        assert sorted(os.listdir(out_dir)) == ["estimates.csv", "manifest.json", "performance.csv"]
        perf = [line.split(",") for line in (out_dir / "performance.csv").read_text().splitlines()[1:]]
        d_rows = [row for row in perf if row[1] == "D"]
        assert len(d_rows) == 5
        assert all(row[4:13] == ["nan"] * 9 and row[13] == "0.5" for row in d_rows)
        assert all(row[4] != "nan" and row[13] == "1.0" for row in perf if row[1] == "E")

    def test_model_d_converges_on_every_replication_of_a_dense_study(self, tmp_path):
        # at this study seed, a BFGS fit of model D once stopped short of its gradient check
        out_dir = tmp_path / "study"
        assert main(["run-study", "--config", "jm_g15_l100", "--seed", "1518295076", "--reps", "2",
                     "--models", "D", "--threads", "1", "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "estimates.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 5
        assert all(row.endswith(",1") for row in rows)

    def test_outputs_and_manifest(self, cfg_path, tmp_path):
        out_dir = tmp_path / "study"
        rc = main(["run-study", "--config", cfg_path, "--reps", "3", "--models", "D,E",
                   "--out-dir", str(out_dir), "--threads", "1", "--gh-order", "15"])
        assert rc == 0
        est = (out_dir / "estimates.csv").read_text().splitlines()
        assert est[0] == "scenario,rep,model,param,est,se,converged"
        assert len(est) == 1 + 3 * (5 + 3)
        perf = (out_dir / "performance.csv").read_text().splitlines()
        assert perf[0] == ("scenario,model,param,truth,mean_est,bias,bias_mcse,emp_se,"
                           "mod_se,mse,mse_mcse,coverage,coverage_mcse,conv_rate")
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "run-study"
        assert manifest["replications"] == 3
        assert manifest["models"] == ["D", "E"]
        assert manifest["gh_order"] == 15

    def test_reproducible_from_manifest(self, cfg_path, tmp_path):
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        args = ["run-study", "--config", cfg_path, "--reps", "3", "--models", "D",
                "--threads", "1"]
        main(args + ["--out-dir", str(d1)])
        manifest = json.loads((d1 / "manifest.json").read_text())
        # rebuild the config from the manifest alone and rerun
        cfg2 = tmp_path / "rebuilt.cfg"
        lines = ["[scenario]"]
        for key, val in manifest["config"].items():
            lines.append(f"{key} = {val}")
        cfg2.write_text("\n".join(lines) + "\n")
        main(["run-study", "--config", str(cfg2), "--reps", str(manifest["replications"]),
              "--models", ",".join(manifest["models"]), "--seed", str(manifest["master_seed"]),
              "--threads", "1", "--out-dir", str(d2)])
        assert (d1 / "estimates.csv").read_bytes() == (d2 / "estimates.csv").read_bytes()


class TestSummarizeCommand:
    def test_roundtrip(self, cfg_path, tmp_path):
        out_dir = tmp_path / "study"
        main(["run-study", "--config", cfg_path, "--reps", "3", "--models", "D",
              "--out-dir", str(out_dir), "--threads", "1"])
        out = tmp_path / "perf2.csv"
        rc = main(["summarize", "--estimates", str(out_dir / "estimates.csv"),
                   "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == (out_dir / "performance.csv").read_bytes()


class TestDescribeDiagnose:
    def test_describe(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "desc.csv"
        assert main(["describe", "--config", cfg_path, "--reps", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,measure,median,q1,q3"
        assert "median rows" in capsys.readouterr().out

    def test_diagnose(self, cfg_path, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        main(["simulate", "--config", cfg_path, "--out", str(panel)])
        out = tmp_path / "diag.json"
        rc = main(["diagnose", "--panel", str(panel), "--covariate", "z",
                   "--permutations", "99", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["covariate"] == "z"
        assert "Spearman" in capsys.readouterr().out


class TestPresets:
    def test_all_presets_parse(self, tmp_path):
        for name in PRESETS:
            out = tmp_path / f"{name}.csv"
            rc = main(["simulate", "--config", name, "--seed", "5", "--out", str(out)])
            assert rc == 0, name


class TestHelp:
    @pytest.mark.parametrize("cmd", ["simulate", "fit", "run-study", "summarize",
                                     "describe", "diagnose"])
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_config_keys_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-study", "--help"])
        out = capsys.readouterr().out
        for key in ("family", "weibull_scale", "sigma_u2", "regular_visits", "censoring_lower"):
            assert key in out
