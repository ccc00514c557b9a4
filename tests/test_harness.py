from dataclasses import asdict

import numpy as np
import pytest

from visitsim import harness
from visitsim.dgm import ScenarioConfig, simulate_panel
from visitsim.domain import Subject, build_panel
from visitsim.errors import ValidationError
from visitsim.harness import (PERFORMANCE_CSV_COLUMNS, EstimateRow, EstimatesTable, StudyConfig,
                              describe_datasets, diagnose_informativeness, run_study, summarize)


def small_study(models=("D",), reps=3, **scenario_kw):
    kw = dict(family="joint_model", weibull_scale=0.30, gamma=0.0, n_subjects=30, seed=404)
    kw.update(scenario_kw)
    return StudyConfig(scenario=ScenarioConfig(**kw), models=models, replications=reps, threads=1)


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            small_study(reps=1)
        with pytest.raises(ValidationError):
            small_study(models=())
        with pytest.raises(ValidationError):
            small_study(models=("Z",))
        for threads in (0, -1):
            with pytest.raises(ValidationError, match="threads must be >= 1"):
                StudyConfig(scenario=small_study().scenario, threads=threads)
        with pytest.raises(ValidationError, match="quadrature order must be >= 3"):
            StudyConfig(scenario=small_study().scenario, gh_order=2)


class TestRunStudy:
    def test_row_accounting(self):
        # K=2, models={D}: exactly 2 * |params(D)| rows
        table = run_study(small_study(models=("D",), reps=2))
        assert len(table) == 2 * 5
        assert {r.model for r in table} == {"D"}
        assert {r.rep for r in table} == {1, 2}

    def test_determinism_across_runs(self):
        study = small_study(models=("D", "E"), reps=3)
        a = run_study(study).to_csv_text()
        b = run_study(study).to_csv_text()
        assert a == b

    def test_determinism_across_thread_counts(self):
        base = dict(models=("D", "E"), reps=4)
        texts = []
        for threads in (1, 2):
            cfg = small_study(**base)
            study = StudyConfig(scenario=cfg.scenario, models=cfg.models,
                                replications=cfg.replications, threads=threads)
            texts.append(run_study(study).to_csv_text())
        assert texts[0] == texts[1]

    def test_csv_roundtrip(self, tmp_path):
        table = run_study(small_study(models=("D",), reps=2))
        path = tmp_path / "estimates.csv"
        table.write_csv(path)
        assert path.read_text().splitlines()[0] == "scenario,rep,model,param,est,se,converged"
        back = EstimatesTable.read_csv(path)
        assert back.to_csv_text() == table.to_csv_text()

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError("singular matrix"),
                                       ValueError("overflow in exp(log_lambda)"),
                                       FloatingPointError("invalid value")],
                             ids=["LinAlgError", "ValueError", "FloatingPointError"])
    def test_failed_fit_recorded_not_fatal(self, monkeypatch, error):
        study = small_study(models=("D", "E"), reps=3)
        expected = run_study(study).to_csv_text().splitlines()
        real_fit_model = harness.fit_model
        calls = []

        def fit_model(panel, label, gh_order=25):
            calls.append(label)
            if len(calls) == 4:  # threads=1: replication 2, model E
                raise error
            return real_fit_model(panel, label, gh_order)

        monkeypatch.setattr(harness, "fit_model", fit_model)
        lines = run_study(study).to_csv_text().splitlines()
        assert len(calls) == 6
        # the failed model's rows are empty and not converged; every other row is unchanged
        assert len(lines) == len(expected)
        differing = [(a, b) for a, b in zip(lines, expected) if a != b]
        tag = study.scenario.label
        assert [a for a, _ in differing] == [f"{tag},2,E,{name},,,0" for name in ("alpha0", "alpha1", "alpha2")]
        assert all(b.startswith(f"{tag},2,E,") and b.endswith(",1") for _, b in differing)

    @pytest.mark.parametrize("error", [ValidationError("subject 7: outcomes must be finite"),
                                       ValueError("scale must be > 0"),
                                       FloatingPointError("overflow")],
                             ids=["ValidationError", "ValueError", "FloatingPointError"])
    def test_failed_simulation_recorded_not_fatal(self, monkeypatch, error):
        study = small_study(models=("D", "E"), reps=3)
        expected = run_study(study).to_csv_text().splitlines()
        real_simulate_panel = harness.simulate_panel

        def simulate_panel(scenario, seed):
            if seed.spawn_key == (2,):
                raise error
            return real_simulate_panel(scenario, seed)

        monkeypatch.setattr(harness, "simulate_panel", simulate_panel)
        lines = run_study(study).to_csv_text().splitlines()
        # every model of replication 2 is empty and not converged; every other row is unchanged
        tag = study.scenario.label
        assert len(lines) == len(expected)
        rep2 = [i for i, line in enumerate(expected) if line.startswith(f"{tag},2,")]
        assert len(rep2) == 5 + 3  # D's five parameters and E's three
        for i, (got, want) in enumerate(zip(lines, expected)):
            if i in rep2:
                assert got == ",".join(want.split(",")[:4]) + ",,,0"
            else:
                assert got == want

    @pytest.mark.parametrize("row, message", [
        ("s,1,D,alpha1", "expected 7 fields, got 4"),
        ("s,x,D,alpha1,0.5,0.1,1", "invalid literal for int"),
        ("s,1,D,alpha1,0.5,0.1,yes", "invalid literal for int"),
        ("s,1,D,alpha1,abc,0.1,1", "could not convert string to float"),
    ], ids=["four-fields", "rep-not-int", "converged-not-int", "est-not-float"])
    def test_read_csv_reports_malformed_rows(self, tmp_path, row, message):
        path = tmp_path / "estimates.csv"
        path.write_text("scenario,rep,model,param,est,se,converged\n"
                        "s,1,D,alpha0,0.1,0.2,1\n" + row + "\n")
        with pytest.raises(ValidationError, match=f"^{path}:3: {message}"):
            EstimatesTable.read_csv(path)


def rows_from(values, model="D", param="alpha1", ses=None, converged=None, scenario="s"):
    ses = ses if ses is not None else [0.1] * len(values)
    converged = converged if converged is not None else [True] * len(values)
    return [EstimateRow(scenario, k + 1, model, param, v, s, c)
            for k, (v, s, c) in enumerate(zip(values, ses, converged))]


class TestSummarize:
    def test_trivial_bias_empse(self):
        table = EstimatesTable(rows_from([1.2, 0.8, 1.0]))
        perf = summarize(table, {"alpha1": 1.0})
        row = perf.lookup("D", "alpha1")
        assert row.bias == pytest.approx(0.0, abs=1e-15)
        assert row.emp_se == pytest.approx(0.2)
        assert row.bias_mcse == pytest.approx(0.2 / np.sqrt(3))

    def test_mcse_formula(self):
        # Var = 0.1 over K = 1000 -> MCSE(bias) = 0.01
        rng = np.random.default_rng(0)
        draws = rng.normal(1.0, np.sqrt(0.1), 1000)
        draws = (draws - draws.mean()) / draws.std(ddof=1) * np.sqrt(0.1) + 1.0
        perf = summarize(EstimatesTable(rows_from(draws)), {"alpha1": 1.0})
        assert perf.lookup("D", "alpha1").bias_mcse == pytest.approx(0.01, abs=1e-12)

    def test_full_coverage(self):
        table = EstimatesTable(rows_from([1.0, 1.01, 0.99], ses=[0.1, 0.1, 0.1]))
        row = summarize(table, {"alpha1": 1.0}).lookup("D", "alpha1")
        assert row.coverage == 1.0
        assert row.coverage_mcse == 0.0

    def test_mse_identity(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(0.9, 0.3, 57)
        row = summarize(EstimatesTable(rows_from(draws)), {"alpha1": 1.0}).lookup("D", "alpha1")
        k = 57
        assert row.bias**2 + row.emp_se**2 * (k - 1) / k == pytest.approx(row.mse, abs=1e-12)

    def test_nonconverged_excluded_and_rate(self):
        values = [1.0, 1.1, None, 0.9]
        ses = [0.1, 0.1, None, 0.1]
        conv = [True, True, False, True]
        row = summarize(EstimatesTable(rows_from(values, ses=ses, converged=conv)),
                        {"alpha1": 1.0}).lookup("D", "alpha1")
        assert row.conv_rate == pytest.approx(0.75)
        assert row.mean_est == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        rows = rows_from(rng.normal(1, 0.2, 20)) + rows_from(rng.normal(0, 0.1, 20), param="alpha0")
        perm = list(rows)
        rng.shuffle(perm)
        a = summarize(EstimatesTable(rows), {"alpha0": 0.0, "alpha1": 1.0})
        b = summarize(EstimatesTable(perm), {"alpha0": 0.0, "alpha1": 1.0})
        assert a.to_csv_text() == b.to_csv_text()

    def test_too_few_converged_gives_nan_row(self):
        rows = rows_from([1.0, None, None], ses=[0.1, None, None],
                         converged=[True, False, False])
        rows += rows_from([0.1, -0.1, 0.0], param="alpha0")
        message = "1 of 3 replications converged for model D, parameter alpha1;"
        with pytest.warns(RuntimeWarning, match=message):
            perf = summarize(EstimatesTable(rows), {"alpha0": 0.0, "alpha1": 1.0})
        row = perf.lookup("D", "alpha1")
        assert (row.scenario, row.truth, row.conv_rate) == ("s", 1.0, pytest.approx(1 / 3))
        measures = [getattr(row, f) for f in PERFORMANCE_CSV_COLUMNS[4:-1]]
        assert len(measures) == 9 and all(np.isnan(measures))
        # the other parameter keeps its full row
        assert perf.lookup("D", "alpha0").emp_se == pytest.approx(0.1)

    def test_too_few_converged_row_in_csv(self):
        rows = rows_from([None, None], ses=[None, None], converged=[False, False])
        with pytest.warns(RuntimeWarning, match="0 of 2 replications"):
            text = summarize(EstimatesTable(rows), {"alpha1": 1.0}).to_csv_text()
        assert text.splitlines()[1] == "s,D,alpha1,1.0," + "nan," * 9 + "0.0"

    def test_params_filter(self):
        # only the parameters that have a true value are summarized
        rows = rows_from([1.0, 1.1]) + rows_from([9.9, 9.8], param="weird")
        perf = summarize(EstimatesTable(rows), {"alpha1": 1.0})
        assert [(r.model, r.param) for r in perf] == [("D", "alpha1")]


class TestDescribe:
    def test_degenerate_scenario_single_row_each(self):
        # almost-zero visit intensity: every subject contributes only the baseline row
        cfg = ScenarioConfig(family="joint_model", weibull_scale=1e-9, gamma=0.0,
                             n_subjects=40, seed=2)
        desc = describe_datasets(cfg, reps=3)
        assert desc.rows_median == 40
        assert desc.measurements_median == 1
        assert np.isnan(desc.gap_median)

    def test_csv_layout(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=25, seed=3)
        text = describe_datasets(cfg, reps=2).to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "scenario,measure,median,q1,q3"
        assert len(lines) == 4

    def test_reps_guard(self):
        cfg = ScenarioConfig(family="joint_model", n_subjects=5)
        with pytest.raises(ValidationError):
            describe_datasets(cfg, reps=0)


class TestDiagnose:
    def test_monotone_association_rho_one(self):
        # gap equal to the covariate rank: perfect Spearman correlation
        subs, cov = [], {}
        for i, x in enumerate([1.0, 2.0, 3.0, 4.0], start=1):
            subs.append(Subject(i, int(x > 2.5), 20.0, [0.0, x], [0.0, 0.0]))
            cov[i] = x
        panel = build_panel(subs)
        diag = diagnose_informativeness(panel, covariate=cov, n_permutations=199)
        assert diag.applicable
        assert diag.spearman_rho == pytest.approx(1.0)

    def test_informative_panel_detected(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=0.0, n_subjects=200)
        panel = simulate_panel(cfg, 55)
        diag = diagnose_informativeness(panel, n_permutations=299, seed=1)
        # beta = 1: treated visit more often, so gaps are shorter and the AG
        # hazard ratio is significantly above 1
        assert diag.ag_hazard_ratio > 1.0
        assert diag.ag_hr_ci[0] > 1.0
        assert diag.spearman_rho < 0
        assert diag.spearman_pvalue < 0.05

    def test_null_panel_inside_band(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=0.0,
                             beta=0.0, n_subjects=150)
        panel = simulate_panel(cfg, 56)
        diag = diagnose_informativeness(panel, n_permutations=999, seed=2)
        assert diag.spearman_pvalue > 0.01

    def test_constant_covariate_inapplicable(self):
        subs = [Subject(i, 1, 9.0, [0.0, 1.0 + 0.1 * i], [0.0, 0.0]) for i in range(1, 6)]
        diag = diagnose_informativeness(build_panel(subs), n_permutations=99)
        assert not diag.applicable
        assert np.isnan(diag.spearman_rho)

    def test_negative_permutation_count_rejected(self):
        panel = simulate_panel(ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=20), 58)
        with pytest.raises(ValidationError, match="permutation count must be >= 0"):
            diagnose_informativeness(panel, n_permutations=-1)
        assert diagnose_informativeness(panel, n_permutations=0).spearman_pvalue == 1.0

    def test_json_dict(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=40)
        diag = diagnose_informativeness(simulate_panel(cfg, 57), n_permutations=99)
        data = asdict(diag)
        assert set(data) == {"covariate", "applicable", "n_gaps", "spearman_rho",
                             "spearman_pvalue", "ag_hazard_ratio", "ag_hr_ci", "ag_converged"}
