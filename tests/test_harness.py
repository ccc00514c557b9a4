import warnings
from dataclasses import asdict

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from panel_records import Record, panel_of
from visitsim import harness, jointfit, lmm, survfit
from visitsim.dgm import ScenarioConfig, simulate_panel
from visitsim.domain import MODEL_LABELS
from visitsim.errors import ValidationError
from visitsim.harness import (ESTIMATES_CSV_COLUMNS, PERFORMANCE_CSV_COLUMNS, EstimatesTable, StudyConfig,
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
        for models in (("Z",), ("D", "E", "D")):
            with pytest.raises(ValidationError, match="models must be distinct labels of A, B, C, D, E"):
                small_study(models=models)
        for threads in (0, -1):
            with pytest.raises(ValidationError, match="threads must be >= 1"):
                StudyConfig(scenario=small_study().scenario, threads=threads)
        with pytest.raises(ValidationError, match="quadrature order must be >= 3"):
            StudyConfig(scenario=small_study().scenario, gh_order=2)

    def test_models_default_to_every_label(self):
        assert StudyConfig(scenario=small_study().scenario).models == ("A", "B", "C", "D", "E")


class TestFitModel:
    @pytest.mark.parametrize("label", ["F", "d", "", None])
    def test_unknown_label_rejected(self, label):
        panel = panel_of([Record(1, 0, 5.0, [0.0, 1.0], [0.1, 0.2])])
        with pytest.raises(ValidationError, match="unknown model label"):
            harness.fit_model(panel, label)


class TestRunStudy:
    def test_row_accounting(self):
        # K=2, models={D}: exactly 2 * |params(D)| rows
        table = run_study(small_study(models=("D",), reps=2))
        assert len(table) == 2 * 5
        assert set(table.model.tolist()) == {"D"}
        assert table.rep.tolist() == [1] * 5 + [2] * 5
        assert table.param.tolist() == list(lmm.Adjustment.NONE.param_names) * 2

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

    def test_failed_root_search_recorded_not_fatal(self, monkeypatch):
        # Brent's method stopped after one step: every B and D fit fails, the study does not
        monkeypatch.setattr(lmm, "_BRENT_MAX_ITER", 1)
        table = run_study(small_study(models=("B", "D"), reps=2))
        assert len(table) == 2 * (6 + 5)
        assert not table.converged.any()
        assert np.isnan(table.est).all() and np.isnan(table.se).all()

    def test_models_a_and_d_share_model_d_estimates(self, monkeypatch):
        real, real_from_panel = lmm._lmm_estimates, survfit._CoxData.from_panel
        fitted, built = [], []

        def counted(panel, adjustment):
            fitted.append(adjustment.value)
            return real(panel, adjustment)

        def counted_from_panel(cls, panel, covariate=None):
            built.append(panel.n_rows)
            return real_from_panel(panel, covariate)

        for module in (lmm, jointfit):
            monkeypatch.setattr(module, "_lmm_estimates", counted)
        monkeypatch.setattr(survfit._CoxData, "from_panel", classmethod(counted_from_panel))
        fits = harness._replication(small_study(models=MODEL_LABELS), 1)
        # B, C and one D for both A's start and D: four before they were shared
        assert sorted(fitted) == ["B", "C", "D"]
        # one gap-sorted Cox data set for A's Weibull start and E's weight model
        assert len(built) == 1

        def bits(fit):
            return (fit.model_label, fit.estimates.tobytes(), fit.std_errors.tobytes(), fit.loglik,
                    fit.converged, fit.iterations, fit.message)

        # the same fits as each model fitted in a replication of its own
        assert [bits(fit) for fit in fits] == [bits(fit) for label in MODEL_LABELS
                                               for fit in harness._replication(small_study(models=(label,)), 1)]

    @pytest.mark.parametrize("affinity, cpu_count", [({0}, 8), (None, 1)],
                             ids=["affinity of one CPU", "no affinity, one CPU"])
    def test_default_workers_follow_available_cpus(self, monkeypatch, affinity, cpu_count):
        if affinity is None:
            monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpu_count)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started for one available CPU")

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", no_pool)
        study = StudyConfig(scenario=small_study().scenario, models=("D",), replications=2)
        assert study.threads is None
        assert len(run_study(study)) == 2 * 5

    @pytest.mark.parametrize("row, message", [
        ("s,1,D,alpha1", "expected 7 fields, got 4"),
        ("s,x,D,alpha1,0.5,0.1,1", "invalid literal for int"),
        ("s,1,D,alpha1,0.5,0.1,yes", "invalid literal for int"),
        ("s,1,D,alpha1,abc,0.1,1", "could not convert string to float"),
        ("s,1,D,alpha1,,0.1,1", "est and se must both be given where converged is 1"),
        ("s,1,D,alpha1,0.5,,1", "est and se must both be given where converged is 1"),
        ("s,1,D,alpha1,0.5,0.1,0", "est and se must both be given where converged is 1 and both be empty"),
        ("s,1,D,alpha0,0.3,0.2,1", "rep 1, model D, param alpha0 repeats line 2"),
        ("t,1,D,alpha1,0.5,0.1,1", "scenario 't' differs from 's'; a file holds one study"),
        ("s,1,Z,alpha1,0.5,0.1,1", "model 'Z' is not one of A, B, C, D, E"),
        ("s,1,D,beta,0.5,0.1,1", "model D has no parameter 'beta'"),
        ("s,0,D,alpha1,0.5,0.1,1", "rep must be >= 1, got 0"),
    ], ids=["four-fields", "rep-not-int", "converged-not-int", "est-not-float", "converged-without-est",
            "converged-without-se", "not-converged-with-est", "repeated-key", "second-scenario",
            "unknown-model", "param-not-of-model", "rep-below-one"])
    def test_read_csv_reports_malformed_rows(self, tmp_path, row, message):
        path = tmp_path / "estimates.csv"
        path.write_text("scenario,rep,model,param,est,se,converged\n"
                        "s,1,D,alpha0,0.1,0.2,1\n" + row + "\n")
        with pytest.raises(ValidationError, match=f"^{path}:3: {message}"):
            EstimatesTable.read_csv(path)


def rows_from(values, model="D", param="alpha1", ses=None, converged=None):
    """The columns of one (model, param) over reps 1..K; est and se are NaN where None."""
    k = len(values)
    ses = ses if ses is not None else [0.1] * k
    converged = converged if converged is not None else [True] * k
    return (np.arange(1, k + 1), [model] * k, [param] * k, np.array(values, dtype=float),
            np.array(ses, dtype=float), converged)


def table_of(*parts, scenario="s"):
    """An EstimatesTable of ``rows_from`` parts, one after the other."""
    return EstimatesTable(scenario, *(np.concatenate(column) for column in zip(*parts)))


def shuffled(table, rng):
    order = rng.permutation(len(table))
    return EstimatesTable(table.scenario, *(getattr(table, c)[order] for c in ESTIMATES_CSV_COLUMNS[1:]))


# one study's estimates: distinct (rep, model, param) keys in any order, with non-converged
# rows and estimates that stress the float text round trip (-0.0, subnormals)
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308]),
                    st.floats(-1e6, 1e6))
# each model with a parameter of its own
_MODEL_PARAM_PAIRS = [(model, param) for model, names in harness._MODEL_PARAMS.items() for param in names]


@st.composite
def estimates_tables(draw):
    keys = draw(st.lists(st.tuples(st.integers(1, 6), st.sampled_from(_MODEL_PARAM_PAIRS)),
                         min_size=1, max_size=40, unique=True))
    rows = []
    for rep, (model, param) in draw(st.permutations(keys)):
        converged = draw(st.booleans())
        est, se = (draw(_FLOATS), draw(_FLOATS)) if converged else (np.nan, np.nan)
        rows.append((rep, model, param, est, se, converged))
    return EstimatesTable("s", *zip(*rows))


class TestEstimatesTableRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(estimates_tables())
    def test_write_read_write_is_byte_identical(self, tmp_path, table):
        path = tmp_path / "estimates.csv"
        table.write_csv(path)
        back = EstimatesTable.read_csv(path)
        assert back.to_csv_text().encode() == path.read_bytes()
        truths = {"alpha0": 0.0, "alpha1": 1.0}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert summarize(back, truths).to_csv_text() == summarize(table, truths).to_csv_text()


class TestSummarize:
    def test_trivial_bias_empse(self):
        table = table_of(rows_from([1.2, 0.8, 1.0]))
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
        perf = summarize(table_of(rows_from(draws)), {"alpha1": 1.0})
        assert perf.lookup("D", "alpha1").bias_mcse == pytest.approx(0.01, abs=1e-12)

    def test_full_coverage(self):
        table = table_of(rows_from([1.0, 1.01, 0.99], ses=[0.1, 0.1, 0.1]))
        row = summarize(table, {"alpha1": 1.0}).lookup("D", "alpha1")
        assert row.coverage == 1.0
        assert row.coverage_mcse == 0.0

    def test_mse_identity(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(0.9, 0.3, 57)
        row = summarize(table_of(rows_from(draws)), {"alpha1": 1.0}).lookup("D", "alpha1")
        k = 57
        assert row.bias**2 + row.emp_se**2 * (k - 1) / k == pytest.approx(row.mse, abs=1e-12)

    def test_nonconverged_excluded_and_rate(self):
        values = [1.0, 1.1, None, 0.9]
        ses = [0.1, 0.1, None, 0.1]
        conv = [True, True, False, True]
        row = summarize(table_of(rows_from(values, ses=ses, converged=conv)),
                        {"alpha1": 1.0}).lookup("D", "alpha1")
        assert row.conv_rate == pytest.approx(0.75)
        assert row.mean_est == pytest.approx(1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        table = table_of(rows_from(rng.normal(1, 0.2, 20)), rows_from(rng.normal(0, 0.1, 20), param="alpha0"))
        a = summarize(table, {"alpha0": 0.0, "alpha1": 1.0})
        b = summarize(shuffled(table, rng), {"alpha0": 0.0, "alpha1": 1.0})
        assert a.to_csv_text() == b.to_csv_text()

    def test_too_few_converged_gives_nan_row(self):
        table = table_of(rows_from([1.0, None, None], ses=[0.1, None, None], converged=[True, False, False]),
                         rows_from([0.1, -0.1, 0.0], param="alpha0"))
        message = "1 of 3 replications converged for model D, parameter alpha1;"
        with pytest.warns(RuntimeWarning, match=message):
            perf = summarize(table, {"alpha0": 0.0, "alpha1": 1.0})
        row = perf.lookup("D", "alpha1")
        assert (row.scenario, row.truth, row.conv_rate) == ("s", 1.0, pytest.approx(1 / 3))
        measures = [getattr(row, f) for f in PERFORMANCE_CSV_COLUMNS[4:-1]]
        assert len(measures) == 9 and all(np.isnan(measures))
        # the other parameter keeps its full row
        assert perf.lookup("D", "alpha0").emp_se == pytest.approx(0.1)

    def test_too_few_converged_row_in_csv(self):
        table = table_of(rows_from([None, None], ses=[None, None], converged=[False, False]))
        with pytest.warns(RuntimeWarning, match="0 of 2 replications"):
            text = summarize(table, {"alpha1": 1.0}).to_csv_text()
        assert text.splitlines()[1] == "s,D,alpha1,1.0," + "nan," * 9 + "0.0"

    def test_params_filter(self):
        # only the parameters that have a true value are summarized
        perf = summarize(table_of(rows_from([1.0, 1.1]), rows_from([9.9, 9.8], param="weird")), {"alpha1": 1.0})
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
            subs.append(Record(i, int(x > 2.5), 20.0, [0.0, x], [0.0, 0.0]))
            cov[i] = x
        panel = panel_of(subs)
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
        subs = [Record(i, 1, 9.0, [0.0, 1.0 + 0.1 * i], [0.0, 0.0]) for i in range(1, 6)]
        diag = diagnose_informativeness(panel_of(subs), n_permutations=99)
        assert not diag.applicable
        assert np.isnan(diag.spearman_rho)

    def test_negative_permutation_count_rejected(self):
        panel = simulate_panel(ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=20), 58)
        with pytest.raises(ValidationError, match="permutation count must be >= 0"):
            diagnose_informativeness(panel, n_permutations=-1)
        assert diagnose_informativeness(panel, n_permutations=0).spearman_pvalue == 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(3, 40).flatmap(lambda n: st.tuples(
        *[st.lists(st.one_of(st.integers(0, 4).map(float), st.floats(0, 10)), min_size=n, max_size=n)] * 2)))
    def test_spearman_matches_scipy_bit_for_bit(self, pair):
        a, b = np.array(pair[0]), np.array(pair[1])
        assume(len(set(pair[0])) > 1 and len(set(pair[1])) > 1)  # scipy's rho is NaN for a constant
        rho = harness._spearman(harness._midranks(a), b)
        assert rho.hex() == float(scipy.stats.spearmanr(a, b).statistic).hex()

    def test_json_dict(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=40)
        diag = diagnose_informativeness(simulate_panel(cfg, 57), n_permutations=99)
        data = asdict(diag)
        assert set(data) == {"covariate", "applicable", "n_gaps", "spearman_rho",
                             "spearman_pvalue", "ag_hazard_ratio", "ag_hr_ci", "ag_converged"}
