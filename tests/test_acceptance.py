"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line (run pytest with -s or -rA to see them all).

The heavy shared input is a desk-scale study of every shipped scenario:
K = 200 replications x 200 subjects x models A-E, run once per session.
"""

import concurrent.futures
import math
import multiprocessing
import os

import numpy as np
import pytest
import scipy.stats

from visitsim.cli import PRESETS
from visitsim.dgm import ScenarioConfig, draw_weibull_gap, parse_scenario_text, simulate_panel
from visitsim.domain import Subject, build_panel
from visitsim.harness import (EstimatesTable, StudyConfig, describe_datasets, run_study,
                              summarize)
from visitsim.iivw import fit_wgee
from visitsim.jointfit import JointParams, joint_loglik, recurrent_frailty_loglik
from visitsim.lmm import Adjustment, design_matrix, lmm_loglik
from visitsim.survfit import _CoxData, cox_partial_loglik, fit_andersen_gill

from test_jointfit import mc_oracle
from test_lmm import dense_loglik

K_REPS = 200
THREADS = os.cpu_count() or 1

JM_G0 = ("jm_g0_l010", "jm_g0_l030", "jm_g0_l100")
JM_G15 = ("jm_g15_l010", "jm_g15_l030", "jm_g15_l100")

# Summary-table reference rows: median (IQI) for total rows, per-subject
# measurement count, and observed gap time.
TABLE1 = {
    "gamma_psi0": ((918, 957), (3, 6), (0.74, 2.17)),
    "jm_g0_l010": ((634, 705), (1, 4), (0.33, 2.12)),
    "jm_g0_l030": ((1475, 1667), (2, 9), (0.13, 0.94)),
    "jm_g0_l100": ((4188, 4815), (6, 27), (0.04, 0.33)),
    "gamma_psi2": ((3296, 3606), (4, 28), (0.12, 0.41)),
    "gamma_lagy": ((2457, 2670), (4, 20), (0.16, 0.60)),
    "jm_g15_l010": ((637, 707), (1, 4), (0.33, 2.11)),
    "jm_g15_l030": ((1461, 1654), (2, 9), (0.13, 0.94)),
    "jm_g15_l100": ((4218, 4794), (6, 26), (0.04, 0.33)),
    "jm_g30_l005_regular": ((1818, 1867), (7, 10), (1.00, 1.00)),
}

Z_CRIT = 1.96  # two-sided 5% Z-test on bias / MCSE(bias)


def load_preset(name: str) -> tuple[ScenarioConfig, dict]:
    from importlib import resources

    data = resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_text()
    return parse_scenario_text(data, source=name)


@pytest.fixture(scope="session")
def studies():
    """tag -> (scenario, truths, EstimatesTable) for every shipped scenario."""
    out = {}
    for name in PRESETS:
        scenario, truths = load_preset(name)
        table = run_study(StudyConfig(scenario=scenario, models=("A", "B", "C", "D", "E"),
                                      replications=K_REPS, threads=THREADS))
        out[name] = (scenario, truths, table)
    return out


def perf(studies, name):
    scenario, truths, table = studies[name]
    return summarize(table, truths)


def replication_control_variate(scenario: ScenarioConfig, rep: int) -> float:
    """Control variate for replication ``rep`` of a joint-model study.

    Re-simulates the panel that run_study fits for that replication (the
    same seed substream as harness._replication_rows) and returns the z = 1
    minus z = 0 difference of the subjects' mean residuals
    y_ij - (alpha0 + alpha1*z_i + alpha2*t_ij) about the true outcome mean.
    A subject's mean residual is gamma*u_i + v_i + mean_j(eps_ij); z is drawn
    independently of u and v and the visit times do not depend on eps, so the
    expectation is exactly 0.  That fails for gamma_treatment_lagged_y, whose
    gaps depend on the previous outcome and so on eps.
    """
    panel = simulate_panel(scenario, np.random.SeedSequence(scenario.seed, spawn_key=(rep,)))
    means = ([], [])
    for s in panel.subjects:
        mean_y = scenario.alpha0 + scenario.alpha1 * s.z + scenario.alpha2 * s.visit_times
        means[s.z].append(float(np.mean(s.outcomes - mean_y)))
    return float(np.mean(means[1]) - np.mean(means[0]))


@pytest.fixture(scope="session")
def control_variates():
    """tag -> {rep: control variate} for the gamma = 1.5 joint-model scenarios."""
    out = {}
    reps = range(1, K_REPS + 1)
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=THREADS, mp_context=context) as pool:
        for name in JM_G15:
            scenario, _ = load_preset(name)
            values = pool.map(replication_control_variate, [scenario] * K_REPS, reps)
            out[name] = dict(zip(reps, values))
    return out


def controlled_bias(estimates: EstimatesTable, model: str, param: str, truth: float,
                    control: dict[int, float]) -> tuple[float, float]:
    """Bias of one estimator with a zero-mean control variate, and its MCSE.

    Over converged replications, est - b*c with b the least-squares slope of
    est on c has the same mean as est but a smaller spread; the MCSE is taken
    from those adjusted values.
    """
    pairs = [(r.est, control[r.rep]) for r in estimates
             if r.model == model and r.param == param and r.converged and r.est is not None]
    est, c = np.array(pairs).T
    slope = np.cov(est, c)[0, 1] / np.var(c, ddof=1)
    adjusted = est - slope * c
    return float(adjusted.mean() - truth), float(adjusted.std(ddof=1) / np.sqrt(len(adjusted)))


def zscore(row):
    return row.bias / row.bias_mcse


def report(criterion: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


class TestCriterion1NullAssociationUnbiasedness:
    def test_criterion(self, studies):
        failures = []
        for name in (*JM_G0, "gamma_psi0"):
            table = perf(studies, name)
            for model in "ABCDE":
                row = table.lookup(model, "alpha1")
                if abs(row.bias) >= 3 * row.bias_mcse:
                    failures.append(f"{name} model {model}: |bias(alpha1)|={abs(row.bias):.4f} "
                                    f">= 3*MCSE={3 * row.bias_mcse:.4f}")
                if not 0.91 <= row.coverage <= 0.99:
                    failures.append(f"{name} model {model}: coverage(alpha1)={row.coverage:.3f} "
                                    f"outside [0.91, 0.99]")
        report("1 (null-association unbiasedness)", failures)


class TestCriterion2JointModelUnderInformativeness:
    def test_criterion(self, studies):
        # model A is the true model of these scenarios, so its alpha1 and gamma
        # are held to the nominal behaviour criterion 1 asks of every model
        failures = []
        for name in JM_G15:
            table = perf(studies, name)
            for param in ("alpha1", "gamma"):
                row = table.lookup("A", param)
                if abs(row.bias) >= 3 * row.bias_mcse:
                    failures.append(f"{name}: model A |bias({param})|={abs(row.bias):.4f} "
                                    f">= 3*MCSE={3 * row.bias_mcse:.4f}")
                if not 0.91 <= row.coverage <= 0.99:
                    failures.append(f"{name}: model A coverage({param})={row.coverage:.3f} "
                                    f"outside [0.91, 0.99]")
        report("2 (joint model under informativeness)", failures)


class TestCriterion3DirectionOfBiasOrdering:
    def test_criterion(self, studies, control_variates):
        failures = []
        # each model's directional claim spans the three gamma = 1.5 scenarios,
        # so it is tested with one inverse-variance pooled Z per model.  The
        # per-scenario effects for C, D and E are small against the K = 200
        # sampling noise of the raw bias, so the bias is taken with a control
        # variate that removes most of that noise (see control_variates)
        bias = {m: [] for m in "BCDE"}
        mcse = {m: [] for m in "BCDE"}
        for name in JM_G15:
            table = perf(studies, name)
            rows = {m: table.lookup(m, "alpha1") for m in "ABCDE"}
            _, truths, est = studies[name]
            for model in "BCDE":
                b, se = controlled_bias(est, model, "alpha1", truths["alpha1"], control_variates[name])
                bias[model].append(b)
                mcse[model].append(se)
            if not abs(rows["B"].bias) > abs(rows["D"].bias):
                failures.append(f"{name}: |bias_B|={abs(rows['B'].bias):.4f} not > "
                                f"|bias_D|={abs(rows['D'].bias):.4f}")

        def pooled_z(model):
            w = 1.0 / np.asarray(mcse[model]) ** 2
            return float(np.sum(w * bias[model]) / np.sqrt(np.sum(w)))

        for model in "BCD":
            z = pooled_z(model)
            if not z < -Z_CRIT:
                failures.append(f"model {model} pooled bias(alpha1) z={z:+.2f} not significantly "
                                f"negative (per-scenario {[f'{b:+.4f}' for b in bias[model]]})")
        z = pooled_z("E")
        if not z > Z_CRIT:
            failures.append(f"model E pooled bias(alpha1) z={z:+.2f} not significantly positive "
                            f"(per-scenario {[f'{b:+.4f}' for b in bias['E']]})")

        table = perf(studies, "gamma_lagy")
        rows = {m: table.lookup(m, "alpha1") for m in "ABCDE"}
        if not zscore(rows["B"]) > Z_CRIT:
            failures.append(f"gamma_lagy: model B bias(alpha1)={rows['B'].bias:+.4f} "
                            f"not significantly positive (z={zscore(rows['B']):+.2f})")
        for model in "ACDE":
            if abs(rows[model].bias) >= 3 * rows[model].bias_mcse:
                failures.append(f"gamma_lagy: model {model} |bias(alpha1)|={abs(rows[model].bias):.4f} "
                                f">= 3*MCSE={3 * rows[model].bias_mcse:.4f} "
                                f"(z={zscore(rows[model]):+.2f})")
        report("3 (direction-of-bias ordering)", failures)


class TestCriterion4RegularVisits:
    def test_criterion(self, studies):
        failures = []
        name = "jm_g30_l005_regular"
        table = perf(studies, name)
        for model in "AD":
            for param in ("alpha0", "alpha1", "alpha2"):
                row = table.lookup(model, param)
                if abs(row.bias) >= 3 * row.bias_mcse:
                    failures.append(f"model {model} |bias({param})|={abs(row.bias):.4f} "
                                    f">= 3*MCSE={3 * row.bias_mcse:.4f}")
        c2 = table.lookup("C", "alpha2")
        if not zscore(c2) < -Z_CRIT:
            failures.append(f"model C bias(alpha2)={c2.bias:+.4f} not significantly negative "
                            f"(z={zscore(c2):+.2f})")
        b1 = table.lookup("B", "alpha1")
        if not zscore(b1) < -Z_CRIT:
            failures.append(f"model B bias(alpha1)={b1.bias:+.4f} not significantly negative "
                            f"(z={zscore(b1):+.2f})")
        _, _, est = studies[name]
        fit_a = {(r.rep, r.param): r.est for r in est if r.model == "A" and r.est is not None}
        reps = sorted(rep for rep, param in fit_a if param == "gamma")
        gammas = np.array([fit_a[rep, "gamma"] for rep in reps])
        su2 = np.array([fit_a[rep, "sigma_u2"] for rep in reps])
        med = float(np.median(gammas))
        if not abs(med) < 1.5:
            # the outcome-side loading gamma*sigma_u (truth 3.0) is printed
            # next to sigma_u2 (truth 1.0) to show how model A splits it
            failures.append(f"median gamma-hat {med:+.3f} not attenuated below 1.5 in magnitude "
                            f"(median gamma-hat*sigma_u-hat {np.median(gammas * np.sqrt(su2)):+.3f}, "
                            f"median sigma_u2-hat {np.median(su2):.4f})")
        report("4 (regular-visits scenario)", failures)


class TestCriterion5Table1Descriptives:
    def test_criterion(self):
        failures = []
        for name, ((r_lo, r_hi), (m_lo, m_hi), (g_lo, g_hi)) in TABLE1.items():
            scenario, _ = load_preset(name)
            desc = describe_datasets(scenario, reps=K_REPS)
            if not r_lo <= desc.rows_median <= r_hi:
                failures.append(f"{name}: median rows {desc.rows_median:.0f} outside [{r_lo}, {r_hi}]")
            if not m_lo <= desc.measurements_median <= m_hi:
                failures.append(f"{name}: median measurements {desc.measurements_median:.0f} "
                                f"outside [{m_lo}, {m_hi}]")
            if not g_lo <= desc.gap_median <= g_hi:
                failures.append(f"{name}: median gap {desc.gap_median:.3f} outside [{g_lo}, {g_hi}]")
        report("5 (summary-table descriptives)", failures)


class TestCriterion6AnalyticMedianGaps:
    def test_criterion(self):
        failures = []
        rng = np.random.default_rng(606)
        n = 10**6
        u = rng.normal(0.0, 1.0, n)
        u01 = rng.uniform(1e-12, 1.0, n)
        targets = {0.10: (5.83, 2.25), 0.30: (2.05, 0.79), 1.00: (0.65, 0.25)}
        for lam, (t0, t1) in targets.items():
            for z, target in ((0, t0), (1, t1)):
                med = float(np.median(draw_weibull_gap(u01, lam, 1.05, 1.0 * z + u)))
                if abs(med - target) > 0.05 * target:
                    failures.append(f"lambda={lam} z={z}: median {med:.3f} not within 5% of {target}")
        report("6 (analytic median gap times)", failures)


class TestCriterion7OracleEquivalences:
    def test_criterion(self):
        failures = []
        rng_panel = simulate_panel(
            ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=1.5, n_subjects=25), 7)

        # (a) mixed-model likelihood vs dense MVN evaluation
        spec = Adjustment.NONE
        alpha = np.array([0.3, 0.8, 0.1])
        ours = lmm_loglik(alpha, 0.6, 1.2, rng_panel, spec)
        oracle = dense_loglik(alpha, 0.6, 1.2, rng_panel, spec)
        if abs(ours - oracle) >= 1e-10:
            failures.append(f"lmm vs dense MVN: |diff|={abs(ours - oracle):.2e} >= 1e-10")

        # (b) joint likelihood vs 10^6-draw Monte Carlo integration
        params = JointParams(1.0, np.log(0.3), np.log(1.05), 0.0, 1.0, 0.2, 1.5,
                             0.0, 0.5 * np.log(0.5), 0.0)
        mc, mcse = mc_oracle(params, rng_panel, ndraws=10**6)
        quad = joint_loglik(params, rng_panel)
        if abs(quad - mc) >= 3 * mcse:
            failures.append(f"joint vs MC: |diff|={abs(quad - mc):.4f} >= 3*MCSE={3 * mcse:.4f}")

        # (c) Cox estimate vs grid search
        cox = _CoxData.from_panel(rng_panel)
        fit = fit_andersen_gill(cox)
        grid = np.linspace(fit.eta[0] - 0.4, fit.eta[0] + 0.4, 160001)
        lls = [cox_partial_loglik([e], cox)[0] for e in grid]
        best = grid[int(np.argmax(lls))]
        if abs(fit.eta[0] - best) >= 1e-6:
            failures.append(f"cox vs grid: |diff|={abs(fit.eta[0] - best):.2e} >= 1e-6")

        # (d) unit-weight GEE vs ordinary least squares
        gee = fit_wgee(rng_panel, np.ones(rng_panel.n_rows))
        y = np.concatenate([s.outcomes for s in rng_panel.subjects])
        X = np.vstack([np.column_stack([np.ones(s.n_visits), np.full(s.n_visits, s.z), s.visit_times])
                       for s in rng_panel.subjects])
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        if np.max(np.abs(gee.estimates - ols)) >= 1e-10:
            failures.append(f"unit-weight GEE vs OLS: max|diff|={np.max(np.abs(gee.estimates - ols)):.2e}")

        # (e) gamma = 0 likelihood separability
        p0 = JointParams(0.9, np.log(0.28), np.log(1.1), 0.1, 0.9, 0.25, 0.0,
                         np.log(0.9), 0.5 * np.log(0.45), 0.5 * np.log(1.1))
        joint = joint_loglik(p0, rng_panel)
        split = (recurrent_frailty_loglik(0.9, 0.28, 1.1, 0.81, rng_panel)
                 + lmm_loglik([0.1, 0.9, 0.25], 0.45, 1.1, rng_panel, spec))
        if abs(joint - split) >= 1e-8:
            failures.append(f"gamma=0 separability: |diff|={abs(joint - split):.2e} >= 1e-8")
        report("7 (oracle equivalences)", failures)


class TestCriterion8ConvergenceRates:
    def test_criterion(self, studies):
        failures = []
        for model in "ABCDE":
            total = converged = 0
            worst = 1.0
            for name in PRESETS:
                _, _, table = studies[name]
                reps = {}
                for r in table:
                    if r.model == model:
                        reps[r.rep] = r.converged
                rate = sum(reps.values()) / len(reps)
                worst = min(worst, rate)
                total += len(reps)
                converged += sum(reps.values())
            overall = converged / total
            if model == "A":
                if worst < 0.95:
                    failures.append(f"model A worst-scenario convergence {worst:.3f} < 0.95")
            elif overall < 1.0:
                failures.append(f"model {model} convergence {overall:.4f} < 1.0")
        report("8 (convergence rates)", failures)


class TestCriterion9Determinism:
    def test_criterion(self):
        failures = []
        scenario, _ = load_preset("jm_g0_l010")
        texts = {}
        for threads in (1, 4, THREADS):
            study = StudyConfig(scenario=scenario, models=("A", "B", "C", "D", "E"),
                                replications=6, threads=threads)
            texts[threads] = run_study(study).to_csv_text()
        base = texts[1]
        for threads, text in texts.items():
            if text != base:
                failures.append(f"EstimatesTable differs between 1 and {threads} threads")
        report("9 (determinism across thread counts)", failures)
