import dataclasses
from importlib import resources

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from panel_records import Record, panel_of, subjects_of
from visitsim import lmm
from visitsim.cli import PRESETS
from visitsim.dgm import ScenarioConfig, parse_scenario_text, simulate_panel
from visitsim.errors import EstimationError
from visitsim.jointfit import GRAD_TOL
from visitsim.lmm import (LOG_RHO_BOUNDS, Adjustment, _evaluate, _fit_result, _lmm_estimates, _Profile,
                          design_matrix, fit_lmm, lmm_loglik)


def preset(name):
    text = resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_text()
    return parse_scenario_text(text, source=name)[0]


def random_panel(n_subjects=3, seed=5, c=5.0):
    rng = np.random.default_rng(seed)
    subs = []
    for i in range(n_subjects):
        n = int(rng.integers(1, 5))
        t = np.concatenate([[0.0], np.sort(rng.uniform(0.1, c - 0.1, n - 1))])
        subs.append(Record(i + 1, int(rng.integers(0, 2)), c, t, rng.normal(size=n)))
    return panel_of(subs)


def central_difference_information(fun_grad, theta):
    """Central finite differences of the gradient of ``fun_grad``, a reference for closed forms."""
    n = len(theta)
    info = np.empty((n, n))
    for j in range(n):
        h = 1e-5 * (1.0 + abs(theta[j]))
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        info[:, j] = (fun_grad(tp)[1] - fun_grad(tm)[1]) / (2.0 * h)
    return 0.5 * (info + info.T)


def dense_loglik(alpha, sv2, se2, panel, adjustment):
    """Brute-force dense MVN density evaluation (Cholesky via scipy)."""
    X = design_matrix(panel, adjustment)
    total, pos = 0.0, 0
    for s in subjects_of(panel):
        n = len(s.visit_times)
        Xi, yi = X[pos:pos + n], np.asarray(s.outcomes)
        pos += n
        cov = sv2 * np.ones((n, n)) + se2 * np.eye(n)
        total += scipy.stats.multivariate_normal.logpdf(yi, mean=Xi @ alpha, cov=cov)
    return total


class TestLoglik:
    def test_matches_dense_oracle(self):
        panel = random_panel()
        alpha = np.array([0.3, -0.2, 0.15])
        ours = lmm_loglik(alpha, 0.7, 1.3, panel)
        oracle = dense_loglik(alpha, 0.7, 1.3, panel, Adjustment.NONE)
        assert abs(ours - oracle) < 1e-10

    @pytest.mark.parametrize("adjustment", list(Adjustment))
    def test_matches_dense_oracle_all_designs(self, adjustment):
        panel = random_panel(n_subjects=6, seed=8)
        k = design_matrix(panel, adjustment).shape[1]
        alpha = np.linspace(-0.5, 0.5, k)
        assert abs(lmm_loglik(alpha, 0.4, 0.9, panel, adjustment)
                   - dense_loglik(alpha, 0.4, 0.9, panel, adjustment)) < 1e-10

    def test_single_observation_limit(self):
        # one subject, one row, sigma_v2 -> 0: plain normal density
        panel = panel_of([Record(1, 1, 5.0, [0.0], [0.7]),
                             Record(2, 0, 5.0, [0.0], [-0.1])])
        alpha = np.array([0.1, 0.2, 0.0])
        got = lmm_loglik(alpha, 1e-14, 1.1, panel)
        mus = np.array([0.1 + 0.2, 0.1])
        expected = scipy.stats.norm.logpdf([0.7, -0.1], loc=mus, scale=np.sqrt(1.1)).sum()
        assert abs(got - expected) < 1e-8

    def test_gradient_matches_finite_differences(self):
        panel = random_panel(n_subjects=8, seed=13)
        X = design_matrix(panel, Adjustment.NONE)
        rng = np.random.default_rng(1)
        for _ in range(10):
            theta = np.concatenate([rng.normal(0, 0.5, 3), rng.normal(0, 0.3, 2)])
            _, g, _ = _evaluate(theta, X, panel, 1)
            for j in range(5):
                h = 1e-6 * (1 + abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (_evaluate(tp, X, panel, 0)[0] - _evaluate(tm, X, panel, 0)[0]) / (2 * h)
                assert abs(g[j] - fd) < 1e-6 * max(1.0, abs(fd))

    def test_model_b_at_zero_alpha3_equals_model_d(self):
        panel = random_panel(n_subjects=10, seed=3)
        alpha = np.array([0.2, -0.1, 0.3])
        ll_d = lmm_loglik(alpha, 0.5, 1.0, panel, Adjustment.NONE)
        ll_b = lmm_loglik(np.append(alpha, 0.0), 0.5, 1.0, panel, Adjustment.TOTAL_COUNT_CENTERED)
        assert abs(ll_d - ll_b) < 1e-12

    def test_invalid_variances(self):
        panel = random_panel()
        with pytest.raises(ValueError):
            lmm_loglik([0.0, 0.0, 0.0], -1.0, 1.0, panel, Adjustment.NONE)


class TestDesignMatrix:
    def test_model_c_counts_are_cumulative_inclusive(self):
        panel = panel_of([Record(1, 0, 5.0, [0.0, 1.0, 2.0], [0.0] * 3)])
        X = design_matrix(panel, Adjustment.CUMULATIVE_COUNT)
        np.testing.assert_array_equal(X[:, 3], [1.0, 2.0, 3.0])

    def test_model_b_centering(self):
        panel = panel_of([Record(1, 0, 5.0, [0.0, 1.0], [0.0] * 2),
                             Record(2, 1, 5.0, [0.0, 1.0, 2.0, 3.0], [0.0] * 4)])
        X = design_matrix(panel, Adjustment.TOTAL_COUNT_CENTERED)
        np.testing.assert_allclose(X[:2, 3], -1.0)   # 2 visits, mean count 3
        np.testing.assert_allclose(X[2:, 3], 1.0)


class TestFit:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(9)
        subs = []
        for i in range(20):
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 4.9, 3))])
            z = int(rng.integers(0, 2))
            y = 2.0 + 1.0 * z + 0.5 * t + rng.normal(0, 1e-6, 4)
            subs.append(Record(i + 1, z, 5.0, t, y))
        fit = fit_lmm(panel_of(subs), Adjustment.NONE)
        np.testing.assert_allclose(fit.estimates[:3], [2.0, 1.0, 0.5], atol=1e-4)

    def test_subject_reordering_invariance(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=60)
        panel = simulate_panel(cfg, 44)
        rev = panel_of(subjects_of(panel)[::-1])
        a = fit_lmm(panel, Adjustment.NONE)
        b = fit_lmm(rev, Adjustment.NONE)
        np.testing.assert_allclose(a.estimates, b.estimates, atol=1e-8)

    def test_shift_equivariance(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=50)
        panel = simulate_panel(cfg, 45)
        shifted = panel_of([s._replace(outcomes=s.outcomes + 5.0) for s in subjects_of(panel)])
        a = fit_lmm(panel, Adjustment.NONE)
        b = fit_lmm(shifted, Adjustment.NONE)
        assert b.estimate("alpha0") - a.estimate("alpha0") == pytest.approx(5.0, abs=1e-6)
        np.testing.assert_allclose(a.estimates[1:], b.estimates[1:], atol=1e-6)

    def test_collinear_design_identified(self):
        # constant covariate z makes the treatment column collinear with the intercept
        subs = [Record(i + 1, 1, 5.0, [0.0, 1.0], [0.1, 0.2]) for i in range(5)]
        with pytest.raises(EstimationError, match="alpha"):
            fit_lmm(panel_of(subs), Adjustment.NONE)

    def test_two_subject_precondition(self):
        panel = panel_of([Record(1, 0, 5.0, [0.0], [0.0])])
        with pytest.raises(EstimationError):
            fit_lmm(panel, Adjustment.NONE)

    def test_ses_and_loglik_reported(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=80)
        panel = simulate_panel(cfg, 46)
        fit = fit_lmm(panel, Adjustment.TOTAL_COUNT_CENTERED)
        assert fit.converged
        assert fit.model_label == "B"
        assert np.all(fit.std_errors > 0)
        check = lmm_loglik(fit.estimates[:4], fit.estimate("sigma_v2"), fit.estimate("sigma_e2"),
                           panel, Adjustment.TOTAL_COUNT_CENTERED)
        assert check == pytest.approx(fit.loglik, abs=1e-6)

    def test_converged_fit_builds_no_finite_difference_information(self):
        # every fit's standard errors come from a closed-form or exact information
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=80)
        assert fit_lmm(simulate_panel(cfg, 46), Adjustment.NONE).converged
        assert not hasattr(lmm, "_observed_information")
        assert not hasattr(lmm, "_newton_polish")

    @pytest.mark.parametrize("seed,rep", [(3239807388, 1), (2743558982, 2)])
    def test_gradient_driven_to_tolerance_on_dense_panels(self, seed, rep):
        # on these jm_g15_l100 panels a minimum of the deviance placed to 1e-8 in log rho
        # leaves max|grad| at about 1e-4; the root of its slope does not
        panel = simulate_panel(preset("jm_g15_l100"), np.random.SeedSequence(seed, spawn_key=(rep,)))
        adjustment = Adjustment.TOTAL_COUNT_CENTERED
        assert fit_lmm(panel, adjustment).converged
        theta, X, _ = _lmm_estimates(panel, adjustment)
        _, grad, _ = _evaluate(theta, X, panel, 1)
        assert np.max(np.abs(grad)) <= GRAD_TOL

    def test_zero_random_intercept_variance_converges(self):
        # residuals (d, -2d, d) sum to zero in every subject and are orthogonal to the design,
        # so the likelihood rises as sigma_v2 falls to 0
        rng = np.random.default_rng(17)
        subs = []
        for i in range(20):
            t = np.array([0.0, 1.0, 2.0])
            z = i % 2
            y = 1.0 + 0.5 * z + 0.2 * t + rng.uniform(0.5, 1.5) * np.array([1.0, -2.0, 1.0])
            subs.append(Record(i + 1, z, 5.0, t, y))
        fit = fit_lmm(panel_of(subs), Adjustment.NONE)
        assert fit.converged
        np.testing.assert_allclose(fit.estimates[:3], [1.0, 0.5, 0.2], atol=1e-10)
        assert fit.estimate("sigma_v2") < 1e-10 * fit.estimate("sigma_e2")
        assert np.all(np.isfinite(fit.std_errors))


@pytest.mark.parametrize("name", PRESETS)
def test_information_matches_central_differences(name):
    # closed form against central differences of the analytic gradient, on each
    # preset's first study panel, at each model's estimates
    cfg = preset(name)
    panel = simulate_panel(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    for adjustment in Adjustment:
        theta, X, _ = _lmm_estimates(panel, adjustment)
        info = _evaluate(theta, X, panel, 2)[2]
        fd = central_difference_information(lambda t: _evaluate(t, X, panel, 1), theta)
        scale = np.sqrt(np.outer(np.diag(info), np.diag(info)))
        assert np.max(np.abs(info - fd) / scale) < 1e-6, (name, adjustment)


def test_adjustment_value_is_the_model_label():
    cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=40)
    panel = simulate_panel(cfg, 47)
    assert [a.value for a in Adjustment] == ["D", "B", "C"]
    for adjustment in Adjustment:
        fit = fit_lmm(panel, adjustment)
        assert (fit.model_label, fit.param_names) == (adjustment.value, adjustment.param_names)
        assert len(fit.param_names) == design_matrix(panel, adjustment).shape[1] + 2


def test_fit_evaluates_the_likelihood_once(monkeypatch):
    # one evaluation at the profile's optimum gives the log likelihood, the gradient the
    # convergence rule reads and the information behind the standard errors
    cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=80)
    panel = simulate_panel(cfg, 46)
    calls = []
    real_evaluate = lmm._evaluate
    monkeypatch.setattr(lmm, "_evaluate", lambda *a: calls.append(a[3]) or real_evaluate(*a))
    fit = fit_lmm(panel, Adjustment.CUMULATIVE_COUNT)
    assert fit.converged
    assert calls == [2]


class TestConvergenceRule:
    """``_fit_result``: the one convergence rule of models A to D and its standard errors."""

    INFO = np.array([[4.0, 1.0], [1.0, 2.0]])
    JACOBIAN = np.array([1.0, 4.0])

    def result(self, fval=10.0, grad=(1e-6, -1e-6), info=INFO):
        return _fit_result("D", ("a", "b"), np.array([1.0, 2.0]), fval, np.array(grad), info,
                           self.JACOBIAN, 3, "profile search")

    @pytest.mark.parametrize("case, rule", [
        ({"fval": np.inf}, "log likelihood not finite"),
        ({"fval": np.nan}, "log likelihood not finite"),
        ({"grad": (2e-4, 0.0)}, "max|grad| not below 1e-4"),
        ({"grad": (np.nan, 0.0)}, "max|grad| not below 1e-4"),
        ({"info": np.array([[1.0, 1.0], [1.0, 1.0]])}, "information singular"),
        ({"info": np.array([[1.0, 2.0], [2.0, 1.0]])},   # not positive definite
         "inverse information has a diagonal entry not positive and finite"),
    ], ids=["f-inf", "f-nan", "grad-2e-4", "grad-nan", "singular", "indefinite"])
    def test_not_converged(self, case, rule):
        # the optimiser's stop comes first, max|grad| next and the rule that failed the fit last
        fit = self.result(**case)
        assert not fit.converged
        assert np.all(np.isnan(fit.std_errors))
        assert fit.message.startswith("profile search; max|grad|=")
        assert fit.message.endswith(f"; {rule}")

    def test_gradient_in_message(self):
        assert self.result(grad=(2e-4, 0.0)).message == "profile search; max|grad|=2.00e-04; max|grad| not below 1e-4"

    def test_delta_method_standard_errors(self):
        fit = self.result()
        assert fit.converged
        assert fit.message == "profile search"
        assert (fit.loglik, fit.iterations) == (-10.0, 3)
        # sqrt(diag(inv(info))) * jacobian, with inv(info) = [[2, -1], [-1, 4]] / 7
        np.testing.assert_allclose(fit.std_errors, [np.sqrt(2.0 / 7.0), 4.0 * np.sqrt(4.0 / 7.0)], rtol=1e-14)


def interior_root(profile):
    """scipy's brentq on the profile's slope, or None where the minimum lies at a bound."""
    lo, hi = LOG_RHO_BOUNDS

    def slope(log_rho):
        return profile.parts([log_rho])[1][0]

    return scipy.optimize.brentq(slope, lo, hi) if slope(lo) > 0.0 > slope(hi) else None


@pytest.mark.parametrize("name", PRESETS)
def test_profile_search_finds_scipys_root(name):
    # B, C and D on reps 1-5: each interior minimum of the profiled deviance within 1e-10 of
    # scipy's root of its slope, found in at most 10 profile evaluations on average, where the
    # curvature matches central differences of the slope
    cfg = preset(name)
    evaluations = []
    for rep in range(1, 6):
        panel = simulate_panel(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
        for adjustment in Adjustment:
            profile = _Profile(design_matrix(panel, adjustment), panel)
            log_rho = profile.argmin()
            calls = profile.evaluations
            root = interior_root(profile)
            if root is None:
                continue
            evaluations.append(calls)
            assert abs(log_rho - root) <= 1e-10, (rep, adjustment)
            fd = central_difference_information(profile.parts, np.array([log_rho]))
            assert profile.parts([log_rho])[2] == pytest.approx(fd, rel=1e-6), (rep, adjustment)
    assert np.mean(evaluations) <= 10.0


def test_profile_search_climbs_where_the_profile_is_convex():
    # with sigma_v2 = 0.01, on reps 1, 5 and 6 for each model, Newton's first step from log rho = 0
    # lands left of the peak, where the profile is convex; the trust-region search must still
    # climb to the peak
    cfg = dataclasses.replace(preset("jm_g0_l100"), sigma_v2=0.01)
    for rep in (1, 5, 6):
        panel = simulate_panel(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(rep,)))
        for adjustment in Adjustment:
            profile = _Profile(design_matrix(panel, adjustment), panel)
            _, slope, curvature = profile.parts([0.0])
            first_point = -slope[0] / curvature[0, 0]
            assert profile.parts([first_point])[2][0, 0] > 0.0, (rep, adjustment)
            assert abs(profile.argmin() - interior_root(profile)) <= 1e-10, (rep, adjustment)
