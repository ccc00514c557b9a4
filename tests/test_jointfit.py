from importlib import resources

import numpy as np
import pytest

from visitsim import jointfit, lmm
from visitsim.cli import PRESETS
from visitsim.dgm import ScenarioConfig, parse_scenario_text, simulate_panel
from visitsim.domain import Subject, build_panel
from visitsim.errors import EstimationError, ValidationError
from visitsim.harness import StudyConfig, _replication_rows
from visitsim.jointfit import (PARAM_NAMES, JointParams, _JointData, _evaluate, _starting_theta,
                               fit_joint, gauss_hermite, joint_loglik, recurrent_frailty_loglik,
                               subject_log_contributions)
from visitsim.lmm import Adjustment, fit_lmm, lmm_loglik


def preset(name):
    text = resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_text()
    return parse_scenario_text(text, source=name)[0]


def typical_params(lam=0.3, gamma=1.5):
    return JointParams(1.0, np.log(lam), np.log(1.05), 0.0, 1.0, 0.2, gamma,
                       0.0, 0.5 * np.log(0.5), 0.0)


def mc_oracle(params: JointParams, panel, ndraws=10**6, seed=123):
    """Independent Monte Carlo integration over the frailty, one stream per call.

    Every per-draw quantity reduces to scalars per subject, so a million draws
    stay cheap.  Returns (total loglik estimate, its standard error).
    """
    theta = params.to_vector()
    (beta, log_lam, log_p, a0, a1, a2, gamma, log_su, log_sv, log_se) = theta
    lam, p = np.exp(log_lam), np.exp(log_p)
    su2, sv2, se2 = np.exp(2 * log_su), np.exp(2 * log_sv), np.exp(2 * log_se)
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, np.sqrt(su2), ndraws)
    total, var_total = 0.0, 0.0
    eu = np.exp(u)
    for subj in panel.subjects:
        t, n, E = subj.visit_times, subj.n_visits, subj.n_visits - 1.0
        observed_gaps = np.diff(t)
        gaps = np.append(observed_gaps, subj.censoring_time - t[-1])
        lam_eff = lam * np.exp(beta * subj.z) * np.sum(gaps**p)
        r0 = subj.outcomes - (a0 + a1 * subj.z + a2 * t)
        s, q = np.sum(r0), np.sum(r0 * r0)
        a = se2 + n * sv2
        Q0 = (q - sv2 * s * s / a) / se2
        b = E + gamma * s / a
        w = gamma * gamma * n / a
        c = (E * (log_lam + log_p + beta * subj.z) + (p - 1.0) * np.sum(np.log(observed_gaps))
             - 0.5 * (n * np.log(2 * np.pi) + (n - 1) * np.log(se2) + np.log(a) + Q0))
        lf = c + b * u - lam_eff * eu - 0.5 * w * u * u
        m = lf.max()
        vals = np.exp(lf - m)
        mean = vals.mean()
        total += m + np.log(mean)
        var_total += vals.var() / (ndraws * mean**2)
    return total, float(np.sqrt(var_total))


class TestQuadratureRule:
    def test_invariants(self):
        for order in (3, 7, 25, 50):
            nodes, weights = gauss_hermite(order)
            assert abs(weights.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-9)

    def test_order_bound(self):
        with pytest.raises(ValidationError, match="quadrature order must be >= 3, got 2"):
            gauss_hermite(2)

    def test_fit_options_order_bound(self):
        panel = build_panel([Subject(1, 0, 5.0, [0.0], [0.0])])
        with pytest.raises(ValidationError, match="quadrature order must be >= 3"):
            fit_joint(panel, order=2)
        # order 3 passes the check, so the one-subject guard is what stops this fit
        with pytest.raises(EstimationError, match="at least 2 subjects"):
            fit_joint(panel, order=3)

    def test_normal_moments(self):
        nodes, weights = gauss_hermite(25)
        assert float(weights @ nodes**2) == pytest.approx(1.0, abs=1e-12)
        assert float(weights @ nodes**4) == pytest.approx(3.0, abs=1e-10)

    def test_rule_computed_once_and_read_only(self):
        nodes, weights = gauss_hermite(25)
        again = gauss_hermite(25)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # a bad order is not cached: it raises on every call
        for _ in range(2):
            with pytest.raises(ValidationError, match="quadrature order must be >= 3"):
                gauss_hermite(2)


class TestLoglik:
    def test_gamma_zero_separability(self):
        # with no association the likelihood factorizes into the frailty
        # recurrent part and the plain mixed-model part
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=40)
        panel = simulate_panel(cfg, 42)
        params = JointParams(0.9, np.log(0.28), np.log(1.1), 0.1, 0.9, 0.25, 0.0,
                             np.log(0.9), 0.5 * np.log(0.45), 0.5 * np.log(1.1))
        joint = joint_loglik(params, panel, 25)
        rec = recurrent_frailty_loglik(0.9, 0.28, 1.1, 0.81, panel, 25)
        lmm_part = lmm_loglik([0.1, 0.9, 0.25], 0.45, 1.1, panel, Adjustment.NONE)
        assert abs(joint - rec - lmm_part) < 1e-8

    @pytest.mark.parametrize("lam,gamma", [(0.10, 0.0), (0.30, 1.5), (1.00, 1.5)])
    def test_against_mc_integration(self, lam, gamma):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=lam, gamma=gamma, n_subjects=25)
        panel = simulate_panel(cfg, 7)
        params = typical_params(lam, gamma)
        mc, mcse = mc_oracle(params, panel)
        quad = joint_loglik(params, panel, 25)
        assert abs(quad - mc) < 3 * mcse

    @pytest.mark.parametrize("preset", [
        dict(weibull_scale=0.10, gamma=0.0), dict(weibull_scale=0.30, gamma=0.0),
        dict(weibull_scale=1.00, gamma=0.0), dict(weibull_scale=0.10, gamma=1.5),
        dict(weibull_scale=0.30, gamma=1.5), dict(weibull_scale=1.00, gamma=1.5),
        dict(weibull_scale=0.05, gamma=3.0, regular_visits=True),
    ])
    def test_order_self_convergence(self, preset):
        # order 25 and order 50 rules agree to 1e-6 relative on panels from
        # every joint-model scenario
        cfg = ScenarioConfig(family="joint_model", n_subjects=60, **preset)
        panel = simulate_panel(cfg, 11)
        params = typical_params(cfg.weibull_scale, cfg.gamma)
        l25 = joint_loglik(params, panel, 25)
        l50 = joint_loglik(params, panel, 50)
        assert abs(l25 - l50) <= 1e-6 * abs(l50)

    def test_gradient_matches_finite_differences(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=40)
        panel = simulate_panel(cfg, 42)
        data = _JointData(panel, 25)
        rng = np.random.default_rng(0)
        base = typical_params().to_vector()
        for _ in range(10):
            theta = base + rng.normal(0, 0.15, 10)
            _, _, grad, _ = _evaluate(theta, data, 1)
            for j in range(10):
                h = 1e-6 * (1 + abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd = (_evaluate(tp, data, 0)[0]
                      - _evaluate(tm, data, 0)[0]) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_gradient_same_at_every_derivative_order_and_hessian_symmetric(self):
        # trust-exact reads the gradient from the derivs-2 evaluation
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=40)
        data = _JointData(simulate_panel(cfg, 42), 25)
        theta = typical_params().to_vector() + np.random.default_rng(1).normal(0, 0.15, 10)
        ll1, contrib1, grad1, hess1 = _evaluate(theta, data, 1)
        ll2, contrib2, grad2, hess2 = _evaluate(theta, data, 2)
        assert hess1 is None
        assert ll1 == ll2 and np.array_equal(contrib1, contrib2)
        assert np.array_equal(grad1, grad2)
        assert np.array_equal(hess2, hess2.T)

    def test_subject_reordering_invariance(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=30)
        panel = simulate_panel(cfg, 4)
        rev = build_panel(panel.subjects[::-1])
        params = typical_params()
        assert joint_loglik(params, panel, 25) == pytest.approx(
            joint_loglik(params, rev, 25), abs=1e-9)

    def test_contributions_sum_to_total(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=20)
        panel = simulate_panel(cfg, 4)
        params = typical_params()
        contribs = subject_log_contributions(params, panel, 25)
        assert len(contribs) == 20
        assert sum(v for _, v in contribs) == pytest.approx(joint_loglik(params, panel, 25), abs=1e-9)


class TestFit:
    def test_fit_and_translation_equivariance(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=1.5, n_subjects=120)
        panel = simulate_panel(cfg, 60)
        fit = fit_joint(panel)
        assert fit.converged
        assert fit.model_label == "A"
        assert np.all(fit.std_errors > 0)

        shifted = build_panel([
            Subject(s.id, s.z, s.censoring_time, s.visit_times, s.outcomes + 3.0)
            for s in panel.subjects
        ])
        fit2 = fit_joint(shifted)
        assert fit2.estimate("alpha0") - fit.estimate("alpha0") == pytest.approx(3.0, abs=1e-5)
        keep = [n for n in fit.param_names if n != "alpha0"]
        for name in keep:
            assert fit2.estimate(name) == pytest.approx(fit.estimate(name), abs=2e-5)

    def test_loglik_decreases_away_from_optimum(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=1.5, n_subjects=80)
        panel = simulate_panel(cfg, 61)
        fit = fit_joint(panel)
        assert fit.converged
        theta_hat = JointParams(
            fit.estimate("beta"), np.log(fit.estimate("lambda")), np.log(fit.estimate("p")),
            fit.estimate("alpha0"), fit.estimate("alpha1"), fit.estimate("alpha2"),
            fit.estimate("gamma"), 0.5 * np.log(fit.estimate("sigma_u2")),
            0.5 * np.log(fit.estimate("sigma_v2")), 0.5 * np.log(fit.estimate("sigma_e2")))
        base = joint_loglik(theta_hat, panel, 25)
        assert base == pytest.approx(fit.loglik, abs=1e-6)
        rng = np.random.default_rng(5)
        vec = theta_hat.to_vector()
        for _ in range(5):
            pert = vec + rng.normal(0, 0.05, 10)
            assert joint_loglik(JointParams.from_vector(pert), panel, 25) < base

    def test_estimates_converged_in_quadrature_order(self):
        # the fitted optimum, gamma-hat included, does not move between
        # adaptive 25- and 50-node rules on a preset-sized gamma = 1.5 panel
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=1.5)
        panel = simulate_panel(cfg, 62)
        fit25 = fit_joint(panel, order=25)
        fit50 = fit_joint(panel, order=50)
        assert fit25.converged and fit50.converged
        np.testing.assert_allclose(fit25.estimates, fit50.estimates, rtol=0, atol=1e-6)

    def test_two_subject_guard(self):
        panel = build_panel([Subject(1, 0, 5.0, [0.0], [0.0])])
        with pytest.raises(Exception):
            fit_joint(panel)

    def test_sparse_panel_warns(self):
        subs = [Subject(i + 1, i % 2, 5.0, [0.0], [0.1 * i]) for i in range(10)]
        with pytest.warns(UserWarning, match="weakly identified"):
            fit_joint(build_panel(subs), order=7)


def test_start_values_build_no_information_matrix(monkeypatch):
    # model A starts from model D's point estimates, which need neither its likelihood,
    # nor its gradient, nor its standard errors
    config = preset("jm_g15_l030")
    panel = simulate_panel(config, config.seed)
    fit_d = fit_lmm(panel, Adjustment.NONE)
    calls = []
    real_evaluate = lmm._evaluate
    monkeypatch.setattr(lmm, "_evaluate", lambda *a: calls.append(a) or real_evaluate(*a))
    theta0 = _starting_theta(panel, _JointData(panel, 25))
    assert calls == []
    sv2, se2 = (max(fit_d.estimate(k), 1e-4) for k in ("sigma_v2", "sigma_e2"))
    assert list(theta0[3:6]) == list(fit_d.estimates[:3])
    assert list(theta0[8:]) == [0.5 * np.log(sv2), 0.5 * np.log(se2)]


def test_weibull_fallback_start_when_fit_fails(monkeypatch):
    # a Weibull fit that reports ok = False gives way to the exponential rate, p = 1, beta = 0
    config = preset("jm_g15_l030")
    panel = simulate_panel(config, config.seed)
    data = _JointData(panel, 25)
    monkeypatch.setattr(jointfit, "fit_weibull_ph", lambda cox: (2.0, 3.0, np.array([0.5]), False))
    theta0 = _starting_theta(panel, data)
    assert list(theta0[:3]) == [0.0, np.log(np.sum(data.events) / np.sum(panel.gaps)), 0.0]


def test_converged_fit_keeps_the_optimizer_stop_reason():
    config = preset("jm_g15_l030")
    fit = fit_joint(simulate_panel(config, config.seed))
    assert fit.converged
    assert fit.message.startswith("optimizer:")
    assert "max|grad|" not in fit.message


@pytest.mark.parametrize("name", [n for n in PRESETS if preset(n).family == "joint_model"] + ["gamma_lagy"])
def test_information_matches_central_differences(name):
    # the exact (Louis) information against second central differences of the log
    # likelihood itself, at model A's estimates on the preset's first study panel
    cfg = preset(name)
    panel = simulate_panel(cfg, np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    fit = fit_joint(panel)
    assert fit.converged
    data = _JointData(panel, 25)
    theta = JointParams.from_natural(dict(zip(fit.param_names, fit.estimates))).to_vector()
    hess = _evaluate(theta, data, 2)[3]
    # a variance at its boundary (sigma_v2 -> 0 on the regular-visit preset) leaves
    # its log with no curvature to compare
    keep = [j for j, k in enumerate(PARAM_NAMES) if not (k.startswith("sigma") and fit.estimates[j] < 1e-6)]
    # about 3e-3 standard errors: rounding of the log likelihood dominates below, its
    # fourth derivative above
    steps = 3e-3 / np.sqrt(-np.diag(hess))

    def loglik(i, si, j, sj):
        t = theta.copy()
        t[i] += si * steps[i]
        t[j] += sj * steps[j]
        return _evaluate(t, data, 0)[0]

    for i in keep:
        for j in keep:
            fd = (loglik(i, 1, j, 1) - loglik(i, 1, j, -1) - loglik(i, -1, j, 1)
                  + loglik(i, -1, j, -1)) / (4.0 * steps[i] * steps[j])
            assert abs(hess[i, j] - fd) < 1e-6 * np.sqrt(hess[i, i] * hess[j, j]), (PARAM_NAMES[i], PARAM_NAMES[j])


@pytest.mark.parametrize("information", [np.full((10, 10), np.nan), -1e300 * np.eye(10)])
def test_failed_trust_region_is_a_failed_fit_not_a_failed_study(monkeypatch, information):
    # a non-finite information raises EstimationError, and -1e300 times the identity
    # stops the trust region; either way the study records a failed fit of model A
    real = jointfit._evaluate

    def evaluate(theta, data, derivs):
        ll, contrib, grad, hess = real(theta, data, derivs)
        return ll, contrib, grad, None if hess is None else information

    monkeypatch.setattr(jointfit, "_evaluate", evaluate)
    study = StudyConfig(scenario=preset("jm_g15_l010"), models=("A", "D"), replications=2)
    rows = _replication_rows(study, 1)
    assert [r.converged for r in rows if r.model == "A"] == [False] * len(PARAM_NAMES)
    assert all(r.converged for r in rows if r.model == "D")
