from importlib import resources

import dataclasses

import numpy as np
import pytest

from panel_records import Record, panel_of, subjects_of
from visitsim import jointfit, lmm
from visitsim.cli import PRESETS
from visitsim.dgm import ScenarioConfig, parse_scenario_text, simulate_panel
from visitsim.errors import EstimationError, ValidationError
from visitsim.harness import _replication
from visitsim.jointfit import (PARAM_NAMES, _JointData, _evaluate, _natural, _starting_theta, _theta, fit_joint,
                               gauss_hermite, joint_loglik, recurrent_frailty_loglik, subject_log_contributions)
from visitsim.lmm import Adjustment, fit_lmm, lmm_loglik
from visitsim.survfit import _trust_region_step


def preset(name):
    text = resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_text()
    return parse_scenario_text(text, source=name)[0]


def typical_params(lam=0.3, gamma=1.5):
    return {"beta": 1.0, "lambda": lam, "p": 1.05, "alpha0": 0.0, "alpha1": 1.0, "alpha2": 0.2,
            "gamma": gamma, "sigma_u2": 1.0, "sigma_v2": 0.5, "sigma_e2": 1.0}


def mc_oracle(params, panel, ndraws=10**6, seed=123):
    """Independent Monte Carlo integration over the frailty, one stream per call.

    Every per-draw quantity reduces to scalars per subject, so a million draws
    stay cheap.  Returns (total loglik estimate, its standard error).
    """
    theta = _theta(params)
    (beta, log_lam, log_p, a0, a1, a2, gamma, log_su, log_sv, log_se) = theta
    lam, p = np.exp(log_lam), np.exp(log_p)
    su2, sv2, se2 = np.exp(2 * log_su), np.exp(2 * log_sv), np.exp(2 * log_se)
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, np.sqrt(su2), ndraws)
    total, var_total = 0.0, 0.0
    eu = np.exp(u)
    for subj in subjects_of(panel):
        t = subj.visit_times
        n, E = len(t), len(t) - 1.0
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
        panel = panel_of([Record(1, 0, 5.0, [0.0], [0.0])])
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
        params = {"beta": 0.9, "lambda": 0.28, "p": 1.1, "alpha0": 0.1, "alpha1": 0.9, "alpha2": 0.25,
                  "gamma": 0.0, "sigma_u2": 0.81, "sigma_v2": 0.45, "sigma_e2": 1.1}
        joint = joint_loglik(params, panel, 25)
        rec = recurrent_frailty_loglik(params, panel, 25)
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
        base = _theta(typical_params())
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
        # the trust region reads the score from the derivative pass at derivs 2
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=40)
        data = _JointData(simulate_panel(cfg, 42), 25)
        theta = _theta(typical_params()) + np.random.default_rng(1).normal(0, 0.15, 10)
        ll1, contrib1, grad1, hess1 = _evaluate(theta, data, 1)
        ll2, contrib2, grad2, hess2 = _evaluate(theta, data, 2)
        assert hess1 is None
        assert ll1 == ll2 and np.array_equal(contrib1, contrib2)
        assert np.array_equal(grad1, grad2)
        assert np.array_equal(hess2, hess2.T)

    def test_subject_reordering_invariance(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=30)
        panel = simulate_panel(cfg, 4)
        rev = panel_of(subjects_of(panel)[::-1])
        params = typical_params()
        assert joint_loglik(params, panel, 25) == pytest.approx(
            joint_loglik(params, rev, 25), abs=1e-9)

    @pytest.mark.parametrize("name,value", [("sigma_u2", 0.0), ("p", -1.0), ("lambda", np.inf)])
    def test_scale_parameter_not_positive_and_finite_rejected(self, name, value):
        panel = simulate_panel(ScenarioConfig(family="joint_model", n_subjects=5), 4)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite$"):
            joint_loglik({**typical_params(), name: value}, panel, 25)

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

        shifted = panel_of([s._replace(outcomes=s.outcomes + 3.0) for s in subjects_of(panel)])
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
        estimates = dict(zip(fit.param_names, fit.estimates))
        base = joint_loglik(estimates, panel, 25)
        assert base == pytest.approx(fit.loglik, abs=1e-6)
        rng = np.random.default_rng(5)
        vec = _theta(estimates)
        for _ in range(5):
            pert = vec + rng.normal(0, 0.05, 10)
            assert joint_loglik(dict(zip(PARAM_NAMES, _natural(pert))), panel, 25) < base

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
        panel = panel_of([Record(1, 0, 5.0, [0.0], [0.0])])
        with pytest.raises(Exception):
            fit_joint(panel)

    def test_sparse_panel_warns(self):
        subs = [Record(i + 1, i % 2, 5.0, [0.0], [0.1 * i]) for i in range(10)]
        with pytest.warns(UserWarning, match="weakly identified"):
            fit_joint(panel_of(subs), order=7)


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
    theta = _theta(dict(zip(fit.param_names, fit.estimates)))
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
    # leaves the trust region no predicted gain; either way the study records a failed fit of model A
    real = jointfit._derivatives

    def derivatives(data, pt, derivs):
        grad, hess = real(data, pt, derivs)
        return grad, None if hess is None else information

    monkeypatch.setattr(jointfit, "_derivatives", derivatives)
    config = preset("jm_g15_l010")
    panel = simulate_panel(config, np.random.SeedSequence(config.seed, spawn_key=(1,)))
    if np.isnan(information).any():
        with pytest.raises(EstimationError, match="non-finite observed information"):
            fit_joint(panel)
    else:
        fit = fit_joint(panel)
        assert not fit.converged and fit.message.startswith("optimizer: no predicted gain")
    (fit_a, fit_d), _, _ = _replication(config, ("A", "D"), 25, 1)
    assert fit_a is None or not fit_a.converged
    assert fit_d.converged


def test_trial_point_with_a_non_finite_score_is_rejected(monkeypatch):
    # the first point the likelihood accepts gets a NaN score and information, as where Lambda*e^U
    # overflows at a node: the step is rejected, the next trial is a quarter of it or less from
    # the same base, and the fit goes on to the same optimum
    config = preset("jm_g15_l010")
    panel = simulate_panel(config, np.random.SeedSequence(config.seed, spawn_key=(1,)))
    clean = fit_joint(panel)
    real_value, real_derivatives = jointfit._value, jointfit._derivatives
    points, scored = [], []   # (theta, point) of every value pass; the points the derivative pass saw

    def value(theta, data):
        result = real_value(theta, data)
        points.append((theta.copy(), result[2]))
        return result

    def derivatives(data, pt, derivs):
        scored.append(pt)
        grad, hess = real_derivatives(data, pt, derivs)
        return (grad * np.nan, hess * np.nan) if len(scored) == 2 else (grad, hess)

    monkeypatch.setattr(jointfit, "_value", value)
    monkeypatch.setattr(jointfit, "_derivatives", derivatives)
    fit = fit_joint(panel)
    assert fit.converged
    np.testing.assert_allclose(fit.estimates, clean.estimates, rtol=0, atol=1e-3 * clean.std_errors.min())
    base = next(theta for theta, pt in points if pt is scored[0])
    k = next(k for k, (_, pt) in enumerate(points) if pt is scored[1])
    rejected, retried = points[k][0], points[k + 1][0]
    assert np.linalg.norm(retried - base) <= 0.25 * np.linalg.norm(rejected - base) * (1.0 + 1e-12)


def test_non_finite_score_at_the_start_is_a_failed_fit(monkeypatch):
    real = jointfit._derivatives
    monkeypatch.setattr(jointfit, "_derivatives",
                        lambda data, pt, derivs: (np.full(10, np.nan), real(data, pt, derivs)[1]))
    config = preset("jm_g15_l010")
    fit = fit_joint(simulate_panel(config, np.random.SeedSequence(config.seed, spawn_key=(1,))))
    assert not fit.converged and fit.iterations == 0
    assert fit.message.startswith("optimizer: non-finite likelihood or score at the start")


def random_symmetric(rng, eigenvalues):
    """A symmetric matrix with the given eigenvalues and a random orthonormal eigenbasis, and that basis."""
    Q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    return (Q * eigenvalues) @ Q.T, Q


@pytest.mark.parametrize("kind", ["positive definite", "indefinite", "hard case"])
def test_trust_region_step_solves_the_subproblem(kind):
    # the step's optimality conditions (Moré & Sorensen 1983): |p| <= radius and
    # (B + lam I) p = -g with lam >= 0, B + lam I positive semi-definite, lam (radius - |p|) = 0
    rng = np.random.default_rng(["positive definite", "indefinite", "hard case"].index(kind))
    for _ in range(200):
        if kind == "positive definite":
            eigenvalues = 10.0 ** rng.uniform(-3, 3, 10)
        else:
            eigenvalues = np.append(-10.0 ** rng.uniform(-3, 1), rng.uniform(-5, 5, 9))
        B, Q = random_symmetric(rng, eigenvalues)
        g = rng.normal(size=10) * 10.0 ** rng.uniform(-3, 3)
        radius = 10.0 ** rng.uniform(-3, 2)
        if kind == "hard case":
            lowest = Q[:, np.argmin(eigenvalues)]
            g -= (lowest @ g) * lowest
            # the step at lam = -min(eigenvalues), g's components alone, is shorter than the radius
            shift = np.sort(eigenvalues)[1:] - eigenvalues.min()
            radius = np.linalg.norm((Q.T @ g)[np.argsort(eigenvalues)][1:] / shift) * rng.uniform(1.01, 10)
        p, lam = _trust_region_step(*np.linalg.eigh(B), g, radius)
        scale = np.abs(eigenvalues).max() * radius + np.linalg.norm(g)
        assert np.linalg.norm(p) <= radius * (1.0 + 1e-12)   # to rounding
        assert lam >= 0.0
        np.testing.assert_allclose((B + lam * np.eye(10)) @ p, -g, rtol=0, atol=1e-8 * scale)
        assert np.linalg.eigvalsh(B + lam * np.eye(10))[0] >= -1e-9 * np.abs(eigenvalues).max()
        assert lam * (radius - np.linalg.norm(p)) <= 1e-9 * scale * radius


def test_trust_region_step_inside_the_region_is_the_newton_step():
    rng = np.random.default_rng(3)
    for _ in range(50):
        B, _ = random_symmetric(rng, 10.0 ** rng.uniform(-2, 2, 10))
        g = rng.normal(size=10)
        newton = -np.linalg.solve(B, g)
        p, lam = _trust_region_step(*np.linalg.eigh(B), g, 1.01 * np.linalg.norm(newton))
        assert lam == 0.0
        np.testing.assert_allclose(p, newton, rtol=1e-9, atol=1e-12 * np.linalg.norm(newton))


def test_trust_region_step_exact_hard_case():
    # g exactly orthogonal to the lowest eigenvector: the step is completed along it to the radius
    w, V, g = np.array([-2.0, 1.0, 3.0]), np.eye(3), np.array([0.0, 1.0, 3.0])
    p, lam = _trust_region_step(w, V, g, 5.0)
    assert lam == 2.0
    assert np.linalg.norm(p) == pytest.approx(5.0, rel=1e-12)
    np.testing.assert_allclose(p[1:], [-1.0 / 3.0, -3.0 / 5.0], rtol=1e-12)


def scheduled_visit_oracle(config, rep):
    """Model A on rep ``rep`` of a scheduled-visit scenario, with every process gap that a
    scheduled visit cut short marked censored, and the share of observed gaps so marked."""
    panel = simulate_panel(config, np.random.SeedSequence(config.seed, spawn_key=(rep,)))
    visit_ends = np.append(panel.t[1:], 0.5)   # the time each observed gap ends
    scheduled = panel.observed & (visit_ends % config.regular_interval == 0.0)
    oracle = dataclasses.replace(panel, observed=panel.observed & ~scheduled)
    return fit_joint(oracle), np.mean(scheduled[panel.observed])


def test_scheduled_visit_oracle_recovers_the_truth():
    # on jm_g30_l005_regular a scheduled visit restarts the visit process, so the process gap it
    # cuts short is censored; marked so, model A's visit submodel is the true one, and gamma-hat and
    # sigma_u2-hat lie within 3 SE of their true values (ROADMAP item 10)
    config = preset("jm_g30_l005_regular")
    assert config.regular_interval == 1.0 and config.regular_resets_process
    for rep in (1, 2, 3):
        fit, scheduled_share = scheduled_visit_oracle(config, rep)
        assert 0.5 < scheduled_share < 1.0
        assert fit.converged
        assert abs(fit.estimate("gamma") - config.gamma) < 3.0 * fit.se("gamma"), rep
        assert abs(fit.estimate("sigma_u2") - config.sigma_u2) < 3.0 * fit.se("sigma_u2"), rep
