from importlib import resources

import numpy as np
import pytest
import scipy.optimize

from panel_records import panel_of, subjects_of
from visitsim import survfit
from visitsim.dgm import ScenarioConfig, parse_scenario_text, simulate_panel
from visitsim.domain import GapRecord
from visitsim.errors import EstimationError
from visitsim.survfit import (_CoxData, _grad_tol, _jackknife_cov, _weibull_loglik_grad_hess,
                              cox_partial_loglik, fit_andersen_gill, fit_weibull_ph)


def rec(sid, idx, gap, obs, *cov):
    return GapRecord(sid, idx, gap, obs, tuple(float(c) for c in cov))


def cox_data(records):
    return _CoxData([r.gap for r in records], [r.observed for r in records],
                    [r.covariates for r in records], [r.subject_id for r in records])

def random_records(n_subjects=30, seed=3, d=1):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_subjects):
        for j in range(1, int(rng.integers(2, 5))):
            out.append(rec(i, j, float(rng.exponential(1.0) + 0.01),
                           bool(rng.random() < 0.8), *rng.normal(size=d)))
    return out


class TestPartialLoglik:
    def test_two_record_hand_oracle(self):
        # gaps {1, 2}, events both, covariate {1, 0}:
        # risk set at gap 2 is {record 2} alone; at gap 1 both records.
        data = cox_data([rec(1, 1, 1.0, True, 1.0), rec(2, 1, 2.0, True, 0.0)])
        for eta in (-1.3, 0.0, 0.7, 2.1):
            ll, _, _ = cox_partial_loglik([eta], data)
            assert ll == pytest.approx(eta - np.log(np.exp(eta) + 1.0), abs=1e-12)

    def test_gradient_hessian_consistency(self):
        data = cox_data(random_records(d=2))
        eta = np.array([0.3, -0.5])
        ll, g, h = cox_partial_loglik(eta, data)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            fd = (cox_partial_loglik(eta + e, data)[0]
                  - cox_partial_loglik(eta - e, data)[0]) / 2e-6
            assert g[j] == pytest.approx(fd, abs=1e-5)
        fdh = np.empty((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-5
            fdh[:, j] = (cox_partial_loglik(eta + e, data)[1]
                         - cox_partial_loglik(eta - e, data)[1]) / 2e-5
        np.testing.assert_allclose(h, fdh, atol=1e-6)

    def test_no_events_error(self):
        with pytest.raises(EstimationError, match="no events"):
            cox_partial_loglik([0.0], cox_data([rec(1, 1, 1.0, False, 0.5)]))

    def test_rank_invariance(self):
        # any strictly increasing transform of the gaps leaves the likelihood unchanged
        records = random_records(seed=10)
        eta = [0.4]
        base = cox_partial_loglik(eta, cox_data(records))[0]
        warped = [rec(r.subject_id, r.index, float(np.expm1(r.gap) + r.gap**3), r.observed,
                      *r.covariates) for r in records]
        assert cox_partial_loglik(eta, cox_data(warped))[0] == pytest.approx(base, abs=1e-10)


class TestFit:
    def test_matches_grid_search(self):
        data = cox_data([rec(1, 1, 1.0, True, 1.0), rec(1, 2, 3.0, False, 1.0),
                         rec(2, 1, 2.0, True, 0.0), rec(2, 2, 0.5, True, 0.0)])
        fit = fit_andersen_gill(data)
        # the AG partial log-likelihood is concave, so the maximum lies within one
        # step of the coarse grid's argmax; the fine grid's step is 5e-7
        coarse = np.linspace(fit.eta[0] - 0.5, fit.eta[0] + 0.5, 2001)
        best = coarse[int(np.argmax([cox_partial_loglik([e], data)[0] for e in coarse]))]
        step = coarse[1] - coarse[0]
        fine = np.linspace(best - step, best + step, 2001)
        lls = [cox_partial_loglik([e], data)[0] for e in fine]
        assert fit.eta[0] == pytest.approx(fine[int(np.argmax(lls))], abs=1e-6)
        assert fit.converged

    def test_gradient_small_and_hessian_negative_definite(self):
        data = cox_data(random_records(n_subjects=60, seed=6, d=2))
        fit = fit_andersen_gill(data)
        _, g, h = cox_partial_loglik(fit.eta, data)
        assert np.max(np.abs(g)) < 1e-6
        assert np.all(np.linalg.eigvalsh(h) < 0)

    def test_constant_covariate_flat_likelihood(self):
        fit = fit_andersen_gill(cox_data([rec(1, 1, 1.0, True, 1.0), rec(2, 1, 2.0, True, 1.0)]))
        assert fit.eta[0] == 0.0
        assert fit.converged
        assert "no covariate contrast" in fit.message

    def test_symmetric_design_zero(self):
        fit = fit_andersen_gill(cox_data([rec(1, 1, 1.0, True, 0.5), rec(2, 1, 1.0, True, -0.5)]))
        assert fit.eta[0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_likelihood_flagged(self):
        # perfectly separated: the treated record always outlasts the others
        fit = fit_andersen_gill(cox_data([rec(1, 1, 5.0, True, 1.0), rec(2, 1, 1.0, True, 0.0),
                                          rec(3, 1, 0.5, True, 0.0)]))
        assert not fit.converged
        assert fit.message


class TestRobustVariance:
    def test_jackknife_formula_three_subjects(self):
        # (K/(K-1)) * sum of outer products of centered leave-one-out estimates,
        # each one Newton step from the full-data estimate, computed here by
        # hand; continuous covariates keep every leave-one-out subset identifiable
        records = [rec(1, 1, 1.0, True, 0.5), rec(1, 2, 4.0, True, 0.5),
                   rec(2, 1, 2.0, True, -0.2), rec(2, 2, 0.5, True, -0.2),
                   rec(3, 1, 3.0, True, 1.3), rec(3, 2, 0.7, True, 1.3)]
        data = cox_data(records)
        eta = fit_andersen_gill(data).eta
        loo = []
        for drop in (1, 2, 3):
            _, g, h = cox_partial_loglik(eta, cox_data([r for r in records if r.subject_id != drop]))
            loo.append(eta[0] - g[0] / h[0, 0])
        loo = np.array(loo)
        expected = (3.0 / 2.0) * np.sum((loo - loo.mean()) ** 2)
        assert _jackknife_cov(data, eta)[0, 0] == pytest.approx(expected, rel=1e-8)

    def test_one_step_close_to_exact(self):
        records = random_records(n_subjects=40, seed=21)
        data = cox_data(records)
        one = _jackknife_cov(data, fit_andersen_gill(data).eta)[0, 0]
        subjects = sorted({r.subject_id for r in records})
        loo = np.array([fit_andersen_gill(cox_data([r for r in records if r.subject_id != sid])).eta[0]
                        for sid in subjects])
        K = len(subjects)
        exact = (K / (K - 1.0)) * np.sum((loo - loo.mean()) ** 2)
        assert one == pytest.approx(exact, rel=0.15)

    def test_jackknife_diagonal_nonnegative(self):
        data = cox_data(random_records(n_subjects=25, seed=30, d=2))
        cov = _jackknife_cov(data, fit_andersen_gill(data).eta)
        assert np.all(np.diag(cov) >= 0)
        np.testing.assert_allclose(cov, cov.T, atol=1e-14)


class TestFromPanel:
    def test_matches_gap_records(self):
        panel = simulate_panel(ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=40), 12)
        ours, recs = _CoxData.from_panel(panel), cox_data(panel.gap_records)
        for name in ("gaps", "events", "Z", "subjects", "risk_end", "event_idx"):
            np.testing.assert_array_equal(getattr(ours, name), getattr(recs, name))

    def test_drop_subject_equals_panel_without_it(self):
        panel = simulate_panel(ScenarioConfig(family="joint_model", weibull_scale=0.3, n_subjects=40), 13)
        dropped = _CoxData.from_panel(panel).drop_subject(panel.ids[5])
        rebuilt = _CoxData.from_panel(panel_of(s for s in subjects_of(panel) if s.id != panel.ids[5]))
        for name in ("gaps", "events", "Z", "subjects", "risk_end", "event_idx"):
            np.testing.assert_array_equal(getattr(dropped, name), getattr(rebuilt, name))


class TestOnSimulatedPanels:
    def test_attenuated_treatment_effect(self):
        # the frailty-mixed marginal AG estimate sits well below the conditional
        # beta = 1; a 100000-subject run of this generator (seed 314159) pins the
        # attenuated target at 0.7112 (se 0.0067)
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=1.5, n_subjects=2000)
        panel = simulate_panel(cfg, 77)
        data = _CoxData.from_panel(panel)
        fit = fit_andersen_gill(data)
        assert fit.converged
        assert abs(fit.eta[0] - 0.7112) < 0.2
        assert fit.eta[0] / np.sqrt(_jackknife_cov(data, fit.eta)[0, 0]) > 3

    def test_weibull_ph_recovers_parameters_without_frailty(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.30, gamma=0.0,
                             sigma_u2=1e-12, n_subjects=800)
        panel = simulate_panel(cfg, 31)
        lam, p, beta, ok = fit_weibull_ph(_CoxData.from_panel(panel))
        assert ok
        assert lam == pytest.approx(0.30, rel=0.1)
        assert p == pytest.approx(1.05, rel=0.05)
        assert beta[0] == pytest.approx(1.0, abs=0.15)


def preset_cox_data(name):
    text = resources.files("visitsim").joinpath(f"presets/{name}.cfg").read_text()
    cfg = parse_scenario_text(text, source=name)[0]
    return _CoxData.from_panel(simulate_panel(cfg, cfg.seed))


@pytest.mark.parametrize("name", ["jm_g15_l030", "gamma_lagy"])
class TestWeibullNewton:
    def test_score_below_tolerance_at_answer(self, name):
        data = preset_cox_data(name)
        lam, p, beta, ok = fit_weibull_ph(data)
        assert ok
        _, grad, _ = _weibull_loglik_grad_hess(data, np.concatenate([[np.log(lam), np.log(p)], beta]))
        assert np.max(np.abs(grad)) < _grad_tol(data.n_events)

    def test_hessian_matches_central_differences_of_score(self, name):
        data = preset_cox_data(name)
        lam, p, beta, _ = fit_weibull_ph(data)
        theta = np.concatenate([[np.log(lam), np.log(p)], beta]) + 0.05
        hess = _weibull_loglik_grad_hess(data, theta)[2]
        for j in range(len(theta)):
            h = 1e-5
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd = (_weibull_loglik_grad_hess(data, up)[1] - _weibull_loglik_grad_hess(data, down)[1]) / (2 * h)
            assert np.all(np.abs(hess[:, j] - fd) <= 1e-6 * np.sqrt(np.diag(hess) * hess[j, j]))

    def test_agrees_with_bfgs(self, name):
        data = preset_cox_data(name)
        lam, p, beta, _ = fit_weibull_ph(data)
        newton = np.concatenate([[lam, p], beta])

        def negll(theta):
            ll, grad, _ = _weibull_loglik_grad_hess(data, theta)
            return -ll, -grad

        theta0 = np.concatenate([[np.log(data.n_events / np.sum(data.gaps)), 0.0], np.zeros(data.d)])
        res = scipy.optimize.minimize(negll, theta0, jac=True, method="BFGS", options={"gtol": 1e-10})
        bfgs = np.concatenate([np.exp(res.x[:2]), res.x[2:]])
        np.testing.assert_allclose(newton, bfgs, rtol=1e-6, atol=0)


def test_weibull_loglik_matches_direct_sum():
    # the closed form against the log likelihood summed gap by gap
    data = preset_cox_data("jm_g15_l010")
    lam, p, beta = 0.4, 1.2, np.array([0.7])
    cum = lam * data.gaps**p * np.exp(data.Z @ beta)
    log_hazard = np.log(lam * p * data.gaps ** (p - 1.0)) + data.Z @ beta
    direct = np.sum(np.where(data.events, log_hazard, 0.0) - cum)
    ll, _, _ = _weibull_loglik_grad_hess(data, np.array([np.log(lam), np.log(p), beta[0]]))
    assert ll == pytest.approx(direct, rel=1e-12)


def test_one_newton_loop_and_no_scipy_optimize():
    assert "scipy" not in vars(survfit)
    assert [k for k, v in vars(survfit).items() if callable(v) and "newton" in k.lower()] == ["_newton"]
