import numpy as np
import pytest

from panel_records import Record, panel_of, subjects_of
from visitsim.dgm import ScenarioConfig, simulate_panel
from visitsim.errors import EstimationError, ValidationError
from visitsim.iivw import compute_iiv_weights, fit_iivw, fit_wgee
from visitsim.survfit import CoxFit, _CoxData, fit_andersen_gill


def toy_coxfit(eta, converged=True):
    return CoxFit(np.atleast_1d(np.asarray(eta, dtype=float)), 0.0, converged, 1, 1)


def simple_panel():
    return panel_of([
        Record(1, 1, 5.0, [0.0, 1.0, 2.0], [0.1, 0.2, 0.3]),
        Record(2, 0, 6.0, [0.0, 2.0], [0.4, 0.5]),
        Record(3, 1, 6.0, [0.0], [0.6]),
    ])


class TestComputeWeights:
    def test_normalization_mean_one(self):
        # raw weights {2, 1, 0.5} -> normalized {1.8333, 0.8333, 0.3333}
        raw = np.array([2.0, 1.0, 0.5])
        normalized = raw - raw.mean() + 1.0
        np.testing.assert_allclose(normalized, [1.8333, 0.8333, 0.3333], atol=5e-5)
        assert normalized.mean() == pytest.approx(1.0, abs=1e-10)

    def test_null_weight_model_gives_unit_weights(self):
        panel = simple_panel()
        weights = compute_iiv_weights(toy_coxfit([0.0]), panel)
        assert weights.shape == (panel.n_rows,)
        assert np.all(weights == 1.0)

    def test_first_visit_weight_one_and_shift(self):
        panel = simple_panel()
        weights = compute_iiv_weights(toy_coxfit([0.5]), panel)
        raw_t = np.exp(-0.5)
        mean_raw = (raw_t * 3 + 1.0 * 2 + raw_t * 1) / 6.0
        # rows in panel order: subject 1 (z=1) x3, subject 2 (z=0) x2, subject 3 (z=1) x1
        expect = [1.0, raw_t - mean_raw + 1.0, raw_t - mean_raw + 1.0,
                  1.0, 1.0 - mean_raw + 1.0,
                  1.0]
        np.testing.assert_allclose(weights, expect, rtol=0, atol=1e-12)

    def test_mean_one_before_shift_on_simulated_panel(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=60)
        panel = simulate_panel(cfg, 3)
        ag = fit_andersen_gill(_CoxData.from_panel(panel))
        compute_iiv_weights(ag, panel)
        values = np.repeat(np.exp(-panel.z * ag.eta[0]), panel.counts)
        normalized = np.asarray(values) - np.mean(values) + 1.0
        assert normalized.mean() == pytest.approx(1.0, abs=1e-10)

    def test_requires_converged_weight_model(self):
        with pytest.raises(EstimationError):
            compute_iiv_weights(toy_coxfit([0.5], converged=False), simple_panel())

    def test_determinism(self):
        panel = simple_panel()
        a = compute_iiv_weights(toy_coxfit([0.3]), panel)
        b = compute_iiv_weights(toy_coxfit([0.3]), panel)
        np.testing.assert_array_equal(a, b)


class TestWgee:
    def test_unit_weights_equal_ols(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=50)
        panel = simulate_panel(cfg, 5)
        fit = fit_wgee(panel, np.ones(panel.n_rows))
        subjects = subjects_of(panel)
        y = np.concatenate([s.outcomes for s in subjects])
        X = np.vstack([np.column_stack([np.ones_like(s.visit_times), np.full_like(s.visit_times, s.z),
                                        s.visit_times]) for s in subjects])
        ols = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.estimates, ols, atol=1e-10)
        assert fit.loglik is None
        assert fit.model_label == "E"

    def test_weight_rescaling_leaves_estimates(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=50)
        panel = simulate_panel(cfg, 6)
        weights = compute_iiv_weights(fit_andersen_gill(_CoxData.from_panel(panel)), panel)
        a = fit_wgee(panel, weights)
        b = fit_wgee(panel, 0.5 * weights)
        np.testing.assert_allclose(a.estimates, b.estimates, atol=1e-12)

    def test_missing_weight_rejected(self):
        # simple_panel has 6 rows: too few, too many and a column all fail
        panel = simple_panel()
        for shape in [(1,), (5,), (7,), (6, 1)]:
            with pytest.raises(ValidationError, match="one weight per panel row"):
                fit_wgee(panel, np.ones(shape))

    def test_two_stage_pipeline(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=100)
        panel = simulate_panel(cfg, 9)
        fit = fit_iivw(panel)
        assert fit.converged
        assert fit.param_names == ("alpha0", "alpha1", "alpha2")
        assert np.all(fit.std_errors > 0)
