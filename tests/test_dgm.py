import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_records import subjects_of
from visitsim.dgm import (Family, ScenarioConfig, _child_keys, _subject_draws, _subject_rngs, draw_weibull_gap,
                          parse_scenario_text, simulate_panel)
from visitsim.errors import ConfigError


def weibull_cumulative_hazard(t, lam: float, p: float, linpred=0.0):
    return lam * np.asarray(t, dtype=float) ** p * np.exp(linpred)


def weibull_gap_cdf(t, lam: float, p: float, linpred=0.0):
    return 1.0 - np.exp(-weibull_cumulative_hazard(t, lam, p, linpred))


class TestDrawWeibullGap:
    def test_unit_case(self):
        # u01 = e^-1, lam = 1, p = 1, linpred = 0: cumulative hazard is t, -ln(u) = 1
        assert draw_weibull_gap(math.exp(-1.0), 1.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form(self):
        # direct formula evaluation oracle
        expected = (math.log(2.0) / 0.30) ** (1.0 / 1.05)
        assert draw_weibull_gap(0.5, 0.30, 1.05, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_cumhaz_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = float(rng.uniform(1e-9, 1 - 1e-9))
            lam = float(rng.uniform(0.01, 3.0))
            p = float(rng.uniform(0.3, 3.0))
            lin = float(rng.normal(0, 1.5))
            t = draw_weibull_gap(u, lam, p, lin)
            cumhaz = lam * t**p * math.exp(lin)
            assert abs(cumhaz + math.log(u)) < 1e-12 * max(1.0, abs(math.log(u)))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, math.nan, math.inf, -math.inf])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            draw_weibull_gap(bad, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            draw_weibull_gap(np.array([0.5, bad]), 1.0, 1.0, 0.0)

    def test_simulation_loop_gaps_equal_scalar_draws_bit_for_bit(self):
        # replay each subject's stream in the documented draw order, drawing every
        # gap with the public scalar function: the loop's visit times must be the
        # same bits (it forms lam * exp(linpred) and 1/p once and skips the checks)
        rng = np.random.default_rng(20240)
        n_gaps = 0
        for k in range(40):
            cfg = ScenarioConfig(family="joint_model", n_subjects=40,
                                 weibull_scale=float(np.exp(rng.uniform(np.log(0.05), np.log(1.0)))),
                                 weibull_shape=float(rng.uniform(0.5, 3.0)),
                                 beta=float(rng.normal(0.0, 1.0)), sigma_u2=float(rng.uniform(0.2, 2.0)))
            panel = simulate_panel(cfg, k)
            for s, sub_rng in zip(subjects_of(panel), _subject_rngs(k, cfg.n_subjects), strict=True):
                z = 1 if sub_rng.random() < 0.5 else 0
                u = sub_rng.normal(0.0, math.sqrt(cfg.sigma_u2))
                sub_rng.normal(0.0, math.sqrt(cfg.sigma_v2))
                c = sub_rng.uniform(cfg.censoring_lower, cfg.censoring_upper)
                times = [0.0]
                while True:
                    sub_rng.normal(0.0, math.sqrt(cfg.sigma_e2))  # outcome noise of the last visit
                    t = times[-1] + draw_weibull_gap(sub_rng.random(), cfg.weibull_scale,
                                                     cfg.weibull_shape, cfg.beta * z + u)
                    n_gaps += 1
                    if t >= c:
                        break
                    times.append(t)
                assert s.visit_times.tolist() == times
        assert n_gaps >= 10_000, n_gaps

    def test_ks_against_analytic_cdf(self):
        # simulated gaps with z=0, u=0 follow the analytic Weibull law
        rng = np.random.default_rng(123)
        u01 = rng.uniform(1e-12, 1.0, size=10**5)
        draws = draw_weibull_gap(u01, 0.3, 1.05, 0.0)
        stat = scipy.stats.kstest(draws, lambda t: weibull_gap_cdf(t, 0.3, 1.05)).pvalue
        assert stat > 0.01


class TestScenarioConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(family="joint_model", sigma_u2=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(family="joint_model", n_subjects=0)
        with pytest.raises(ConfigError):
            ScenarioConfig(family="gamma_treatment", regular_visits=True)

    def test_truths_by_family(self):
        jm = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5)
        assert jm.truths()["gamma"] == 1.5
        assert jm.truths()["lambda"] == 0.3
        gm = ScenarioConfig(family="gamma_treatment", psi=2.0)
        assert "gamma" not in gm.truths()
        assert gm.truths()["alpha1"] == 1.0


class TestConfigFile:
    def test_parse_and_truth_override(self):
        text = """
[scenario]
family = joint_model
weibull_scale = 0.30
gamma = 1.5
seed = 7
tag = demo

[truth]
alpha1 = 0.95
"""
        config, truths = parse_scenario_text(text)
        assert config.family is Family.JOINT_MODEL
        assert config.weibull_scale == 0.30
        assert config.seed == 7
        assert truths["alpha1"] == 0.95      # override
        assert truths["gamma"] == 1.5        # derived default kept

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_scenario_text("[scenario]\nfamily = joint_model\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            parse_scenario_text("[scenario]\nfamily = joint_model\n[extra]\nx = 1\n")

    def test_family_required(self):
        with pytest.raises(ConfigError, match="family"):
            parse_scenario_text("[scenario]\nn_subjects = 10\n")


class TestSimulateJointModel:
    def test_determinism_and_substreams(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=40, seed=5)
        a = simulate_panel(cfg, 5)
        b = simulate_panel(cfg, 5)
        assert a.gap_records == b.gap_records
        np.testing.assert_array_equal(a.y, b.y)
        c = simulate_panel(cfg, 6)
        assert np.any(a.counts != c.counts)

    def test_visits_inside_followup(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=1.0, gamma=1.5, n_subjects=50)
        panel = simulate_panel(cfg, 99)
        assert np.all(panel.t[panel.starts] == 0.0)
        assert np.all(panel.t[panel.starts + panel.counts - 1] < panel.censoring)
        assert np.all(np.isfinite(panel.y))

    def test_degenerate_noise_outcome_equals_v(self):
        # sigma_u2 -> 0, sigma_e2 -> 0, alphas = 0: y is the subject intercept v
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=2.0, n_subjects=20,
                             sigma_u2=1e-18, sigma_e2=1e-18, alpha0=0.0, alpha1=0.0, alpha2=0.0)
        panel = simulate_panel(cfg, 3)
        # each subject's v, replayed from its stream in the documented draw order
        v = [_subject_draws(rng, cfg)[2] for rng in _subject_rngs(3, cfg.n_subjects)]
        np.testing.assert_allclose(panel.y, np.repeat(v, panel.counts), atol=1e-6)

    def test_gamma_zero_no_count_outcome_correlation(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=0.0, n_subjects=200)
        rs = []
        for k in range(30):
            panel = simulate_panel(cfg, np.random.SeedSequence(17, spawn_key=(k,)))
            fixed = cfg.alpha0 + panel.z_rows * cfg.alpha1 + panel.t * cfg.alpha2
            resid = panel.group_sum(panel.y - fixed) / panel.counts
            rs.append(np.corrcoef(panel.counts, resid)[0, 1])
        mean_r = np.mean(rs)
        mcse = np.std(rs, ddof=1) / np.sqrt(len(rs))
        assert abs(mean_r) < 3 * mcse

    @pytest.mark.parametrize("gamma,sigma_e2", [(0.0, 4.0), (1.5, 1.0), (1.5, 4.0)])
    def test_outcome_parameters_leave_visit_process_unchanged(self, gamma, sigma_e2):
        # z, u, v and the visit times do not move with gamma or sigma_e2: the
        # premise of the zero-mean control variate in acceptance criterion 3.
        # u and v are not kept: C, drawn after them from the same stream, and the
        # visit times, which depend on u, stand in for them
        base = dict(family="joint_model", weibull_scale=0.3, n_subjects=60)
        # a fresh SeedSequence per call: spawning children advances its counter
        ref = simulate_panel(ScenarioConfig(**base, gamma=0.0, sigma_e2=1.0),
                             np.random.SeedSequence(8, spawn_key=(3,)))
        other = simulate_panel(ScenarioConfig(**base, gamma=gamma, sigma_e2=sigma_e2),
                               np.random.SeedSequence(8, spawn_key=(3,)))
        for name in ("ids", "z", "censoring", "counts", "t"):
            np.testing.assert_array_equal(getattr(ref, name), getattr(other, name), err_msg=name)

    def test_regular_visits_are_scheduled(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.05, gamma=3.0,
                             regular_visits=True, n_subjects=100)
        panel = simulate_panel(cfg, 12)
        gaps = np.array([g.gap for g in panel.gap_records if g.observed])
        assert np.median(gaps) == pytest.approx(1.0)
        assert gaps.max() <= 1.0 + 1e-9
        # every integer year < C is visited
        for s in subjects_of(panel)[:20]:
            expected = np.arange(1.0, math.floor(s.censoring_time) + 0.5)
            expected = expected[expected < s.censoring_time]
            present = [t for t in s.visit_times if abs(t - round(t)) < 1e-9 and t > 0]
            assert len(present) == len(expected)

    def test_regular_additive_mode_keeps_process_clock(self):
        base = dict(family="joint_model", weibull_scale=0.05, gamma=3.0,
                    regular_visits=True, n_subjects=150)
        reset = simulate_panel(ScenarioConfig(**base, regular_resets_process=True), 4)
        additive = simulate_panel(ScenarioConfig(**base, regular_resets_process=False), 4)
        assert reset.n_rows != additive.n_rows  # the switch is live

    def test_gap_that_does_not_advance_the_clock_ends_the_subject(self):
        # a large visit intensity and a small shape draw gaps that round to zero
        # against the current visit time; the subject's visits end there
        cfg = ScenarioConfig(family="joint_model", n_subjects=200, weibull_scale=5.0,
                             weibull_shape=0.3, sigma_u2=4.0)
        panel = simulate_panel(cfg, 0)
        assert panel.n_subjects == 200
        assert np.all(panel.gaps > 0.0)


class TestSimulateGammaProcess:
    def test_gamma_mean_matches_shape_scale(self):
        # omega = 0, xi = 0 forced, z = 0: gaps are iid Gamma(2, 1), mean 2
        rng = np.random.default_rng(2)
        draws = rng.gamma(2.0, 1.0, size=10**6)
        assert draws.mean() == pytest.approx(2.0, abs=0.01)

    @pytest.mark.parametrize("family", ["gamma_treatment", "gamma_treatment_lagged_y"])
    def test_gap_that_does_not_advance_the_clock_ends_the_subject(self, family):
        # a shape of 0.02 draws gaps that round away against the current visit time;
        # the subject's visits end there instead of repeating a visit time
        cfg = ScenarioConfig(family=family, gamma_shape=0.02, n_subjects=50)
        for seed in range(20):
            panel = simulate_panel(cfg, seed)
            assert panel.n_subjects == 50
            assert np.all(panel.gaps > 0.0)

    def test_lagged_scale_shortens_gaps_for_low_outcomes(self):
        cfg = ScenarioConfig(family="gamma_treatment_lagged_y", psi=2.0, omega=0.2, n_subjects=400)
        panel = simulate_panel(cfg, 21)
        # positive omega: larger previous outcome -> larger scale -> longer gaps
        prev_y, gap = [], []
        for s in subjects_of(panel):
            if s.z == 1 or len(s.visit_times) < 2:
                continue
            for j in range(len(s.visit_times) - 1):
                prev_y.append(s.outcomes[j])
                gap.append(s.visit_times[j + 1] - s.visit_times[j])
        r = np.corrcoef(prev_y, np.log(gap))[0, 1]
        assert r > 0.1


class TestSeedSequences:
    def test_reused_seed_sequence_gives_the_same_panel(self):
        cfg = ScenarioConfig(family="joint_model", weibull_scale=0.3, gamma=1.5, n_subjects=5)
        seed = np.random.SeedSequence(8)
        first, second = simulate_panel(cfg, seed), simulate_panel(cfg, seed)
        np.testing.assert_array_equal(first.t, second.t)
        np.testing.assert_array_equal(first.y, second.y)

    def test_subject_streams_equal_spawn_of_a_fresh_sequence(self):
        # the study harness's per-replication substreams are unchanged by not spawning
        ours = [rng.random(4) for rng in _subject_rngs(np.random.SeedSequence(8, spawn_key=(3,)), 6)]
        spawned = [np.random.Generator(np.random.Philox(child)).random(4)
                   for child in np.random.SeedSequence(8, spawn_key=(3,)).spawn(6)]
        np.testing.assert_array_equal(ours, spawned)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(entropy=st.one_of(st.integers(0, 2**256), st.lists(st.integers(0, 2**64), max_size=12)),
           spawn_key=st.lists(st.integers(0, 2**64), max_size=4).map(tuple),
           pool_size=st.integers(4, 8), n=st.integers(1, 300))
    def test_child_keys_equal_seed_sequence_bit_for_bit(self, entropy, spawn_key, pool_size, n):
        # the vectorised key pass against numpy's own SeedSequence, child by child
        seed = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        expected = [np.random.SeedSequence(entropy, spawn_key=spawn_key + (i,), pool_size=pool_size)
                    .generate_state(2, np.uint64) for i in range(n)]
        keys = _child_keys(seed, n)
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, expected)


class TestDispatch:
    @pytest.mark.parametrize("family", ["joint_model", "gamma_treatment", "gamma_treatment_lagged_y"])
    def test_simulate_panel(self, family):
        psi = 2.0 if family != "joint_model" else 0.0
        cfg = ScenarioConfig(family=family, psi=psi, n_subjects=15)
        panel = simulate_panel(cfg, 9)
        assert panel.n_subjects == 15
