import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visitsim.domain import (FitResult, PanelDataset, Subject, build_panel, read_panel_csv,
                             write_atomic, write_panel_csv)
from visitsim.errors import ValidationError


def make_subject(sid=1, z=0, c=5.0, times=(0.0, 1.5, 3.0), ys=None):
    times = np.asarray(times, dtype=float)
    ys = np.zeros_like(times) if ys is None else ys
    return Subject(sid, z, c, times, ys)


def panel_with(bad):
    """A panel of one valid subject followed by ``bad``, which the panel must reject."""
    return build_panel([make_subject(sid=0), bad])


class TestSubject:
    def test_valid(self):
        s = make_subject()
        assert s.n_visits == 3
        assert not s.visit_times.flags.writeable

    def test_first_visit_not_zero(self):
        with pytest.raises(ValidationError, match="subject 1"):
            panel_with(make_subject(times=(0.5, 1.0)))

    def test_non_monotone(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            panel_with(make_subject(times=(0.0, 2.0, 2.0)))

    def test_non_finite_visit_time(self):
        with pytest.raises(ValidationError, match="finite"):
            panel_with(make_subject(times=(0.0, np.nan)))

    def test_visit_at_censoring(self):
        with pytest.raises(ValidationError, match="censoring"):
            panel_with(make_subject(c=3.0, times=(0.0, 3.0)))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            panel_with(Subject(1, 0, 5.0, [0.0, 1.0], [0.0]))

    def test_bad_treatment(self):
        with pytest.raises(ValidationError, match="treatment"):
            panel_with(make_subject(z=2))

    @pytest.mark.parametrize("times", [0.0, [[0.0, 1.0]]], ids=["0-d", "2-d"])
    def test_visit_times_not_one_dimensional(self, times):
        with pytest.raises(ValidationError, match="subject 1: visit_times and outcomes must be 1-d"):
            panel_with(Subject(1, 0, 5.0, times, np.zeros_like(times)))


def subject_rule_message(s: Subject) -> str | None:
    """The error of the first per-subject rule ``s`` breaks, with the rules in the order and
    wording that ``Subject`` used when it checked itself; None if ``s`` breaks none."""
    t, y = s.visit_times, s.outcomes
    if s.z not in (0, 1):
        return f"subject {s.id}: treatment z must be 0 or 1, got {s.z}"
    if not np.isfinite(s.censoring_time) or s.censoring_time <= 0:
        return f"subject {s.id}: censoring time must be a positive real"
    if t.ndim != 1 or y.ndim != 1 or len(t) != len(y):
        return f"subject {s.id}: visit_times and outcomes must be 1-d and equal length"
    if len(t) == 0:
        return f"subject {s.id}: needs at least the baseline visit"
    if t[0] != 0.0:
        return f"subject {s.id}: first visit must be at t = 0, got {t[0]}"
    if not np.all(np.diff(t) > 0):
        return f"subject {s.id}: visit times must be finite and strictly increasing"
    if t[-1] >= s.censoring_time:
        return f"subject {s.id}: visit at t = {t[-1]} is not before censoring time {s.censoring_time}"
    if not np.all(np.isfinite(y)):
        return f"subject {s.id}: outcomes must be finite"
    return None


BREAKS = ("t0", "repeat", "nan_time", "last_at_c", "bad_z", "y_inf", "c_nonpos", "c_inf", "no_visits",
          "lengths", "not_1d", "repeat_id")


@st.composite
def subjects_with_breaks(draw):
    """1-6 subjects, up to two of them broken by construction, each in one way."""
    n = draw(st.integers(1, 6))
    broken = dict(draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(BREAKS)), max_size=2)))
    subjects = []
    for sid in range(n):
        kind = broken.get(sid, "valid")
        incs = draw(st.lists(st.floats(0.01, 1.0), min_size=0, max_size=4))
        t = np.concatenate([[0.0], np.cumsum(incs)])
        c = float(t[-1]) + draw(st.floats(0.01, 3.0))
        z = draw(st.sampled_from([0, 1]))
        y = np.array(draw(st.lists(st.floats(-5, 5), min_size=len(t), max_size=len(t))))
        j = draw(st.integers(0, len(t) - 1))
        if kind == "t0":
            t = t + draw(st.sampled_from([-0.5, 0.5]))
        elif kind == "repeat":
            t, y = np.insert(t, j, t[j]), np.insert(y, j, 0.0)
        elif kind == "nan_time":
            t[j] = np.nan
        elif kind == "last_at_c":
            t, y = np.append(t, t[-1] + 0.5), np.append(y, 0.0)
            c = float(t[-1])
        elif kind == "bad_z":
            z = draw(st.sampled_from([2, -1, 0.5]))
        elif kind == "y_inf":
            y[j] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        elif kind == "c_nonpos":
            c = draw(st.sampled_from([0.0, -1.0, np.nan]))
        elif kind == "c_inf":
            c = np.inf
        elif kind == "no_visits":
            t, y = t[:0], y[:0]
        elif kind == "lengths":
            y = np.append(y, 0.0)
        elif kind == "not_1d":
            t, y = t[None, :], y[None, :]
        elif kind == "repeat_id" and subjects:
            sid = draw(st.sampled_from([s.id for s in subjects]))
        subjects.append(Subject(sid, z, c, t, y))
    return subjects


class TestPanelRules:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(subjects_with_breaks())
    def test_panel_rejects_what_the_subject_rules_reject(self, subjects):
        # the panel checks one rule at a time over all subjects, so the subject it names
        # breaks no earlier rule: its error is the one that subject's own check gave
        broken = [m for m in map(subject_rule_message, subjects) if m is not None]
        ids = [s.id for s in subjects]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if not broken and not repeated:
            assert build_panel(subjects).n_subjects == len(subjects)
            return
        with pytest.raises(ValidationError) as info:
            build_panel(subjects)
        if broken:
            assert str(info.value) in broken
        else:
            assert str(info.value) == f"subject id {repeated[0]} appears more than once"


class TestBuildPanel:
    def test_gap_arithmetic(self):
        # visits {0, 1.5, 3.0}, C = 5 -> gaps {1.5 obs, 1.5 obs, 2.0 censored}
        panel = build_panel([make_subject()])
        gaps = [(g.index, g.gap, g.observed) for g in panel.gap_records]
        assert gaps == [(1, 1.5, True), (2, 1.5, True), (3, 2.0, False)]

    def test_baseline_only_subject(self):
        # visits {0}, C = 7 -> single censored gap of 7
        panel = build_panel([make_subject(c=7.0, times=(0.0,))])
        (g,) = panel.gap_records
        assert (g.index, g.gap, g.observed) == (1, 7.0, False)

    def test_gap_counts_per_subject(self):
        rng = np.random.default_rng(4)
        subjects = []
        for i in range(25):
            n = int(rng.integers(1, 8))
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 4.9, n - 1))])
            subjects.append(make_subject(sid=i, times=t, ys=rng.normal(size=n)))
        panel = build_panel(subjects)
        for s in panel.subjects:
            recs = [g for g in panel.gap_records if g.subject_id == s.id]
            assert sum(g.observed for g in recs) == s.n_visits - 1
            assert sum(not g.observed for g in recs) == 1
            assert abs(sum(g.gap for g in recs) - s.censoring_time) < 1e-10

    def test_order_preserving(self):
        subjects = [make_subject(sid=i, times=(0.0, 0.5 + i * 0.1)) for i in range(5)]
        panel = build_panel(subjects)
        permuted = build_panel(subjects[::-1])
        assert [s.id for s in permuted.subjects] == [s.id for s in panel.subjects][::-1]
        fwd = {(g.subject_id, g.index): g for g in panel.gap_records}
        rev = {(g.subject_id, g.index): g for g in permuted.gap_records}
        assert fwd == rev

    def test_idempotent(self):
        subjects = [make_subject()]
        assert build_panel(subjects).gap_records == build_panel(subjects).gap_records

    def test_empty_panel_rejected(self):
        with pytest.raises(ValidationError):
            PanelDataset(tuple())

    def test_duplicate_subject_id_rejected(self):
        subjects = [make_subject(sid=1, z=0), make_subject(sid=2), make_subject(sid=1, z=1),
                    make_subject(sid=3)]
        with pytest.raises(ValidationError, match="subject id 1 appears more than once"):
            build_panel(subjects)


class TestPanelCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        subjects = []
        for i in range(10):
            n = int(rng.integers(1, 6))
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 4.9, n - 1))])
            subjects.append(Subject(i + 1, int(rng.integers(0, 2)), float(rng.uniform(5, 10)),
                                    t, rng.normal(size=n)))
        panel = build_panel(subjects, "roundtrip")
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path, "roundtrip")
        assert back.n_subjects == panel.n_subjects
        for a, b in zip(panel.subjects, back.subjects):
            assert a.id == b.id and a.z == b.z
            assert a.censoring_time == b.censoring_time
            np.testing.assert_array_equal(a.visit_times, b.visit_times)
            np.testing.assert_array_equal(a.outcomes, b.outcomes)
        assert (tmp_path / "panel.csv").read_text().splitlines()[0] == \
            "subject_id,z,censoring_time,visit_time,y"

    def test_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,z,c,t,y\n1,0,5.0,0.0,0.1\n")
        with pytest.raises(ValidationError, match="header"):
            read_panel_csv(path)

    def test_inconsistent_subject_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_id,z,censoring_time,visit_time,y\n"
                        "1,0,5.0,0.0,0.1\n1,1,5.0,1.0,0.2\n")
        with pytest.raises(ValidationError, match="inconsistent"):
            read_panel_csv(path)


class TestWriteAtomic:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_atomic(tmp_path / "out.txt", "x\n")
            (tmp_path / "plain.txt").write_text("x\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == mode
        assert (tmp_path / "out.txt").read_text() == "x\n"


class TestRowArrays:
    def test_shapes_and_starts(self):
        # subject 7: z = 1, visits {0, 1.5, 3.0}, C = 5; subject 2: z = 0, visit {0}, C = 4
        panel = build_panel([make_subject(sid=7, z=1, ys=np.array([0.1, 0.2, 0.3])),
                             make_subject(sid=2, c=4.0, times=(0.0,), ys=np.array([0.4]))])
        assert list(panel.ids) == [7, 2]
        assert list(panel.z) == [1.0, 0.0]
        assert list(panel.counts) == [3, 1]
        assert list(panel.starts) == [0, 3]
        assert panel.n_rows == 4
        assert list(panel.t) == [0.0, 1.5, 3.0, 0.0]
        assert list(panel.y) == [0.1, 0.2, 0.3, 0.4]
        assert list(panel.z_rows) == [1.0, 1.0, 1.0, 0.0]
        # gaps 1.5 and 1.5 observed, 2.0 censored; subject 2's only gap is censored at 4.0
        assert list(panel.gaps) == [1.5, 1.5, 2.0, 4.0]
        assert list(panel.observed) == [True, True, False, False]
        assert not panel.gaps.flags.writeable


class TestFitResult:
    def test_json_roundtrip(self, tmp_path):
        fr = FitResult("D", ("alpha0", "alpha1"), np.array([1.0, 2.0]), np.array([0.1, 0.2]),
                       loglik=-12.5, converged=True, iterations=7)
        path = tmp_path / "fit.json"
        fr.write_json(path)
        import json

        data = json.loads(path.read_text())
        assert data["model"] == "D"
        assert data["params"]["alpha1"] == {"est": 2.0, "se": 0.2}
        back = FitResult.from_json_dict(data)
        assert back.param_names == fr.param_names
        np.testing.assert_array_equal(back.estimates, fr.estimates)

    def test_negative_se_rejected_when_converged(self):
        with pytest.raises(ValidationError):
            FitResult("D", ("a",), np.array([1.0]), np.array([-0.1]),
                      loglik=None, converged=True, iterations=1)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            FitResult("D", ("a",), np.array([1.0, 2.0]), np.array([0.1]),
                      loglik=None, converged=False, iterations=1)
