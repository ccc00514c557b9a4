import numpy as np
import pytest

from visitsim.domain import (FitResult, PanelDataset, Subject, build_panel, read_panel_csv,
                             write_panel_csv)
from visitsim.errors import ValidationError


def make_subject(sid=1, z=0, c=5.0, times=(0.0, 1.5, 3.0), ys=None):
    times = np.asarray(times, dtype=float)
    ys = np.zeros_like(times) if ys is None else ys
    return Subject(sid, z, c, times, ys)


class TestSubject:
    def test_valid(self):
        s = make_subject()
        assert s.n_visits == 3
        assert not s.visit_times.flags.writeable

    def test_first_visit_not_zero(self):
        with pytest.raises(ValidationError, match="subject 1"):
            make_subject(times=(0.5, 1.0))

    def test_non_monotone(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            make_subject(times=(0.0, 2.0, 2.0))

    def test_non_finite_visit_time(self):
        with pytest.raises(ValidationError, match="finite"):
            make_subject(times=(0.0, np.nan))

    def test_visit_at_censoring(self):
        with pytest.raises(ValidationError, match="censoring"):
            make_subject(c=3.0, times=(0.0, 3.0))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Subject(1, 0, 5.0, [0.0, 1.0], [0.0])

    def test_bad_treatment(self):
        with pytest.raises(ValidationError, match="treatment"):
            make_subject(z=2)


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
