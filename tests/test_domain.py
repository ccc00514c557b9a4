import os
import stat
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panel_records import Record, columns_of, panel_of
from visitsim.domain import FitResult, PanelDataset, build_panel, read_panel_csv, write_atomic, write_panel_csv
from visitsim.errors import ValidationError


def make_subject(sid=1, z=0, c=5.0, times=(0.0, 1.5, 3.0), ys=None):
    times = np.asarray(times, dtype=float)
    ys = np.zeros_like(times) if ys is None else ys
    return Record(sid, z, c, times, ys)


def panel_with(bad):
    """A panel of one valid subject followed by ``bad``, which the panel must reject."""
    return panel_of([make_subject(sid=0), bad])


class TestSubject:
    def test_valid(self):
        columns = [np.array([1]), np.array([0]), np.array([5.0]), np.array([3]),
                   np.array([0.0, 1.5, 3.0]), np.array([0.1, 0.2, 0.3])]
        panel = build_panel(*columns)
        assert panel.counts.tolist() == [3]
        assert not any(getattr(panel, f.name).flags.writeable for f in fields(PanelDataset))
        # the panel holds copies: changing the inputs afterwards leaves it as built
        for column in columns:
            column[0] = 2
        assert (panel.ids.tolist(), panel.z.tolist(), panel.censoring.tolist(), panel.counts.tolist()) == \
            ([1], [0.0], [5.0], [3])
        assert panel.t.tolist() == [0.0, 1.5, 3.0]
        assert panel.y.tolist() == [0.1, 0.2, 0.3]

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
        # one outcome short: the y column has one entry fewer than counts.sum()
        with pytest.raises(ValidationError, match=r"t and y must be 1-d with counts.sum\(\) = 5 entries"):
            panel_with(Record(1, 0, 5.0, [0.0, 1.0], [0.0]))

    def test_counts_disagree_with_visit_rows(self):
        with pytest.raises(ValidationError, match=r"t and y must be 1-d with counts.sum\(\) = 3 entries"):
            build_panel([1], [0], [5.0], [3], [0.0, 1.0], [0.0, 0.0])

    def test_bad_treatment(self):
        with pytest.raises(ValidationError, match="treatment"):
            panel_with(make_subject(z=2))

    @pytest.mark.parametrize("times", [0.0, [[0.0, 1.0]]], ids=["0-d", "2-d"])
    def test_visit_times_not_one_dimensional(self, times):
        with pytest.raises(ValidationError, match="t and y must be 1-d"):
            build_panel([1], [0], [5.0], [2], times, [0.0, 0.0])


def subject_rule_message(s: Record) -> str | None:
    """The error of the first per-subject rule ``s`` breaks, one subject at a time, with the
    rules in ``build_panel``'s order and wording; None if ``s`` breaks none."""
    t, y = s.visit_times, s.outcomes
    if s.z not in (0, 1):
        return f"subject {s.id}: treatment z must be 0 or 1, got {s.z}"
    if not np.isfinite(s.censoring_time) or s.censoring_time <= 0:
        return f"subject {s.id}: censoring time must be a positive real"
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
          "lengths", "repeat_id")
# the columns in build_panel's order; the first four hold one entry per subject
COLUMNS = ("ids", "z", "censoring", "counts", "t", "y")


@st.composite
def subjects_with_breaks(draw):
    """1-6 subjects, up to two of them broken by construction, each in one way, and
    maybe one column given one entry too many ("lengths") or a leading axis ("not_1d")."""
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
        elif kind == "repeat_id" and subjects:
            sid = draw(st.sampled_from([s.id for s in subjects]))
        subjects.append(Record(sid, z, c, t, y))
    column_break = draw(st.none() | st.tuples(st.sampled_from(["lengths", "not_1d"]),
                                              st.sampled_from(COLUMNS)))
    return subjects, column_break


class TestPanelRules:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(subjects_with_breaks())
    def test_panel_rejects_what_the_subject_rules_reject(self, case):
        # the column shapes are checked first; then the panel checks one rule at a time over
        # all subjects, so the subject it names breaks no earlier rule: its error is the one
        # that subject's own check gave
        subjects, column_break = case
        columns = dict(zip(COLUMNS, columns_of(subjects)))
        if column_break is not None:
            kind, name = column_break
            col = np.asarray(columns[name])
            columns[name] = np.append(col, 0) if kind == "lengths" else col[None]
        total = sum(len(s.visit_times) for s in subjects)
        if column_break is not None and column_break[1] in COLUMNS[:4]:
            shape_error = "ids, z, censoring and counts must be 1-d and of equal length"
        elif column_break is not None or any(len(s.outcomes) != len(s.visit_times) for s in subjects):
            shape_error = f"t and y must be 1-d with counts.sum() = {total} entries"
        else:
            shape_error = None
        broken = [m for m in map(subject_rule_message, subjects) if m is not None]
        ids = [s.id for s in subjects]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if not shape_error and not broken and not repeated:
            assert build_panel(*columns.values()).n_subjects == len(subjects)
            return
        with pytest.raises(ValidationError) as info:
            build_panel(*columns.values())
        if shape_error:
            assert str(info.value) == shape_error
        elif broken:
            assert str(info.value) in broken
        else:
            assert str(info.value) == f"subject id {repeated[0]} appears more than once"


class TestBuildPanel:
    def test_gap_arithmetic(self):
        # visits {0, 1.5, 3.0}, C = 5 -> gaps {1.5 obs, 1.5 obs, 2.0 censored}
        panel = panel_of([make_subject()])
        gaps = [(g.index, g.gap, g.observed) for g in panel.gap_records]
        assert gaps == [(1, 1.5, True), (2, 1.5, True), (3, 2.0, False)]

    def test_baseline_only_subject(self):
        # visits {0}, C = 7 -> single censored gap of 7
        panel = panel_of([make_subject(c=7.0, times=(0.0,))])
        (g,) = panel.gap_records
        assert (g.index, g.gap, g.observed) == (1, 7.0, False)

    def test_gap_counts_per_subject(self):
        rng = np.random.default_rng(4)
        subjects = []
        for i in range(25):
            n = int(rng.integers(1, 8))
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 4.9, n - 1))])
            subjects.append(make_subject(sid=i, times=t, ys=rng.normal(size=n)))
        panel = panel_of(subjects)
        for sid, n, c in zip(panel.ids, panel.counts, panel.censoring):
            recs = [g for g in panel.gap_records if g.subject_id == sid]
            assert sum(g.observed for g in recs) == n - 1
            assert sum(not g.observed for g in recs) == 1
            assert abs(sum(g.gap for g in recs) - c) < 1e-10

    def test_order_preserving(self):
        subjects = [make_subject(sid=i, times=(0.0, 0.5 + i * 0.1)) for i in range(5)]
        panel = panel_of(subjects)
        permuted = panel_of(subjects[::-1])
        assert permuted.ids.tolist() == panel.ids.tolist()[::-1]
        fwd = {(g.subject_id, g.index): g for g in panel.gap_records}
        rev = {(g.subject_id, g.index): g for g in permuted.gap_records}
        assert fwd == rev

    def test_idempotent(self):
        subjects = [make_subject()]
        assert panel_of(subjects).gap_records == panel_of(subjects).gap_records

    def test_empty_panel_rejected(self):
        with pytest.raises(ValidationError, match="at least one subject"):
            build_panel([], [], [], [], [], [])

    def test_non_whole_ids_and_counts_rejected(self):
        # neither is truncated to an integer: 1.7 would become 1
        columns = dict(z=[0, 1], censoring=[5.0, 6.0], t=[0.0, 0.0], y=[0.1, 0.2])
        with pytest.raises(ValidationError, match=r"^subject 1.2: id must be a whole number, got 1.2$"):
            build_panel(ids=[1.2, 1.7], counts=[1, 1], **columns)
        with pytest.raises(ValidationError, match=r"^subject 1: visit count must be a whole number, got 1.9$"):
            build_panel(ids=[1, 2], counts=[1.9, 1], **columns)
        with pytest.raises(ValidationError, match=r"^subject 1.2: id must be a whole number"):
            build_panel(ids=[1.2, 1.7], counts=[1.9, 1], **columns)
        assert list(build_panel(ids=[1.0, 2.0], counts=[1.0, 1], **columns).ids) == [1, 2]

    def test_duplicate_subject_id_rejected(self):
        subjects = [make_subject(sid=1, z=0), make_subject(sid=2), make_subject(sid=1, z=1),
                    make_subject(sid=3)]
        with pytest.raises(ValidationError, match="subject id 1 appears more than once"):
            panel_of(subjects)


class TestPanelCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        subjects = []
        for i in range(10):
            n = int(rng.integers(1, 6))
            t = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 4.9, n - 1))])
            subjects.append(Record(i + 1, int(rng.integers(0, 2)), float(rng.uniform(5, 10)),
                                   t, rng.normal(size=n)))
        panel = panel_of(subjects)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        for f in fields(PanelDataset):
            np.testing.assert_array_equal(getattr(back, f.name), getattr(panel, f.name), err_msg=f.name)
        assert (tmp_path / "panel.csv").read_text().splitlines()[0] == \
            "subject_id,z,censoring_time,visit_time,y"

    def test_rows_of_a_subject_need_not_be_contiguous(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("subject_id,z,censoring_time,visit_time,y\n"
                        "7,1,5.0,0.0,0.1\n2,0,4.0,0.0,0.4\n7,1,5.0,1.5,0.2\n"
                        "2,0,4.0,2.0,0.5\n7,1,5.0,3.0,0.3\n")
        panel = read_panel_csv(path)
        # subjects in the order of their first row, each subject's rows in file order
        assert panel.ids.tolist() == [7, 2]
        assert panel.counts.tolist() == [3, 2]
        assert panel.censoring.tolist() == [5.0, 4.0]
        assert panel.t.tolist() == [0.0, 1.5, 3.0, 0.0, 2.0]
        assert panel.y.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5]

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
        panel = build_panel([7, 2], [1, 0], [5.0, 4.0], [3, 1], [0.0, 1.5, 3.0, 0.0], [0.1, 0.2, 0.3, 0.4])
        assert list(panel.ids) == [7, 2]
        assert list(panel.z) == [1.0, 0.0]
        assert list(panel.censoring) == [5.0, 4.0]
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


class TestDerived:
    def test_made_once_and_shared(self):
        panel = panel_of([make_subject(sid=1), make_subject(sid=2, z=1)])
        calls = []

        def make(p, scale):
            calls.append(scale)
            return p.gaps * scale

        first = panel.derived(make, 2.0)
        assert panel.derived(make, 2.0) is first
        assert panel.derived(make, 3.0) is not first
        assert calls == [2.0, 3.0]
        assert panel_of([make_subject(sid=1)]).derived(make, 2.0) is not first

    def test_a_make_that_raises_is_called_again(self):
        panel = panel_of([make_subject()])
        calls = []

        def make(p):
            calls.append(p)
            if len(calls) == 1:
                raise ValidationError("first request fails")
            return len(calls)

        with pytest.raises(ValidationError, match="first request fails"):
            panel.derived(make)
        assert panel.derived(make) == 2
        assert panel.derived(make) == 2
        assert len(calls) == 2

    def test_fields_are_the_ten_arrays(self):
        panel = panel_of([make_subject()])
        panel.derived(lambda p: p.n_rows)
        assert [f.name for f in fields(PanelDataset)] == ["ids", "z", "censoring", "counts", "starts", "t", "y",
                                                           "z_rows", "gaps", "observed"]


class TestFitResult:
    def test_json_roundtrip(self, tmp_path):
        fr = FitResult("D", ("alpha0", "alpha1"), np.array([1.0, 2.0]), np.array([0.1, 0.2]),
                       loglik=-12.5, converged=True, iterations=7)
        path = tmp_path / "fit.json"
        fr.write_json(path)
        import json

        data = json.loads(path.read_text())
        assert data["model"] == "D"
        assert data["params"] == {"alpha0": {"est": 1.0, "se": 0.1}, "alpha1": {"est": 2.0, "se": 0.2}}
        assert (data["loglik"], data["converged"], data["iterations"]) == (-12.5, True, 7)

    def test_negative_se_rejected_when_converged(self):
        with pytest.raises(ValidationError):
            FitResult("D", ("a",), np.array([1.0]), np.array([-0.1]),
                      loglik=None, converged=True, iterations=1)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            FitResult("D", ("a",), np.array([1.0, 2.0]), np.array([0.1]),
                      loglik=None, converged=False, iterations=1)
