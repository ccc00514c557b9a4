"""Core data types: subjects, panel datasets, gap records, and fit results.

A panel is a collection of subjects, each observed at irregular visit times
starting with a mandatory baseline visit at t = 0 and administratively
censored at a subject-specific time C.  Gaps are the renewal-scale
representation of the visit process: the waiting times between consecutive
visits, plus one final censored gap running from the last visit to C.  A
panel stacks its subjects' visits and gaps once into flat arrays that every
estimator reads, and checks the subjects on those arrays.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PANEL_CSV_COLUMNS = ("subject_id", "z", "censoring_time", "visit_time", "y")

MODEL_LABELS = ("A", "B", "C", "D", "E")


def _readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Subject:
    """One study individual: treatment arm, censoring time, visits and outcomes.

    A plain record: the ``PanelDataset`` it is built into checks it.  There
    the visits start at exactly 0.0 (the baseline observation every
    individual has), increase strictly, and stay strictly below the censoring
    time.  ``true_u``/``true_v`` carry the simulated random effects for
    bookkeeping; they play no role in estimation.
    """

    id: int
    z: int
    censoring_time: float
    visit_times: np.ndarray
    outcomes: np.ndarray
    true_u: float | None = None
    true_v: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "visit_times", _readonly(self.visit_times))
        object.__setattr__(self, "outcomes", _readonly(self.outcomes))

    @property
    def n_visits(self) -> int:
        return len(self.visit_times)


@dataclass(frozen=True)
class GapRecord:
    """One waiting time of the visit process on the renewal scale.

    ``index`` counts gaps within a subject starting at 1.  ``observed`` is
    True for gaps ending in a visit and False for the single final gap per
    subject that runs from the last visit to the censoring time.
    """

    subject_id: int
    index: int
    gap: float
    observed: bool
    covariates: tuple[float, ...]


@dataclass(frozen=True)
class PanelDataset:
    """A full panel: the subjects plus their visits stacked into flat read-only arrays.

    The arrays are attributes set at construction.  Per subject, in subject
    order: ``ids``, ``z``, ``counts`` (visits) and ``starts`` (offset of the
    subject's block).  Per visit row: ``t``, ``y`` and ``z_rows``.  Each
    subject has as many gaps as visits, so ``starts`` indexes the per-gap
    arrays ``gaps`` and ``observed`` too: row r's gap starts at visit r, and
    the last row of each block holds the censored gap from the last visit to
    the censoring time.

    Construction is where subjects are checked, one rule at a time over the
    stacked arrays; a ``ValidationError`` names a subject that breaks the rule.
    """

    subjects: tuple[Subject, ...]
    scenario_tag: str = ""

    def __post_init__(self):
        subjects = tuple(self.subjects)
        if len(subjects) == 0:
            raise ValidationError("panel must contain at least one subject")

        def check(bad, message):
            """Raise ``message(s)`` for the first subject ``s`` that ``bad`` flags, if any."""
            if np.any(bad):
                raise ValidationError(message(subjects[int(np.argmax(bad))]))

        check([s.z not in (0, 1) for s in subjects],
              lambda s: f"subject {s.id}: treatment z must be 0 or 1, got {s.z}")
        c = np.array([float(s.censoring_time) for s in subjects])
        check(~(np.isfinite(c) & (c > 0)), lambda s: f"subject {s.id}: censoring time must be a positive real")
        check([s.visit_times.ndim != 1 or s.visit_times.shape != s.outcomes.shape for s in subjects],
              lambda s: f"subject {s.id}: visit_times and outcomes must be 1-d and equal length")
        counts = np.array([s.n_visits for s in subjects], dtype=np.intp)
        check(counts == 0, lambda s: f"subject {s.id}: needs at least the baseline visit")
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        last = starts + counts - 1
        t = np.concatenate([s.visit_times for s in subjects])
        check(t[starts] != 0.0, lambda s: f"subject {s.id}: first visit must be at t = 0, got {s.visit_times[0]}")
        gaps = np.empty_like(t)
        gaps[:-1] = np.diff(t)
        gaps[last] = c - t[last]
        observed = np.ones(len(t), dtype=bool)
        observed[last] = False
        check(np.logical_or.reduceat(observed & ~(gaps > 0), starts),
              lambda s: f"subject {s.id}: visit times must be finite and strictly increasing")
        check(t[last] >= c, lambda s: (f"subject {s.id}: visit at t = {s.visit_times[-1]} "
                                       f"is not before censoring time {s.censoring_time}"))
        y = np.concatenate([s.outcomes for s in subjects])
        check(np.logical_or.reduceat(~np.isfinite(y), starts), lambda s: f"subject {s.id}: outcomes must be finite")
        z = np.array([float(s.z) for s in subjects])
        ids = np.array([s.id for s in subjects], dtype=np.intp)
        unique, seen = np.unique(ids, return_counts=True)
        if np.any(seen > 1):
            raise ValidationError(f"subject id {int(unique[seen > 1][0])} appears more than once")
        arrays = dict(ids=ids, z=z, counts=counts, starts=starts, t=t, y=y,
                      z_rows=np.repeat(z, counts), gaps=gaps, observed=observed)
        object.__setattr__(self, "subjects", subjects)
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_rows(self) -> int:
        return len(self.t)

    def group_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-subject sums of a per-row (equivalently, per-gap) array."""
        return np.add.reduceat(values, self.starts)

    @functools.cached_property
    def gap_records(self) -> tuple[GapRecord, ...]:
        """The gaps as one record per gap, built on first access."""
        index = np.arange(1, self.n_rows + 1) - np.repeat(self.starts, self.counts)
        return tuple(GapRecord(int(sid), int(j), float(g), bool(obs), (float(z),))
                     for sid, j, g, obs, z in zip(np.repeat(self.ids, self.counts), index,
                                                  self.gaps, self.observed, self.z_rows))


def build_panel(subjects, scenario_tag: str = "") -> PanelDataset:
    """Assemble a panel from subjects, checking them and stacking them into flat arrays.

    Each subject contributes one observed gap per post-baseline visit
    (successive differences of visit times) and exactly one censored gap
    from the last visit to the censoring time.  Subject ids must be unique.
    Deterministic and order-preserving in the subjects.
    """
    return PanelDataset(tuple(subjects), scenario_tag)


def write_atomic(path, data: str) -> None:
    """Write text to ``path`` via a temp file and rename, so readers never see partial output.

    The file gets the mode a plain ``open`` would give it (0o666 less the
    umask), not the temp file's 0o600.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_panel_csv(panel: PanelDataset, path) -> None:
    """Serialize a panel in long format with columns subject_id,z,censoring_time,visit_time,y."""
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(PANEL_CSV_COLUMNS)
    for s in panel.subjects:
        for t, y in zip(s.visit_times, s.outcomes):
            w.writerow([s.id, s.z, repr(float(s.censoring_time)), repr(float(t)), repr(float(y))])
    write_atomic(path, buf.getvalue())


def read_panel_csv(path, scenario_tag: str = "") -> PanelDataset:
    """Read a long-format panel CSV back into a PanelDataset."""
    by_subject: dict[int, dict] = {}
    order: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != PANEL_CSV_COLUMNS:
            raise ValidationError(f"{path}: expected header {','.join(PANEL_CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise ValidationError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                sid = int(row[0])
                z = int(row[1])
                c = float(row[2])
                t = float(row[3])
                y = float(row[4])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
            rec = by_subject.get(sid)
            if rec is None:
                rec = {"z": z, "c": c, "t": [], "y": []}
                by_subject[sid] = rec
                order.append(sid)
            elif rec["z"] != z or rec["c"] != c:
                raise ValidationError(f"{path}:{lineno}: subject {sid} has inconsistent z or censoring_time")
            rec["t"].append(t)
            rec["y"].append(y)
    if not by_subject:
        raise ValidationError(f"{path}: no data rows")
    subjects = [Subject(sid, by_subject[sid]["z"], by_subject[sid]["c"], by_subject[sid]["t"], by_subject[sid]["y"])
                for sid in order]
    return build_panel(subjects, scenario_tag)


@dataclass(frozen=True)
class FitResult:
    """Estimates, standard errors and bookkeeping for one fitted model (A-E)."""

    model_label: str
    param_names: tuple[str, ...]
    estimates: np.ndarray
    std_errors: np.ndarray
    loglik: float | None
    converged: bool
    iterations: int
    message: str = ""

    def __post_init__(self):
        if self.model_label not in MODEL_LABELS:
            raise ValidationError(f"unknown model label {self.model_label!r}")
        object.__setattr__(self, "estimates", _readonly(self.estimates))
        object.__setattr__(self, "std_errors", _readonly(self.std_errors))
        if not (len(self.param_names) == len(self.estimates) == len(self.std_errors)):
            raise ValidationError("param_names, estimates and std_errors must have equal length")
        if self.converged and np.any(self.std_errors < 0):
            raise ValidationError("converged fit reported a negative standard error")

    def estimate(self, name: str) -> float:
        return float(self.estimates[self.param_names.index(name)])

    def se(self, name: str) -> float:
        return float(self.std_errors[self.param_names.index(name)])

    def to_json_dict(self) -> dict:
        params = {
            name: {"est": float(est), "se": float(se)}
            for name, est, se in zip(self.param_names, self.estimates, self.std_errors)
        }
        return {
            "model": self.model_label,
            "params": params,
            "loglik": None if self.loglik is None else float(self.loglik),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }

    def write_json(self, path) -> None:
        write_atomic(path, json.dumps(self.to_json_dict(), indent=2) + "\n")

    @classmethod
    def from_json_dict(cls, data: dict) -> "FitResult":
        names = tuple(data["params"].keys())
        est = [data["params"][n]["est"] for n in names]
        se = [data["params"][n]["se"] for n in names]
        return cls(
            model_label=data["model"],
            param_names=names,
            estimates=np.array(est, dtype=float),
            std_errors=np.array(se, dtype=float),
            loglik=data.get("loglik"),
            converged=bool(data["converged"]),
            iterations=int(data.get("iterations", 0)),
        )
