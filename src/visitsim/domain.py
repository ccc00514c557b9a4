"""Core data types: panel datasets, gap records, and fit results.

A panel is a collection of subjects, each observed at irregular visit times
starting with a mandatory baseline visit at t = 0 and administratively
censored at a subject-specific time C.  Gaps are the renewal-scale
representation of the visit process: the waiting times between consecutive
visits, plus one final censored gap running from the last visit to C.
``build_panel`` takes a panel's columns (per subject: id, z, C and the
number of visits; per visit: time and outcome), checks them and derives the
gaps once; the result is the flat read-only arrays of a ``PanelDataset``
that every estimator reads.
"""

from __future__ import annotations

import csv
import functools
import io
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


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """A full panel as flat read-only arrays; ``build_panel`` makes and checks it.

    Per subject, in subject order: ``ids``, ``z``, ``censoring`` (time C),
    ``counts`` (visits) and ``starts`` (offset of the subject's block).  Per
    visit row: ``t``, ``y`` and ``z_rows``.  Each subject has as many gaps as
    visits, so ``starts`` indexes the per-gap arrays ``gaps`` and
    ``observed`` too: row r's gap starts at visit r, and the last row of each
    block holds the censored gap from the last visit to the censoring time.
    ``derived`` keeps what the fits of the panel share.
    """

    ids: np.ndarray
    z: np.ndarray
    censoring: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    t: np.ndarray
    y: np.ndarray
    z_rows: np.ndarray
    gaps: np.ndarray
    observed: np.ndarray

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_rows(self) -> int:
        return len(self.t)

    def group_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-subject sums of a per-row (equivalently, per-gap) array."""
        return np.add.reduceat(values, self.starts)

    @functools.cached_property
    def _memo(self) -> dict:
        return {}

    def derived(self, make, *args):
        """``make(self, *args)``, made on the first request and kept for the panel's fits to share.

        A ``make`` that raises keeps nothing, so the next request calls it again.
        """
        key = (make, *args)
        if key not in self._memo:
            self._memo[key] = make(self, *args)
        return self._memo[key]

    @functools.cached_property
    def gap_records(self) -> tuple[GapRecord, ...]:
        """The gaps as one record per gap, built on first access."""
        index = np.arange(1, self.n_rows + 1) - np.repeat(self.starts, self.counts)
        return tuple(GapRecord(int(sid), int(j), float(g), bool(obs), (float(z),))
                     for sid, j, g, obs, z in zip(np.repeat(self.ids, self.counts), index,
                                                  self.gaps, self.observed, self.z_rows))


def build_panel(ids, z, censoring, counts, t, y) -> PanelDataset:
    """Check a panel's columns and derive the rest of its flat arrays.

    Per subject, in panel order: ``ids``, treatment ``z``, ``censoring`` time
    and ``counts`` (visits).  Per visit, subject after subject: times ``t``
    and outcomes ``y``.  Each subject contributes one observed gap per
    post-baseline visit (successive differences of visit times) and exactly
    one censored gap from the last visit to the censoring time.  The rules
    are checked one at a time over the columns; a ``ValidationError`` names
    the first subject that breaks the rule.  Subject ids must be unique.
    Deterministic and order-preserving; the panel shares no memory with its
    inputs.
    """
    ids, counts = np.asarray(ids), np.asarray(counts)
    z, c = np.array(z, dtype=float), np.array(censoring, dtype=float)
    t, y = np.array(t, dtype=float), np.array(y, dtype=float)
    if not (ids.ndim == z.ndim == c.ndim == counts.ndim == 1 and len(ids) == len(z) == len(c) == len(counts)):
        raise ValidationError("ids, z, censoring and counts must be 1-d and of equal length")
    for name, values in (("id", ids), ("visit count", counts)):
        whole = np.isfinite(values) & (values == np.round(values))
        if not np.all(whole):
            i = int(np.argmin(whole))
            raise ValidationError(f"subject {ids[i]}: {name} must be a whole number, got {values[i]}")
    ids, counts = ids.astype(np.intp), counts.astype(np.intp)
    if not (t.ndim == y.ndim == 1 and len(t) == len(y) == counts.sum()):
        raise ValidationError(f"t and y must be 1-d with counts.sum() = {counts.sum()} entries")
    if len(ids) == 0:
        raise ValidationError("panel must contain at least one subject")

    def check(bad, message):
        """Raise ``message(i)`` for the first subject ``i`` that ``bad`` flags, if any."""
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValidationError(f"subject {ids[i]}: {message(i)}")

    check((z != 0) & (z != 1), lambda i: f"treatment z must be 0 or 1, got {z[i]:g}")
    check(~(np.isfinite(c) & (c > 0)), lambda i: "censoring time must be a positive real")
    check(counts < 1, lambda i: "needs at least the baseline visit")
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    last = starts + counts - 1
    check(t[starts] != 0.0, lambda i: f"first visit must be at t = 0, got {t[starts[i]]}")
    gaps = np.empty_like(t)
    gaps[:-1] = np.diff(t)
    gaps[last] = c - t[last]
    observed = np.ones(len(t), dtype=bool)
    observed[last] = False
    check(np.logical_or.reduceat(observed & ~(gaps > 0), starts),
          lambda i: "visit times must be finite and strictly increasing")
    check(t[last] >= c, lambda i: f"visit at t = {t[last[i]]} is not before censoring time {c[i]}")
    check(np.logical_or.reduceat(~np.isfinite(y), starts), lambda i: "outcomes must be finite")
    unique, seen = np.unique(ids, return_counts=True)
    if np.any(seen > 1):
        raise ValidationError(f"subject id {int(unique[seen > 1][0])} appears more than once")
    arrays = dict(ids=ids, z=z, censoring=c, counts=counts, starts=starts, t=t, y=y,
                  z_rows=np.repeat(z, counts), gaps=gaps, observed=observed)
    for arr in arrays.values():
        arr.flags.writeable = False
    return PanelDataset(**arrays)


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
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(PANEL_CSV_COLUMNS)
    rows = zip(np.repeat(panel.ids, panel.counts).tolist(), panel.z_rows.astype(int).tolist(),
               np.repeat(panel.censoring, panel.counts).tolist(), panel.t.tolist(), panel.y.tolist())
    for sid, z, c, t, y in rows:
        w.writerow([sid, z, repr(c), repr(t), repr(y)])
    write_atomic(path, buf.getvalue())


def read_panel_csv(path) -> PanelDataset:
    """Read a long-format panel CSV back into a PanelDataset.

    A subject's rows need not be contiguous; subjects keep the order of their first row.
    """
    by_subject: dict[int, dict] = {}
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
                rec = by_subject[sid] = {"z": z, "c": c, "t": [], "y": []}
            elif rec["z"] != z or rec["c"] != c:
                raise ValidationError(f"{path}:{lineno}: subject {sid} has inconsistent z or censoring_time")
            rec["t"].append(t)
            rec["y"].append(y)
    if not by_subject:
        raise ValidationError(f"{path}: no data rows")
    recs = by_subject.values()
    return build_panel(list(by_subject), [r["z"] for r in recs], [r["c"] for r in recs],
                       [len(r["t"]) for r in recs], [v for r in recs for v in r["t"]],
                       [v for r in recs for v in r["y"]])


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
