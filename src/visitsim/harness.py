"""Monte Carlo study driver: replication management, performance measures,
dataset descriptives and informativeness diagnostics.

Replications are independent by construction (one seed substream per
replication, one per subject within it), so the study can run on any number
of worker processes and still produce byte-identical output tables.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import csv
import functools
import io
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import iivw, jointfit
from .dgm import ScenarioConfig, simulate_panel
from .domain import MODEL_LABELS, FitResult, PanelDataset, write_atomic
from .errors import EstimationError, ValidationError
from .iivw import fit_iivw
from .jointfit import fit_joint, gauss_hermite
from .lmm import Adjustment, fit_lmm
from .survfit import _CoxData, _jackknife_cov, fit_andersen_gill

ESTIMATES_CSV_COLUMNS = ("scenario", "rep", "model", "param", "est", "se", "converged")
PERFORMANCE_CSV_COLUMNS = ("scenario", "model", "param", "truth", "mean_est", "bias", "bias_mcse",
                           "emp_se", "mod_se", "mse", "mse_mcse", "coverage", "coverage_mcse",
                           "conv_rate")

_MODEL_PARAMS = {
    "A": jointfit.PARAM_NAMES,
    **{adjustment.value: adjustment.param_names for adjustment in Adjustment},
    "E": iivw.PARAM_NAMES,
}


@dataclass(frozen=True)
class StudyConfig:
    """One simulation study: a scenario, the models to fit, and K replications."""

    scenario: ScenarioConfig
    models: tuple[str, ...] = MODEL_LABELS
    replications: int = 200
    threads: int | None = None
    gh_order: int = 25

    def __post_init__(self):
        if self.replications < 2:
            raise ValidationError("a study needs at least 2 replications")
        if self.threads is not None and self.threads < 1:
            raise ValidationError(f"threads must be >= 1, got {self.threads}")
        gauss_hermite(self.gh_order)  # model A's one check of its quadrature order
        models = tuple(self.models)
        if not models:
            raise ValidationError("a study needs at least one model")
        if not set(models) <= set(MODEL_LABELS) or len(set(models)) < len(models):
            raise ValidationError(f"models must be distinct labels of {', '.join(MODEL_LABELS)}, got {list(models)}")
        object.__setattr__(self, "models", models)


class EstimatesTable:
    """A study's estimates as equal-length columns, one entry per (rep, model, param).

    ``scenario`` is the study's one label; ``est`` and ``se`` are NaN where
    the fit did not converge.
    """

    def __init__(self, scenario: str, rep, model, param, est, se, converged):
        self.scenario = scenario
        self.rep = np.asarray(rep, dtype=np.int64)
        self.model = np.asarray(model, dtype=str)
        self.param = np.asarray(param, dtype=str)
        self.est = np.asarray(est, dtype=float)
        self.se = np.asarray(se, dtype=float)
        self.converged = np.asarray(converged, dtype=bool)

    def __len__(self) -> int:
        return len(self.rep)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(ESTIMATES_CSV_COLUMNS)
        for rep, model, param, est, se, conv in zip(self.rep.tolist(), self.model.tolist(),
                                                   self.param.tolist(), self.est.tolist(),
                                                   self.se.tolist(), self.converged.tolist()):
            w.writerow([self.scenario, rep, model, param, repr(est) if conv else "",
                        repr(se) if conv else "", int(conv)])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())

    @classmethod
    def read_csv(cls, path) -> "EstimatesTable":
        """Read one study's ``estimates.csv``; a malformed line raises ValidationError naming it."""
        columns, first_line = ([], [], [], [], [], [], []), {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != ESTIMATES_CSV_COLUMNS:
                raise ValidationError(f"{path}: expected header {','.join(ESTIMATES_CSV_COLUMNS)}")
            for lineno, line in enumerate(reader, start=2):
                if not line:
                    continue
                try:
                    if len(line) != len(ESTIMATES_CSV_COLUMNS):
                        raise ValueError(f"expected {len(ESTIMATES_CSV_COLUMNS)} fields, got {len(line)}")
                    tag, rep, model, param, est, se, conv = line
                    rep, conv = int(rep), bool(int(conv))
                    if rep < 1:
                        raise ValueError(f"rep must be >= 1, got {rep}")
                    if model not in _MODEL_PARAMS:
                        raise ValueError(f"model {model!r} is not one of {', '.join(MODEL_LABELS)}")
                    if param not in _MODEL_PARAMS[model]:
                        raise ValueError(f"model {model} has no parameter {param!r}")
                    if (est != "", se != "") != (conv, conv):
                        raise ValueError("est and se must both be given where converged is 1 "
                                         "and both be empty where it is 0")
                    est, se = (float(est), float(se)) if conv else (np.nan, np.nan)
                    if conv and not (np.isfinite(est) and np.isfinite(se) and se >= 0.0):
                        raise ValueError(f"a converged row needs a finite est and a finite se >= 0, got {est}, {se}")
                    if columns[0] and tag != columns[0][0]:
                        raise ValueError(f"scenario {tag!r} differs from {columns[0][0]!r}; "
                                         f"a file holds one study")
                    if first_line.setdefault((rep, model, param), lineno) != lineno:
                        raise ValueError(f"rep {rep}, model {model}, param {param} repeats line "
                                         f"{first_line[rep, model, param]}")
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
                for column, value in zip(columns, (tag, rep, model, param, est, se, conv)):
                    column.append(value)
        return cls(columns[0][0] if columns[0] else "", *columns[1:])


def fit_model(panel: PanelDataset, label: str, gh_order: int = 25) -> FitResult:
    """Dispatch a panel to the estimator for one of the five model labels.

    ``gh_order`` is the quadrature order of model A; the other models ignore it.
    """
    if label not in MODEL_LABELS:
        raise ValidationError(f"unknown model label {label!r}")
    if label == "A":
        return fit_joint(panel, gh_order)
    if label == "E":
        return fit_iivw(panel)
    return fit_lmm(panel, Adjustment(label))


def _replication(scenario: ScenarioConfig, models: tuple[str, ...], gh_order: int | None, rep: int):
    """Replication ``rep`` as (fits in ``models`` order, None where one raised; sample; error).

    ``sample`` is the panel's row count, per-subject visit counts and observed
    gaps.  If the simulation raised, fits and sample are None and ``error`` names it."""
    try:
        panel = simulate_panel(scenario, np.random.SeedSequence(scenario.seed, spawn_key=(rep,)))
    except (ValidationError, ValueError, ArithmeticError) as exc:
        return [None] * len(models), None, f"{type(exc).__name__}: {exc}"
    fits = []
    for label in models:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fits.append(fit_model(panel, label, gh_order))
        except (EstimationError, ValueError, ArithmeticError):
            # numeric failure of one fit (LinAlgError is a ValueError, FloatingPointError an
            # ArithmeticError): record this model as not converged and go on with the study
            fits.append(None)
    return fits, (panel.n_rows, panel.counts, panel.gaps[panel.observed]), None


def _replications(scenario: ScenarioConfig, models: tuple[str, ...], gh_order: int | None, reps: int,
                  threads: int):
    """Yield ``_replication``'s record of replications 1..``reps`` in order, run on ``threads`` processes."""
    with contextlib.ExitStack() as stack:
        mapper = map
        if threads > 1:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(max_workers=threads))
            mapper = functools.partial(pool.map, chunksize=max(1, reps // (8 * threads)))
        yield from mapper(functools.partial(_replication, scenario, models, gh_order), range(1, reps + 1))


def _available_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# what run_study returns: the EstimatesTable and the DatasetDescription of the panels it simulated
StudyResult = collections.namedtuple("StudyResult", ("estimates", "descriptives"))


def run_study(study: StudyConfig) -> StudyResult:
    """Simulate and fit K replications; failures are recorded, never fatal.

    Fits are read in replication order, however the worker pool schedules
    them, so the table is deterministic given the scenario's seed.  The
    descriptives pool the panels that could be simulated.
    """
    k = study.replications
    names = np.array([(label, name) for label in study.models for name in _MODEL_PARAMS[label]])
    cols = {label: names[:, 0] == label for label in study.models}
    est, se = np.full((2, k, len(names)), np.nan)
    converged = np.zeros((k, len(names)), dtype=bool)
    samples = []
    records = _replications(study.scenario, study.models, study.gh_order, k, study.threads or _available_cpus())
    for row, (fits, sample, _) in enumerate(records):
        for label, fit in zip(study.models, fits):
            if fit is not None and fit.converged:
                at = (row, cols[label])
                est[at], se[at], converged[at] = fit.estimates, fit.std_errors, True
        samples.append(sample)
    table = EstimatesTable(study.scenario.label, np.repeat(np.arange(1, k + 1), len(names)),
                           *np.tile(names.T, k), est.ravel(), se.ravel(), converged.ravel())
    return StudyResult(table, _description(study.scenario.label, [s for s in samples if s is not None]))


# --- performance measures ----------------------------------------------------


PerformanceRow = collections.namedtuple("PerformanceRow", PERFORMANCE_CSV_COLUMNS)


class PerformanceTable:
    def __init__(self, rows):
        self.rows = list(rows)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def lookup(self, model: str, param: str) -> PerformanceRow:
        for r in self.rows:
            if r.model == model and r.param == param:
                return r
        raise KeyError((model, param))

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(PERFORMANCE_CSV_COLUMNS)
        for r in self.rows:
            w.writerow([*r[:3], *(repr(float(v)) for v in r[3:])])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())


def summarize(estimates: EstimatesTable, truths: dict[str, float]) -> PerformanceTable:
    """Bias, empirical/model SE, MSE and coverage with Monte Carlo SEs.

    Covers the parameters that have an entry in ``truths``; the others are
    left out.  Computed over converged replications only.  A (model,
    parameter) with fewer than 2 of them keeps its row, with NaN measures and
    its ``conv_rate``, and raises a RuntimeWarning.
    """
    # canonical replication order so aggregation is exactly permutation-invariant
    order = np.argsort(estimates.rep, kind="stable")
    models, params = estimates.model[order], estimates.param[order]
    scenario = estimates.scenario
    out = []
    for model, param in sorted(set(zip(models.tolist(), params.tolist()))):
        if param not in truths:
            continue
        truth = truths[param]
        group = order[(models == model) & (params == param)]
        done = group[estimates.converged[group]]
        k_all, k = len(group), len(done)
        if k < 2:
            warnings.warn(f"{scenario}: {k} of {k_all} replications converged for model {model}, "
                          f"parameter {param}; its performance measures are NaN",
                          RuntimeWarning, stacklevel=2)
            nan = [float("nan")] * (len(PERFORMANCE_CSV_COLUMNS) - 5)
            out.append(PerformanceRow(scenario, model, param, float(truth), *nan, conv_rate=k / k_all))
            continue
        est, se = estimates.est[done], estimates.se[done]
        bias = float(est.mean() - truth)
        emp_se = float(est.std(ddof=1))
        sq_err = (est - truth) ** 2
        mse = float(sq_err.mean())
        covered = np.abs(est - truth) <= 1.96 * se
        coverage = float(covered.mean())
        out.append(PerformanceRow(
            scenario=scenario, model=model, param=param, truth=float(truth),
            mean_est=float(est.mean()),
            bias=bias,
            bias_mcse=emp_se / np.sqrt(k),
            emp_se=emp_se,
            mod_se=float(se.mean()),
            mse=mse,
            mse_mcse=float(sq_err.std(ddof=1) / np.sqrt(k)),
            coverage=coverage,
            coverage_mcse=float(np.sqrt(coverage * (1.0 - coverage) / k)),
            conv_rate=k / k_all,
        ))
    return PerformanceTable(out)


# --- descriptives and diagnostics --------------------------------------------


@dataclass(frozen=True)
class DatasetDescription:
    """Median and inter-quartile interval of panel characteristics across datasets."""

    scenario: str
    n_datasets: int
    rows_median: float
    rows_iqi: tuple[float, float]
    measurements_median: float
    measurements_iqi: tuple[float, float]
    gap_median: float
    gap_iqi: tuple[float, float]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["scenario", "measure", "median", "q1", "q3"])
        for measure, med, iqi in [
            ("total_rows", self.rows_median, self.rows_iqi),
            ("measurements_per_subject", self.measurements_median, self.measurements_iqi),
            ("observed_gap_time", self.gap_median, self.gap_iqi),
        ]:
            w.writerow([self.scenario, measure, repr(float(med)), repr(float(iqi[0])), repr(float(iqi[1]))])
        return buf.getvalue()


def _description(label: str, samples: list) -> DatasetDescription:
    """Descriptives of ``samples``, each a panel's row count, visit counts and observed gaps, pooled."""
    rows = [sample[0] for sample in samples]
    counts, gaps = (np.concatenate([sample[i] for sample in samples] or [np.empty(0)]) for i in (1, 2))
    (r1, r2, r3), (c1, c2, c3), (g1, g2, g3) = (
        np.percentile(values, [25, 50, 75]) if len(values) else np.full(3, np.nan) for values in (rows, counts, gaps))
    return DatasetDescription(scenario=label, n_datasets=len(samples),
                              rows_median=float(r2), rows_iqi=(float(r1), float(r3)),
                              measurements_median=float(c2), measurements_iqi=(float(c1), float(c3)),
                              gap_median=float(g2), gap_iqi=(float(g1), float(g3)))


def describe_datasets(scenario: ScenarioConfig, reps: int) -> DatasetDescription:
    """Table-style descriptives over ``reps`` simulated datasets, the panels a study of K = ``reps`` fits.

    A panel that cannot be simulated raises ValidationError naming its replication.
    """
    if reps < 1:
        raise ValidationError("describe_datasets needs reps >= 1")
    samples = []
    for rep, (_, sample, error) in enumerate(_replications(scenario, (), None, reps, threads=1), start=1):
        if sample is None:
            raise ValidationError(f"{scenario.label}: replication {rep} could not be simulated: {error}")
        samples.append(sample)
    return _description(scenario.label, samples)


@dataclass(frozen=True)
class InformativenessDiagnostics:
    """Association checks between the visit process and a subject covariate."""

    covariate: str
    applicable: bool
    n_gaps: int
    spearman_rho: float
    spearman_pvalue: float
    ag_hazard_ratio: float
    ag_hr_ci: tuple[float, float]
    ag_converged: bool


def _midranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``x``, each tie at the mean of its ranks (``scipy.stats.rankdata``'s default)."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _spearman(ranks: np.ndarray, x: np.ndarray) -> float:
    """Spearman's rho of ``ranks`` and ``x``, bit for bit as scipy.stats.spearmanr (its [1, 0] entry)."""
    return float(np.corrcoef(np.column_stack((ranks, _midranks(x))), rowvar=False)[1, 0])


def diagnose_informativeness(panel: PanelDataset, covariate="z",
                             n_permutations: int = 999, seed: int = 0) -> InformativenessDiagnostics:
    """Spearman correlation (permutation p-value) and AG hazard ratio for a covariate.

    ``covariate`` is either ``"z"`` (the panel's treatment indicator) or a
    mapping from subject id to a numeric value.  The permutation test
    shuffles the covariate at the subject level, which respects the
    within-subject correlation of gap times.  Neither check applies (its
    figures are NaN) where the covariate or the observed gap length is constant.
    """
    if panel.n_subjects < 2:
        raise ValidationError("diagnostics need at least 2 subjects")
    if n_permutations < 0:
        raise ValidationError(f"permutation count must be >= 0, got {n_permutations}")
    if isinstance(covariate, str):
        if covariate != "z":
            raise ValidationError(f"unknown covariate {covariate!r}; panels carry 'z'")
        name = covariate
        values = panel.z
    else:
        name = "custom"
        values = np.array([float(covariate[int(sid)]) for sid in panel.ids])
    if not np.any(panel.observed):
        raise EstimationError("no observed gaps")
    gaps = panel.gaps[panel.observed]
    covs = np.repeat(values, panel.counts)[panel.observed]

    if np.all(covs == covs[0]) or np.all(gaps == gaps[0]):
        return InformativenessDiagnostics(name, False, len(gaps), float("nan"), float("nan"),
                                          float("nan"), (float("nan"), float("nan")), False)

    gap_ranks = _midranks(gaps)
    rho = _spearman(gap_ranks, covs)
    rng = np.random.default_rng(seed)
    # the covariate is permuted over the subjects in id order, and each gap reads its subject's value
    order = np.argsort(panel.ids)
    idx = np.repeat(np.argsort(order), panel.counts)[panel.observed]
    hits = int(sum(abs(_spearman(gap_ranks, rng.permutation(values[order])[idx])) >= abs(rho) - 1e-12
                   for _ in range(n_permutations)))
    pvalue = (hits + 1.0) / (n_permutations + 1.0)

    data = _CoxData.from_panel(panel, values)
    ag = fit_andersen_gill(data)
    if ag.converged:
        se = float(np.sqrt(np.clip(np.diag(_jackknife_cov(data, ag.eta)), 0.0, None))[0])
        hr = float(np.exp(ag.eta[0]))
        ci = (float(np.exp(ag.eta[0] - 1.96 * se)), float(np.exp(ag.eta[0] + 1.96 * se)))
    else:
        hr, ci = float("nan"), (float("nan"), float("nan"))
    return InformativenessDiagnostics(name, True, len(gaps), rho, pvalue, hr, ci, ag.converged)
