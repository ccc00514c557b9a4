"""Monte Carlo study driver: replication management, performance measures,
dataset descriptives and informativeness diagnostics.

Replications are independent by construction (one seed substream per
replication, one per subject within it), so the study can run on any number
of worker processes and still produce byte-identical output tables.
"""

from __future__ import annotations

import concurrent.futures
import csv
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
        unknown = [m for m in models if m not in MODEL_LABELS]
        if unknown:
            raise ValidationError(f"unknown model label(s): {unknown}")
        object.__setattr__(self, "models", models)


@dataclass(frozen=True)
class EstimateRow:
    scenario: str
    rep: int
    model: str
    param: str
    est: float | None
    se: float | None
    converged: bool


class EstimatesTable:
    """Long-format (scenario, rep, model, param) -> (est, se, converged) records."""

    def __init__(self, rows):
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(ESTIMATES_CSV_COLUMNS)
        for r in self.rows:
            w.writerow([
                r.scenario, r.rep, r.model, r.param,
                "" if r.est is None else repr(float(r.est)),
                "" if r.se is None else repr(float(r.se)),
                int(r.converged),
            ])
        return buf.getvalue()

    def write_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())

    @classmethod
    def read_csv(cls, path) -> "EstimatesTable":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != ESTIMATES_CSV_COLUMNS:
                raise ValidationError(f"{path}: expected header {','.join(ESTIMATES_CSV_COLUMNS)}")
            for lineno, line in enumerate(reader, start=2):
                if not line:
                    continue
                if len(line) != len(ESTIMATES_CSV_COLUMNS):
                    raise ValidationError(f"{path}:{lineno}: expected {len(ESTIMATES_CSV_COLUMNS)} "
                                          f"fields, got {len(line)}")
                try:
                    rows.append(EstimateRow(
                        scenario=line[0],
                        rep=int(line[1]),
                        model=line[2],
                        param=line[3],
                        est=float(line[4]) if line[4] else None,
                        se=float(line[5]) if line[5] else None,
                        converged=bool(int(line[6])),
                    ))
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        return cls(rows)


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


def _replication_rows(study: StudyConfig, rep: int) -> list[EstimateRow]:
    try:
        panel = simulate_panel(study.scenario, np.random.SeedSequence(study.scenario.seed, spawn_key=(rep,)))
    except (ValidationError, ValueError, ArithmeticError):
        # a panel that could not be simulated: every model of this replication is not converged
        panel = None
    tag = study.scenario.label
    rows = []
    for label in study.models:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = None if panel is None else fit_model(panel, label, study.gh_order)
        except (EstimationError, ValueError, ArithmeticError):
            # numeric failure of one fit (LinAlgError is a ValueError, FloatingPointError an
            # ArithmeticError): record this model as not converged and go on with the study
            fit = None
        names = _MODEL_PARAMS[label]
        if fit is not None and fit.converged:
            for name in names:
                est, se = fit.estimate(name), fit.se(name)
                rows.append(EstimateRow(tag, rep, label, name, est, se, True))
        else:
            for name in names:
                rows.append(EstimateRow(tag, rep, label, name, None, None, False))
    return rows


def run_study(study: StudyConfig) -> EstimatesTable:
    """Simulate and fit K replications; failures are recorded, never fatal.

    Deterministic given the scenario's seed: rows are emitted in replication
    order regardless of how the worker pool schedules them.
    """
    threads = study.threads or os.cpu_count() or 1
    reps = range(1, study.replications + 1)
    if threads == 1:
        results = [_replication_rows(study, k) for k in reps]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_replication_rows, [study] * study.replications, reps,
                                    chunksize=max(1, study.replications // (8 * threads))))
    rows: list[EstimateRow] = []
    for chunk in results:
        rows.extend(chunk)
    return EstimatesTable(rows)


# --- performance measures ----------------------------------------------------


@dataclass(frozen=True)
class PerformanceRow:
    scenario: str
    model: str
    param: str
    truth: float
    mean_est: float
    bias: float
    bias_mcse: float
    emp_se: float
    mod_se: float
    mse: float
    mse_mcse: float
    coverage: float
    coverage_mcse: float
    conv_rate: float


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
            w.writerow([r.scenario, r.model, r.param] +
                       [repr(float(getattr(r, f))) for f in PERFORMANCE_CSV_COLUMNS[3:]])
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
    groups: dict[tuple[str, str, str], list[EstimateRow]] = {}
    for row in estimates:
        if row.param in truths:
            groups.setdefault((row.scenario, row.model, row.param), []).append(row)

    out = []
    for key in sorted(groups):
        scenario, model, param = key
        rows = groups[key]
        truth = truths[param]
        # canonical replication order so aggregation is exactly permutation-invariant
        rows = sorted(rows, key=lambda r: r.rep)
        done = [r for r in rows if r.converged and r.est is not None]
        k_all = len(rows)
        k = len(done)
        if k < 2:
            warnings.warn(f"{scenario}: {k} of {k_all} replications converged for model {model}, "
                          f"parameter {param}; its performance measures are NaN",
                          RuntimeWarning, stacklevel=2)
            out.append(PerformanceRow(scenario, model, param, float(truth), *[float("nan")] * 9,
                                      conv_rate=k / k_all))
            continue
        est = np.array([r.est for r in done])
        se = np.array([r.se for r in done])
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


def describe_datasets(scenario: ScenarioConfig, reps: int) -> DatasetDescription:
    """Table-style descriptives over ``reps`` simulated datasets.

    Total rows are summarised across datasets; per-subject measurement counts
    and observed gap times are pooled over all datasets.
    """
    if reps < 1:
        raise ValidationError("describe_datasets needs reps >= 1")
    rows, counts, gaps = [], [], []
    for k in range(1, reps + 1):
        panel = simulate_panel(scenario, np.random.SeedSequence(scenario.seed, spawn_key=(k,)))
        rows.append(panel.n_rows)
        counts.extend(panel.counts)
        gaps.extend(panel.gaps[panel.observed])
    rows_q = np.percentile(rows, [25, 50, 75])
    counts_q = np.percentile(counts, [25, 50, 75])
    gaps_q = (np.percentile(gaps, [25, 50, 75]) if gaps else np.array([np.nan] * 3))
    return DatasetDescription(
        scenario=scenario.label,
        n_datasets=reps,
        rows_median=float(rows_q[1]), rows_iqi=(float(rows_q[0]), float(rows_q[2])),
        measurements_median=float(counts_q[1]), measurements_iqi=(float(counts_q[0]), float(counts_q[2])),
        gap_median=float(gaps_q[1]), gap_iqi=(float(gaps_q[0]), float(gaps_q[2])),
    )


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


def diagnose_informativeness(panel: PanelDataset, covariate="z",
                             n_permutations: int = 999, seed: int = 0) -> InformativenessDiagnostics:
    """Spearman correlation (permutation p-value) and AG hazard ratio for a covariate.

    ``covariate`` is either ``"z"`` (the panel's treatment indicator) or a
    mapping from subject id to a numeric value.  The permutation test
    shuffles the covariate at the subject level, which respects the
    within-subject correlation of gap times.
    """
    import scipy.stats  # here, not at module level: it is slow to import and no study needs it

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
    subj = np.repeat(panel.ids, panel.counts)[panel.observed]

    if np.all(covs == covs[0]):
        return InformativenessDiagnostics(name, False, len(gaps), float("nan"), float("nan"),
                                          float("nan"), (float("nan"), float("nan")), False)

    rho = float(scipy.stats.spearmanr(gaps, covs).statistic)
    rng = np.random.default_rng(seed)
    order = np.argsort(panel.ids)
    ids, vals = panel.ids[order], values[order]
    idx = np.searchsorted(ids, subj)
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(vals)
        r = scipy.stats.spearmanr(gaps, perm[idx]).statistic
        if abs(r) >= abs(rho) - 1e-12:
            hits += 1
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
