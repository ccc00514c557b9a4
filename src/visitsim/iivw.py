"""Inverse-intensity-of-visiting weights and the weighted marginal model (model E).

Raw weights invert the fitted Andersen-Gill linear predictor, are normalised
to mean one over the whole dataset (subtract the mean, add one), then shifted
forward by one visit: the weight computed at visit j attaches to visit j+1,
and every subject's first (baseline) observation gets weight one.  The
marginal outcome model is weighted least squares with an independence working
correlation and cluster-robust standard errors.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np

from .domain import FitResult, PanelDataset, write_atomic
from .errors import EstimationError, ValidationError
from .survfit import CoxFit, _CoxData, fit_andersen_gill

PARAM_NAMES = ("alpha0", "alpha1", "alpha2")

WEIGHT_CSV_COLUMNS = ("subject_id", "visit_index", "weight")


@dataclass(frozen=True)
class WeightTable:
    """Visit-level weights keyed by (subject_id, 0-based visit index)."""

    weights: dict[tuple[int, int], float]

    def weight_for(self, subject_id: int, visit_index: int) -> float:
        return self.weights[(subject_id, visit_index)]

    def __len__(self) -> int:
        return len(self.weights)

    def write_csv(self, path) -> None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(WEIGHT_CSV_COLUMNS)
        for (sid, j), value in sorted(self.weights.items()):
            w.writerow([sid, j, repr(float(value))])
        write_atomic(path, buf.getvalue())


def compute_iiv_weights(coxfit: CoxFit, panel: PanelDataset) -> WeightTable:
    """Build the normalised, shifted visit weights from a fitted weight model."""
    if not coxfit.converged:
        raise EstimationError("weight model did not converge; cannot build weights")
    eta = np.asarray(coxfit.eta, dtype=float)

    raw_by_subject = {}
    total, count = 0.0, 0
    for s in panel.subjects:
        cov = np.array([float(s.z)])
        raw = float(np.exp(-cov @ eta))
        raw_by_subject[s.id] = raw
        total += raw * s.n_visits
        count += s.n_visits
    mean_raw = total / count

    weights: dict[tuple[int, int], float] = {}
    negative = 0
    for s in panel.subjects:
        normalized = raw_by_subject[s.id] - mean_raw + 1.0
        weights[(s.id, 0)] = 1.0
        for j in range(1, s.n_visits):
            # shift: the weight computed at visit j-1 attaches to visit j
            weights[(s.id, j)] = normalized
            if normalized <= 0:
                negative += 1
    if negative:
        warnings.warn(f"{negative} normalised visit weight(s) are <= 0; used as-is", stacklevel=2)
    return WeightTable(weights)


def fit_wgee(panel: PanelDataset, weights: WeightTable) -> FitResult:
    """Weighted GEE (identity link, independence working correlation) for the outcome.

    Point estimates solve the weighted normal equations; standard errors are
    cluster-robust, clustered on subject.
    """
    w = np.empty(panel.n_rows)
    pos = 0
    for s in panel.subjects:
        for j in range(s.n_visits):
            key = (s.id, j)
            if key not in weights.weights:
                raise ValidationError(f"missing weight for subject {s.id}, visit {j}")
            w[pos] = weights.weights[key]
            pos += 1

    X = np.column_stack([np.ones_like(panel.y), panel.z_rows, panel.t])
    y = panel.y
    XtW = X.T * w
    bread = XtW @ X
    try:
        alpha = np.linalg.solve(bread, XtW @ y)
        bread_inv = np.linalg.inv(bread)
    except np.linalg.LinAlgError as exc:
        raise EstimationError("singular weighted normal equations") from exc

    resid = y - X @ alpha
    meat = np.zeros((3, 3))
    for start, n in zip(panel.starts, panel.counts):
        sl = slice(start, start + n)
        g = X[sl].T @ (w[sl] * resid[sl])
        meat += np.outer(g, g)
    cov = bread_inv @ meat @ bread_inv
    ses = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    return FitResult(
        model_label="E",
        param_names=PARAM_NAMES,
        estimates=alpha,
        std_errors=ses,
        loglik=None,
        converged=True,
        iterations=1,
    )


def fit_iivw(panel: PanelDataset) -> FitResult:
    """Two-stage model E: Andersen-Gill weight model, then weighted GEE.

    Only the weight model's coefficients are used, so it is fitted with the
    cheap sandwich robust covariance rather than the jackknife.
    """
    coxfit = fit_andersen_gill(_CoxData.from_panel(panel), robust="sandwich")
    if not coxfit.converged:
        return FitResult(
            model_label="E",
            param_names=PARAM_NAMES,
            estimates=np.full(3, np.nan),
            std_errors=np.full(3, np.nan),
            loglik=None,
            converged=False,
            iterations=coxfit.iterations,
            message=f"weight model: {coxfit.message}",
        )
    return fit_wgee(panel, compute_iiv_weights(coxfit, panel))
