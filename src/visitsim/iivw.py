"""Inverse-intensity-of-visiting weights and the weighted marginal model (model E).

Raw weights invert the fitted Andersen-Gill linear predictor, are normalised
to mean one over the whole dataset (subtract the mean, add one), then shifted
forward by one visit: the weight computed at visit j attaches to visit j+1,
and every subject's first (baseline) observation gets weight one.  The
marginal outcome model is weighted least squares with an independence working
correlation and cluster-robust standard errors.
"""

from __future__ import annotations

import warnings

import numpy as np

from .domain import FitResult, PanelDataset
from .errors import EstimationError, ValidationError
from .lmm import Adjustment, design_matrix
from .survfit import CoxFit, _CoxData, fit_andersen_gill

PARAM_NAMES = ("alpha0", "alpha1", "alpha2")


def compute_iiv_weights(coxfit: CoxFit, panel: PanelDataset) -> np.ndarray:
    """One normalised, shifted visit weight per panel row from a fitted weight model."""
    if not coxfit.converged:
        raise EstimationError("weight model did not converge; cannot build weights")
    eta = np.asarray(coxfit.eta, dtype=float)
    raw = np.exp(-(panel.z[:, None] @ eta))
    # cumsum keeps the sequential sum over subjects; a pairwise sum moves the golden digests
    mean_raw = np.cumsum(raw * panel.counts)[-1] / panel.n_rows
    # shift: the weight computed at visit j-1 attaches to visit j; baselines get one
    weights = np.repeat(raw - mean_raw + 1.0, panel.counts)
    weights[panel.starts] = 1.0
    negative = np.count_nonzero(weights <= 0)
    if negative:
        warnings.warn(f"{negative} normalised visit weight(s) are <= 0; used as-is", stacklevel=2)
    return weights


def fit_wgee(panel: PanelDataset, weights: np.ndarray) -> FitResult:
    """Weighted GEE (identity link, independence working correlation) for the outcome.

    ``weights`` holds one value per panel row.  Point estimates solve the
    weighted normal equations; standard errors are cluster-robust, clustered
    on subject.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (panel.n_rows,):
        raise ValidationError(f"expected one weight per panel row, shape ({panel.n_rows},); "
                              f"got shape {w.shape}")

    X = design_matrix(panel, Adjustment.NONE)
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

    Only the weight model's coefficients are used; its covariance is never
    computed.
    """
    coxfit = fit_andersen_gill(panel.derived(_CoxData.from_panel))
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
