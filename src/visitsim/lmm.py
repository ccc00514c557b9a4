"""Random-intercept linear mixed models fitted by maximum likelihood.

Covers model D (outcome on intercept, treatment, time), model B (adds the
subject's total visit count centred on the dataset mean) and model C (adds
the running count of visits up to and including the current one).  The
marginal covariance per subject is sigma_v2 * J + sigma_e2 * I; likelihood,
gradient and information all use the rank-one Woodbury identities, so the
cost is linear in the number of rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .domain import FitResult, PanelDataset
from .errors import EstimationError

LOG_2PI = float(np.log(2.0 * np.pi))


class Adjustment(enum.Enum):
    """Observation-process adjustment used in the fixed-effects design."""

    NONE = "none"                            # model D
    TOTAL_COUNT_CENTERED = "total_count"     # model B
    CUMULATIVE_COUNT = "cumulative_count"    # model C


_MODEL_LABEL = {
    Adjustment.NONE: "D",
    Adjustment.TOTAL_COUNT_CENTERED: "B",
    Adjustment.CUMULATIVE_COUNT: "C",
}


@dataclass(frozen=True)
class LmmSpec:
    adjustment: Adjustment = Adjustment.NONE

    @property
    def model_label(self) -> str:
        return _MODEL_LABEL[self.adjustment]

    @property
    def param_names(self) -> tuple[str, ...]:
        alphas = ["alpha0", "alpha1", "alpha2"]
        if self.adjustment is not Adjustment.NONE:
            alphas.append("alpha3")
        return tuple(alphas + ["sigma_v2", "sigma_e2"])


def design_matrix(panel: PanelDataset, spec: LmmSpec) -> np.ndarray:
    """Fixed-effects design: intercept, treatment, time, plus the count column."""
    cols = [np.ones_like(panel.y), panel.z_rows, panel.t]
    if spec.adjustment is Adjustment.TOTAL_COUNT_CENTERED:
        counts = panel.counts.astype(float)
        cols.append(np.repeat(counts - counts.mean(), panel.counts))
    elif spec.adjustment is Adjustment.CUMULATIVE_COUNT:
        # running 1-based count of visits with time <= current visit time
        cols.append(np.arange(1.0, panel.n_rows + 1.0) - np.repeat(panel.starts, panel.counts))
    return np.column_stack(cols)


def _check_design(X: np.ndarray, names) -> None:
    scale = np.linalg.norm(X, axis=0)
    scale[scale == 0] = 1.0
    r = np.abs(np.diag(np.linalg.qr(X / scale, mode="r")))
    bad = np.nonzero(r < 1e-10)[0]
    if bad.size:
        raise EstimationError(f"singular design: column {names[bad[0]]!r} is collinear")


def _loglik_parts(X: np.ndarray, panel: PanelDataset, alpha, sigma_v2: float, sigma_e2: float):
    """Per-subject pieces of the marginal Gaussian log likelihood."""
    r = panel.y - X @ np.asarray(alpha, dtype=float)
    s = panel.group_sum(r)                     # per-subject residual sums
    q = panel.group_sum(r * r)                 # per-subject residual sums of squares
    a = sigma_e2 + panel.counts * sigma_v2     # eigenvalue along the ones direction
    quad = (q - sigma_v2 * s * s / a) / sigma_e2
    logdet = (panel.counts - 1.0) * np.log(sigma_e2) + np.log(a)
    return r, s, q, a, quad, logdet


def lmm_loglik(alpha, sigma_v2: float, sigma_e2: float, panel, spec: LmmSpec | None = None) -> float:
    """Marginal log likelihood of the random-intercept model at the given parameters.

    The fixed-effects design is built from ``spec`` (default: no adjustment).
    """
    if sigma_v2 <= 0 or sigma_e2 <= 0:
        raise ValueError("variance components must be > 0")
    X = design_matrix(panel, spec or LmmSpec())
    if len(alpha) != X.shape[1]:
        raise ValueError(f"alpha must have length {X.shape[1]}")
    *_, quad, logdet = _loglik_parts(X, panel, alpha, sigma_v2, sigma_e2)
    return float(-0.5 * (panel.n_rows * LOG_2PI + np.sum(logdet) + np.sum(quad)))


def _negloglik_and_grad(theta: np.ndarray, X: np.ndarray, panel: PanelDataset):
    """Negative log likelihood and gradient in (alpha, log sigma_v, log sigma_e)."""
    k = X.shape[1]
    alpha = theta[:k]
    sigma_v2 = np.exp(2.0 * theta[k])
    sigma_e2 = np.exp(2.0 * theta[k + 1])

    r, s, q, a, quad, logdet = _loglik_parts(X, panel, alpha, sigma_v2, sigma_e2)
    loglik = -0.5 * (panel.n_rows * LOG_2PI + np.sum(logdet) + np.sum(quad))

    # d/dalpha: X' Sigma^{-1} r, with Sigma^{-1} r = r/sigma_e2 - (sigma_v2 s / (sigma_e2 a)) 1
    w = np.repeat(sigma_v2 * s / a, panel.counts)
    g_alpha = X.T @ ((r - w) / sigma_e2)

    # d/dsigma_v2 = 0.5 * [ (1'Sigma^{-1} r)^2 - tr(Sigma^{-1} J) ] per subject
    sv = s / a
    d_sv2 = 0.5 * np.sum(sv * sv - panel.counts / a)
    # d/dsigma_e2 = 0.5 * [ r'Sigma^{-2} r - tr(Sigma^{-1}) ]
    r_perp2 = q - s * s / panel.counts
    quad2 = r_perp2 / sigma_e2**2 + (s * s / panel.counts) / (a * a)
    tr = (panel.counts - 1.0) / sigma_e2 + 1.0 / a
    d_se2 = 0.5 * np.sum(quad2 - tr)

    grad = np.concatenate([g_alpha, [2.0 * sigma_v2 * d_sv2, 2.0 * sigma_e2 * d_se2]])
    return -loglik, -grad


def _observed_information(fun_grad, theta: np.ndarray) -> np.ndarray:
    """Central finite differences of the (negative-loglik) gradient."""
    n = len(theta)
    info = np.empty((n, n))
    for j in range(n):
        h = 1e-5 * (1.0 + abs(theta[j]))
        tp = theta.copy()
        tp[j] += h
        tm = theta.copy()
        tm[j] -= h
        info[:, j] = (fun_grad(tp)[1] - fun_grad(tm)[1]) / (2.0 * h)
    return 0.5 * (info + info.T)


def _se_from_information(info: np.ndarray, jacobian: np.ndarray):
    """Delta-method standard errors from an observed information matrix, or None if not PD.

    ``jacobian`` holds the derivative of each reported parameter with respect
    to the optimised one it is a function of.
    """
    try:
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        return None
    d = np.diag(cov)
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        return None
    return np.sqrt(d) * jacobian


def _starting_values(X: np.ndarray, panel: PanelDataset) -> np.ndarray:
    alpha0, *_ = np.linalg.lstsq(X, panel.y, rcond=None)
    r = panel.y - X @ alpha0
    means = panel.group_sum(r) / panel.counts
    within = panel.group_sum(r * r) - panel.counts * means**2
    dof = max(np.sum(panel.counts - 1.0), 1.0)
    sigma_e2 = max(np.sum(within) / dof, 1e-4)
    sigma_v2 = max(np.var(means), 1e-4)
    return np.concatenate([alpha0, [0.5 * np.log(sigma_v2), 0.5 * np.log(sigma_e2)]])


MAX_ITER = 500
GRAD_TOL = 1e-6
PARAM_TOL = 1e-8


def _standardize(X: np.ndarray):
    """Center/scale the non-intercept columns; return (Xs, transform-to-original)."""
    k = X.shape[1]
    means = X.mean(axis=0)
    scales = X.std(axis=0)
    means[0], scales[0] = 0.0, 1.0
    scales[scales == 0] = 1.0
    Xs = (X - means) / scales

    def to_original(alpha_s: np.ndarray) -> np.ndarray:
        alpha = alpha_s / scales
        alpha[0] -= np.sum(alpha_s[1:] * means[1:] / scales[1:])
        return alpha

    return Xs, to_original, k


def _newton_polish(fun_grad, theta: np.ndarray, f: float, g: np.ndarray,
                   gtol: float, max_steps: int, step_tol: float):
    """Drive the gradient to ~0 from an almost-converged point with value ``f`` and gradient ``g``.

    Newton steps on the observed information, halved until ``f`` does not
    rise.  Returns (theta, f, g, info).  ``info`` is the observed information
    the loop built last, or None if it built none after its last accepted
    step; it is at the returned ``theta`` except after a step smaller than
    ``step_tol``, where it predates that step.
    """
    info = None
    for _ in range(max_steps):
        if np.max(np.abs(g)) < gtol:
            break
        info = _observed_information(fun_grad, theta)
        try:
            step = np.linalg.solve(info, g)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(20):
            cand = theta - scale * step
            fc, gc = fun_grad(cand)
            if fc <= f + 1e-12:
                theta, f, g = cand, fc, gc
                break
            scale *= 0.5
        else:
            break
        if np.max(np.abs(scale * step)) < step_tol:
            break
        info = None
    return theta, f, g, info


def _fit_result(label: str, names, estimates: np.ndarray, ses, res, fval: float,
                grad: np.ndarray) -> FitResult:
    """The FitResult of an optimiser run: converged iff ``ses`` is given, else NaN SEs and why."""
    converged = ses is not None
    return FitResult(
        model_label=label,
        param_names=names,
        estimates=estimates,
        std_errors=ses if converged else np.full(len(names), np.nan),
        loglik=float(-fval),
        converged=converged,
        iterations=int(res.nit),
        message="" if converged else f"optimizer: {res.message}; max|grad|={np.max(np.abs(grad)):.2e}",
    )


def _lmm_estimates(panel: PanelDataset, spec: LmmSpec):
    """Point estimates of a random-intercept LMM as (theta, X, optimiser result, fval, grad).

    ``theta`` is (alpha, log sigma_v, log sigma_e) on the original design ``X``.
    """
    if panel.n_subjects < 2:
        raise EstimationError("fit_lmm needs at least 2 subjects")
    X = design_matrix(panel, spec)
    _check_design(X, spec.param_names)

    # optimize (and judge convergence) on unit-scale columns; raw count columns
    # put curvatures of ~1e9 on some axes, where no gradient norm is meaningful
    Xs, to_original, k = _standardize(X)
    res = scipy.optimize.minimize(
        _negloglik_and_grad,
        _starting_values(Xs, panel),
        args=(Xs, panel),
        jac=True,
        method="BFGS",
        options={"gtol": GRAD_TOL, "maxiter": MAX_ITER},
    )
    fun_grad_s = lambda t: _negloglik_and_grad(t, Xs, panel)  # noqa: E731
    theta_s, fval, grad, _ = _newton_polish(fun_grad_s, res.x, res.fun, res.jac, GRAD_TOL, 10, PARAM_TOL)
    theta = np.concatenate([to_original(theta_s[:k]), theta_s[k:]])
    return theta, X, res, fval, grad


def fit_lmm(panel: PanelDataset, spec: LmmSpec | None = None) -> FitResult:
    """Maximum-likelihood fit of a random-intercept LMM (models B, C, D).

    Quasi-Newton on (alpha, log sigma_v, log sigma_e), followed by a Newton
    polish, both on the design standardized internally for conditioning.
    Standard errors come from the inverse observed information (finite
    differences of the analytic gradient) in the reported parameterisation.
    """
    spec = spec or LmmSpec()
    theta, X, res, fval, grad = _lmm_estimates(panel, spec)
    k = X.shape[1]
    sigma_v2 = float(np.exp(2.0 * theta[k]))
    sigma_e2 = float(np.exp(2.0 * theta[k + 1]))
    estimates = np.concatenate([theta[:k], [sigma_v2, sigma_e2]])

    ses = None
    if np.max(np.abs(grad)) < 1e-4:
        info = _observed_information(lambda t: _negloglik_and_grad(t, X, panel), theta)
        # variance components are reported as sigma^2 = exp(2 theta)
        ses = _se_from_information(info, np.concatenate([np.ones(k), [2.0 * sigma_v2, 2.0 * sigma_e2]]))
    return _fit_result(spec.model_label, spec.param_names, estimates, ses, res, fval, grad)
