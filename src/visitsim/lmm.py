"""Random-intercept linear mixed models fitted by maximum likelihood.

Covers model D (outcome on intercept, treatment, time), model B (adds the
subject's total visit count centred on the dataset mean) and model C (adds
the running count of visits up to and including the current one).  The
marginal covariance per subject is sigma_v2 * J + sigma_e2 * I.  For a fixed
ratio rho = sigma_v2 / sigma_e2 the maximum-likelihood alpha is a generalised
least-squares solution and sigma_e2 is RSS / N, so a fit is a one-dimensional
search over log rho of the profiled deviance (Bates, Maechler, Bolker &
Walker, J Stat Softw 2015, section 3.4), on per-subject sums built once.
Likelihood, gradient and observed information use the rank-one Woodbury
identities, so their cost is linear in the number of rows.  Model A's fit
shares ``_se_from_information`` and ``_fit_result``.
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


MAX_ITER = 500
GRAD_TOL = 1e-6
# the search interval of log(sigma_v2 / sigma_e2); at the lower end sigma_v2 is 1.4e-11 * sigma_e2
LOG_RHO_BOUNDS = (-25.0, 15.0)


class _Profile:
    """The likelihood profiled over alpha and sigma_e2, as a function of log rho.

    Holds X'X, X'y, y'y and the per-subject sums of X and y, so each
    evaluation costs O(subjects * k^2) whatever the number of rows.
    ``evaluations`` counts the calls of ``at``.
    """

    def __init__(self, X: np.ndarray, panel: PanelDataset):
        self.n = panel.counts.astype(float)
        self.N = float(panel.n_rows)
        self.XtX = X.T @ X
        self.Xty = X.T @ panel.y
        self.yty = float(panel.y @ panel.y)
        self.Sx = panel.group_sum(X)
        self.Sy = panel.group_sum(panel.y)
        self.evaluations = 0

    def at(self, log_rho: float):
        """alpha-hat, the residual sum of squares and each subject's residual sum at rho."""
        self.evaluations += 1
        c = np.exp(log_rho) / (1.0 + self.n * np.exp(log_rho))
        A = self.XtX - (self.Sx.T * c) @ self.Sx
        b = self.Xty - self.Sx.T @ (c * self.Sy)
        alpha = np.linalg.solve(A, b)
        return alpha, self.yty - c @ (self.Sy * self.Sy) - b @ alpha, self.Sy - self.Sx @ alpha

    def slope(self, log_rho: float) -> float:
        """d/d log rho of the profiled deviance N log RSS + sum log(1 + n_i rho).

        alpha-hat's own motion drops out at its optimum, so only rho's
        explicit terms count.
        """
        _, rss, s = self.at(log_rho)
        rho = np.exp(log_rho)
        d = 1.0 + self.n * rho
        return rho * (np.sum(self.n / d) - self.N * np.sum((s / d) ** 2) / rss)

    def argmin(self) -> float:
        """log rho at a local minimum of the profiled deviance on LOG_RHO_BOUNDS.

        That is a root of the slope where it rises through zero, or a bound
        the slope points out of.  brentq keeps the negative end of its
        bracket below the positive one, so the root it returns is a minimum.
        """
        lo, hi = LOG_RHO_BOUNDS
        if self.slope(lo) >= 0.0:
            return lo
        if self.slope(hi) <= 0.0:
            return hi
        return scipy.optimize.brentq(self.slope, lo, hi)


def _information(theta: np.ndarray, X: np.ndarray, panel: PanelDataset) -> np.ndarray:
    """Observed information (Hessian of the negative log likelihood) in (alpha, log sigma_v, log sigma_e).

    Per subject the negative log likelihood is, up to a constant,
    0.5 * [(n-1) log e + log a + p/e + m/a] with e = sigma_e2, u = sigma_v2,
    a = e + n u, m = s^2/n the between-subject and p = q - m the
    within-subject part of the residual sum of squares.
    """
    k = X.shape[1]
    u, e = np.exp(2.0 * theta[k:])
    r, s, q, a, *_ = _loglik_parts(X, panel, theta[:k], u, e)
    xbar = panel.group_sum(X)
    m = s * s / panel.counts
    p = q - m
    un = u * panel.counts
    info = np.empty((k + 2, k + 2))
    info[:k, :k] = X.T @ X / e - (xbar.T * (u / (e * a))) @ xbar
    info[:k, k] = xbar.T @ (2.0 * u * s / a**2)
    info[:k, k + 1] = (2.0 / e * (X.T @ r - xbar.T @ (s / panel.counts))
                       + xbar.T @ (2.0 * e * s / (panel.counts * a**2)))
    info[k, k] = np.sum(2.0 * un / a**2 * (e + m * (un - e) / a))
    info[k, k + 1] = np.sum(2.0 * e * un / a**2 * (2.0 * m / a - 1.0))
    info[k + 1, k + 1] = np.sum(2.0 * e * un / a**2 + 2.0 * p / e - 2.0 * e * m * (a - 2.0 * e) / a**3)
    info[k:, :k] = info[:k, k:].T
    info[k + 1, k] = info[k, k + 1]
    return info


def _fit_result(label: str, names, estimates: np.ndarray, ses, fval: float, grad: np.ndarray,
                iterations: int, reason: str) -> FitResult:
    """A fit's FitResult: converged iff ``ses`` is given.  The message is ``reason``, plus max|grad| if not."""
    converged = ses is not None
    return FitResult(
        model_label=label,
        param_names=names,
        estimates=estimates,
        std_errors=ses if converged else np.full(len(names), np.nan),
        loglik=float(-fval),
        converged=converged,
        iterations=int(iterations),
        message=reason if converged else f"{reason}; max|grad|={np.max(np.abs(grad)):.2e}",
    )


def _lmm_estimates(panel: PanelDataset, spec: LmmSpec):
    """Point estimates of a random-intercept LMM as (theta, X, profile evaluations, fval, grad).

    ``theta`` is (alpha, log sigma_v, log sigma_e); ``fval`` and ``grad`` are
    the negative log likelihood and its gradient there.
    """
    if panel.n_subjects < 2:
        raise EstimationError("fit_lmm needs at least 2 subjects")
    X = design_matrix(panel, spec)
    _check_design(X, spec.param_names)
    profile = _Profile(X, panel)
    log_rho = profile.argmin()
    alpha, rss, _ = profile.at(log_rho)
    log_sigma_e = 0.5 * np.log(rss / profile.N)
    theta = np.concatenate([alpha, [log_sigma_e + 0.5 * log_rho, log_sigma_e]])
    fval, grad = _negloglik_and_grad(theta, X, panel)
    return theta, X, profile.evaluations, fval, grad


def fit_lmm(panel: PanelDataset, spec: LmmSpec | None = None) -> FitResult:
    """Maximum-likelihood fit of a random-intercept LMM (models B, C, D).

    log(sigma_v2 / sigma_e2) is the root of the profiled deviance's slope,
    bracketed on LOG_RHO_BOUNDS (or its lower end, sigma_v2 -> 0, when the
    deviance rises from there); alpha and sigma_e2 follow in closed form.
    Standard errors come from the inverse of the closed-form observed
    information in (alpha, log sigma_v, log sigma_e), mapped to the reported
    sigma^2 by the delta method.  ``iterations`` counts profile evaluations.
    """
    spec = spec or LmmSpec()
    theta, X, evaluations, fval, grad = _lmm_estimates(panel, spec)
    k = X.shape[1]
    sigma_v2, sigma_e2 = np.exp(2.0 * theta[k:])
    estimates = np.concatenate([theta[:k], [sigma_v2, sigma_e2]])

    ses = None
    if np.max(np.abs(grad)) < 1e-4:
        # variance components are reported as sigma^2 = exp(2 theta)
        ses = _se_from_information(_information(theta, X, panel),
                                   np.concatenate([np.ones(k), [2.0 * sigma_v2, 2.0 * sigma_e2]]))
    return _fit_result(spec.model_label, spec.param_names, estimates, ses, fval, grad,
                       evaluations, "profile search")
