"""Random-intercept linear mixed models fitted by maximum likelihood.

Covers model D (outcome on intercept, treatment, time), model B (adds the
subject's total visit count centred on the dataset mean) and model C (adds
the running count of visits up to and including the current one); each
``Adjustment``'s value is its model label.  The marginal covariance per
subject is sigma_v2 * J + sigma_e2 * I.  For a fixed ratio
rho = sigma_v2 / sigma_e2 the maximum-likelihood alpha is a generalised
least-squares solution and sigma_e2 is RSS / N, so a fit is a one-dimensional
search over log rho of the profiled deviance (Bates, Maechler, Bolker & Walker,
J Stat Softw 2015, section 3.4) by ``survfit._maximise``, on per-subject sums.
``_evaluate`` gives the likelihood, gradient and observed information from
one pass over the per-subject residual sums (rank-one Woodbury identities),
so its cost is linear in the number of rows.  ``_fit_result`` holds the one
convergence rule and the delta-method standard errors of models A to D.
"""

from __future__ import annotations

import enum

import numpy as np

from .domain import FitResult, PanelDataset
from .errors import EstimationError
from .survfit import _PARTS_DERIVATIVES, CONVERGED, _maximise

LOG_2PI = float(np.log(2.0 * np.pi))


class Adjustment(enum.Enum):
    """Observation-process adjustment of the fixed-effects design; its value is the model label."""

    NONE = "D"
    TOTAL_COUNT_CENTERED = "B"
    CUMULATIVE_COUNT = "C"

    @property
    def param_names(self) -> tuple[str, ...]:
        alphas = ["alpha0", "alpha1", "alpha2"]
        if self is not Adjustment.NONE:
            alphas.append("alpha3")
        return tuple(alphas + ["sigma_v2", "sigma_e2"])


def design_matrix(panel: PanelDataset, adjustment: Adjustment) -> np.ndarray:
    """Fixed-effects design: intercept, treatment, time, plus the count column."""
    cols = [np.ones_like(panel.y), panel.z_rows, panel.t]
    if adjustment is Adjustment.TOTAL_COUNT_CENTERED:
        counts = panel.counts.astype(float)
        cols.append(np.repeat(counts - counts.mean(), panel.counts))
    elif adjustment is Adjustment.CUMULATIVE_COUNT:
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


def _evaluate(theta: np.ndarray, X: np.ndarray, panel: PanelDataset, derivs: int):
    """(negloglik, grad, information) at ``theta`` = (alpha, log sigma_v, log sigma_e).

    ``grad`` is None for ``derivs`` 0 and ``information`` (the Hessian of the
    negative log likelihood) None for ``derivs`` < 2.  Per subject the
    negative log likelihood is, up to a constant,
    0.5 * [(n-1) log e + log a + p/e + m/a] with e = sigma_e2, u = sigma_v2,
    a = e + n u, m = s^2/n the between-subject and p = q - m the
    within-subject part of the residual sum of squares q.
    """
    k = X.shape[1]
    u, e = np.exp(2.0 * theta[k:])
    n = panel.counts
    r = panel.y - X @ theta[:k]
    s = panel.group_sum(r)                     # per-subject residual sums
    q = panel.group_sum(r * r)                 # per-subject residual sums of squares
    a = e + n * u                              # eigenvalue along the ones direction
    quad = (q - u * s * s / a) / e
    logdet = (n - 1.0) * np.log(e) + np.log(a)
    fval = 0.5 * (panel.n_rows * LOG_2PI + np.sum(logdet) + np.sum(quad))
    if derivs == 0:
        return fval, None, None

    # d/dalpha: X' Sigma^{-1} r, with Sigma^{-1} r = r/e - (u s / (e a)) 1
    w = np.repeat(u * s / a, n)
    g_alpha = X.T @ ((r - w) / e)
    # d/du = 0.5 * [ (1'Sigma^{-1} r)^2 - tr(Sigma^{-1} J) ] per subject
    sv = s / a
    d_sv2 = 0.5 * np.sum(sv * sv - n / a)
    # d/de = 0.5 * [ r'Sigma^{-2} r - tr(Sigma^{-1}) ]
    m = s * s / n
    p = q - m
    quad2 = p / e**2 + m / (a * a)
    tr = (n - 1.0) / e + 1.0 / a
    d_se2 = 0.5 * np.sum(quad2 - tr)
    grad = -np.concatenate([g_alpha, [2.0 * u * d_sv2, 2.0 * e * d_se2]])
    if derivs == 1:
        return fval, grad, None

    xbar = panel.group_sum(X)
    un = u * n
    info = np.empty((k + 2, k + 2))
    info[:k, :k] = X.T @ X / e - (xbar.T * (u / (e * a))) @ xbar
    info[:k, k] = xbar.T @ (2.0 * u * s / a**2)
    info[:k, k + 1] = (2.0 / e * (X.T @ r - xbar.T @ (s / n))
                       + xbar.T @ (2.0 * e * s / (n * a**2)))
    info[k, k] = np.sum(2.0 * un / a**2 * (e + m * (un - e) / a))
    info[k, k + 1] = np.sum(2.0 * e * un / a**2 * (2.0 * m / a - 1.0))
    info[k + 1, k + 1] = np.sum(2.0 * e * un / a**2 + 2.0 * p / e - 2.0 * e * m * (a - 2.0 * e) / a**3)
    info[k:, :k] = info[:k, k:].T
    info[k + 1, k] = info[k, k + 1]
    return fval, grad, info


def lmm_loglik(alpha, sigma_v2: float, sigma_e2: float, panel,
               adjustment: Adjustment = Adjustment.NONE) -> float:
    """Marginal log likelihood of the random-intercept model at the given parameters.

    The fixed-effects design is built from ``adjustment``.
    """
    if sigma_v2 <= 0 or sigma_e2 <= 0:
        raise ValueError("variance components must be > 0")
    X = design_matrix(panel, adjustment)
    if len(alpha) != X.shape[1]:
        raise ValueError(f"alpha must have length {X.shape[1]}")
    theta = np.concatenate([np.asarray(alpha, dtype=float), 0.5 * np.log([sigma_v2, sigma_e2])])
    return float(-_evaluate(theta, X, panel, 0)[0])


# the search interval of log(sigma_v2 / sigma_e2); at the lower end sigma_v2 is 1.4e-11 * sigma_e2
LOG_RHO_BOUNDS = (-25.0, 15.0)
_PROFILE_GTOL = 1e-10   # the search stops where the profile's slope in log rho is below this


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
        """alpha-hat, the RSS, each subject's residual sum and the A of A alpha-hat = b, at rho."""
        self.evaluations += 1
        c = np.exp(log_rho) / (1.0 + self.n * np.exp(log_rho))
        A = self.XtX - (self.Sx.T * c) @ self.Sx
        b = self.Xty - self.Sx.T @ (c * self.Sy)
        alpha = np.linalg.solve(A, b)
        return alpha, self.yty - c @ (self.Sy * self.Sy) - b @ alpha, self.Sy - self.Sx @ alpha, A

    def parts(self, log_rho):
        """Minus half the profiled deviance N log RSS + sum log(1 + n_i rho), with its slope
        and curvature in log rho, as ``survfit._maximise`` takes them at the 1-vector ``log_rho``.

        With d_i = 1 + n_i rho, dRSS/drho = -sum (s_i / d_i)^2, as alpha-hat's own motion
        drops out at its optimum; the curvature needs dalpha/drho = -A^-1 sum xbar_i s_i / d_i^2.
        """
        _, rss, s, A = self.at(log_rho[0])
        rho = np.exp(log_rho[0])
        d = 1.0 + self.n * rho
        h = s / d
        w = h @ h                                               # -dRSS/drho
        v = self.Sx.T @ (h / d)                                 # dalpha/drho = -A^-1 v
        dw = 2.0 * (v @ np.linalg.solve(A, v) - self.n @ (h * h / d))
        g = np.sum(self.n / d) - self.N * w / rss               # d deviance / drho
        dg = -self.N * (dw / rss + (w / rss) ** 2) - np.sum((self.n / d) ** 2)
        value = -0.5 * (self.N * np.log(rss) + np.sum(np.log(d)))
        return value, np.array([-0.5 * rho * g]), np.array([[-0.5 * rho * (g + rho * dg)]])

    def argmin(self) -> float:
        """log rho at a local minimum of the profiled deviance on LOG_RHO_BOUNDS.

        That is a bound the deviance's slope points out of, or else the maximum of
        ``parts`` that ``survfit._maximise`` reaches from log rho = 0; where the
        profile is convex, left of its peak, the trust-region step still goes uphill.
        A failed search raises EstimationError.
        """
        lo, hi = LOG_RHO_BOUNDS
        if self.parts([lo])[1][0] <= 0.0:
            return lo
        if self.parts([hi])[1][0] >= 0.0:
            return hi
        log_rho, *_, reason = _maximise(self.parts, _PARTS_DERIVATIVES, np.zeros(1), _PROFILE_GTOL)
        if reason != CONVERGED:
            raise EstimationError(f"profile search: {reason}")
        return float(log_rho[0])


def _fit_result(label: str, names, estimates: np.ndarray, fval: float, grad: np.ndarray,
                information: np.ndarray, jacobian: np.ndarray, iterations: int, reason: str) -> FitResult:
    """A fit's FitResult under the one convergence rule of models A to D.

    The fit converges iff the negative log likelihood ``fval`` is finite,
    max|grad| < 1e-4 and the inverse of ``information`` has a positive,
    finite diagonal.  Its standard errors are then sqrt of that diagonal
    times ``jacobian``, the derivative of each reported parameter with
    respect to the optimised one it is a function of (delta method).  The
    message is ``reason``, plus max|grad| and the rule that failed if the
    fit did not converge.
    """
    max_grad = np.max(np.abs(grad))
    ses, failed = None, None
    if not np.isfinite(fval):
        failed = "log likelihood not finite"
    elif not max_grad < 1e-4:
        failed = "max|grad| not below 1e-4"
    else:
        try:
            d = np.diag(np.linalg.inv(information))
        except np.linalg.LinAlgError:
            failed = "information singular"
        else:
            if np.all(d > 0) and np.all(np.isfinite(d)):
                ses = np.sqrt(d) * jacobian
            else:
                failed = "inverse information has a diagonal entry not positive and finite"
    converged = ses is not None
    return FitResult(
        model_label=label,
        param_names=names,
        estimates=estimates,
        std_errors=ses if converged else np.full(len(names), np.nan),
        loglik=float(-fval),
        converged=converged,
        iterations=int(iterations),
        message=reason if converged else f"{reason}; max|grad|={max_grad:.2e}; {failed}",
    )


def _lmm_estimates(panel: PanelDataset, adjustment: Adjustment):
    """Point estimates of a random-intercept LMM as (theta, X, profile evaluations).

    ``theta`` is (alpha, log sigma_v, log sigma_e); it and X are read-only.
    """
    if panel.n_subjects < 2:
        raise EstimationError("fit_lmm needs at least 2 subjects")
    X = design_matrix(panel, adjustment)
    _check_design(X, adjustment.param_names)
    profile = _Profile(X, panel)
    log_rho = profile.argmin()
    alpha, rss, _, _ = profile.at(log_rho)
    log_sigma_e = 0.5 * np.log(rss / profile.N)
    theta = np.concatenate([alpha, [log_sigma_e + 0.5 * log_rho, log_sigma_e]])
    theta.flags.writeable = X.flags.writeable = False
    return theta, X, profile.evaluations


def fit_lmm(panel: PanelDataset, adjustment: Adjustment = Adjustment.NONE) -> FitResult:
    """Maximum-likelihood fit of a random-intercept LMM (models B, C, D).

    log(sigma_v2 / sigma_e2) minimises the profiled deviance on LOG_RHO_BOUNDS:
    a bound (the lower one is sigma_v2 -> 0) where the deviance rises from it,
    or else the minimum ``survfit._maximise`` reaches from log rho = 0; alpha and
    sigma_e2 follow in closed form.
    Standard errors come from the inverse of the closed-form observed
    information in (alpha, log sigma_v, log sigma_e), mapped to the reported
    sigma^2 by the delta method.  ``iterations`` counts profile evaluations.
    The point estimates are kept with the panel, for model A's start to share.
    """
    theta, X, evaluations = panel.derived(_lmm_estimates, adjustment)
    fval, grad, info = _evaluate(theta, X, panel, 2)
    k = X.shape[1]
    sigma_v2, sigma_e2 = np.exp(2.0 * theta[k:])
    estimates = np.concatenate([theta[:k], [sigma_v2, sigma_e2]])
    # variance components are reported as sigma^2 = exp(2 theta)
    jacobian = np.concatenate([np.ones(k), [2.0 * sigma_v2, 2.0 * sigma_e2]])
    return _fit_result(adjustment.value, adjustment.param_names, estimates, fval, grad, info, jacobian,
                       evaluations, "profile search")
