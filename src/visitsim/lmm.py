"""Random-intercept linear mixed models fitted by maximum likelihood.

Covers model D (outcome on intercept, treatment, time), model B (adds the
subject's total visit count centred on the dataset mean) and model C (adds
the running count of visits up to and including the current one); each
``Adjustment``'s value is its model label.  The marginal covariance per
subject is sigma_v2 * J + sigma_e2 * I.  For a fixed ratio
rho = sigma_v2 / sigma_e2 the maximum-likelihood alpha is a generalised
least-squares solution and sigma_e2 is RSS / N, so a fit is a one-dimensional
search over log rho of the profiled deviance (Bates, Maechler, Bolker &
Walker, J Stat Softw 2015, section 3.4), on per-subject sums built once.
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
# Brent's method: scipy.optimize.brentq's default tolerances and iteration limit
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAX_ITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """A root of ``f`` between ``xa`` and ``xb``, by the steps of scipy.optimize.brentq.

    Brent's method (Brent, Algorithms for Minimization Without Derivatives,
    1973, ch. 4), line for line as scipy's ``brentq.c`` with its default
    tolerances, so it returns the same root to the bit after the same calls of
    ``f``.  The bracket keeps ``xa``'s sign at one end and ``xb``'s at the other.
    A NaN value of ``f`` or a bracket whose ends have the same sign raises
    ValueError; no convergence in _BRENT_MAX_ITER steps raises EstimationError.
    """
    def value(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)                        # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)                                # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                                             # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis                                                      # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise EstimationError(f"no convergence after {_BRENT_MAX_ITER} iterations, value is {xcur}")


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
        the slope points out of.  Brent's method keeps the negative end of
        its bracket below the positive one, so the root it returns is a minimum.
        """
        lo, hi = LOG_RHO_BOUNDS
        if self.slope(lo) >= 0.0:
            return lo
        if self.slope(hi) <= 0.0:
            return hi
        return _brentq(self.slope, lo, hi)


def _fit_result(label: str, names, estimates: np.ndarray, fval: float, grad: np.ndarray,
                information: np.ndarray, jacobian: np.ndarray, iterations: int, reason: str) -> FitResult:
    """A fit's FitResult under the one convergence rule of models A to D.

    The fit converges iff the negative log likelihood ``fval`` is finite,
    max|grad| < 1e-4 and the inverse of ``information`` has a positive,
    finite diagonal.  Its standard errors are then sqrt of that diagonal
    times ``jacobian``, the derivative of each reported parameter with
    respect to the optimised one it is a function of (delta method).  The
    message is ``reason``, plus max|grad| if the fit did not converge.
    """
    max_grad = np.max(np.abs(grad))
    ses = None
    if np.isfinite(fval) and max_grad < 1e-4:
        try:
            d = np.diag(np.linalg.inv(information))
            if np.all(d > 0) and np.all(np.isfinite(d)):
                ses = np.sqrt(d) * jacobian
        except np.linalg.LinAlgError:
            pass
    converged = ses is not None
    return FitResult(
        model_label=label,
        param_names=names,
        estimates=estimates,
        std_errors=ses if converged else np.full(len(names), np.nan),
        loglik=float(-fval),
        converged=converged,
        iterations=int(iterations),
        message=reason if converged else f"{reason}; max|grad|={max_grad:.2e}",
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
    alpha, rss, _ = profile.at(log_rho)
    log_sigma_e = 0.5 * np.log(rss / profile.N)
    theta = np.concatenate([alpha, [log_sigma_e + 0.5 * log_rho, log_sigma_e]])
    theta.flags.writeable = X.flags.writeable = False
    return theta, X, profile.evaluations


def fit_lmm(panel: PanelDataset, adjustment: Adjustment = Adjustment.NONE) -> FitResult:
    """Maximum-likelihood fit of a random-intercept LMM (models B, C, D).

    log(sigma_v2 / sigma_e2) is the root of the profiled deviance's slope,
    bracketed on LOG_RHO_BOUNDS (or its lower end, sigma_v2 -> 0, when the
    deviance rises from there); alpha and sigma_e2 follow in closed form.
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
