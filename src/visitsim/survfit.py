"""Andersen-Gill recurrent-events Cox model on the gap-time scale.

Every fit reads a panel's gaps through ``_CoxData.from_panel``.  The
partial likelihood treats every gap as one risk interval on the renewal
clock: the risk set at an event gap g contains all gaps (observed or
censored) with length >= g.  Ties are handled with the Breslow
approximation.  ``_jackknife_cov`` gives a leave-one-subject-out grouped
jackknife covariance from one-step Newton replicates.

``_maximise`` is the package's one optimiser, a trust-region Newton method on
the exact Hessian.  It fits this model, the marginal Weibull PH fit behind
model A's start values, model A itself and the profile search of models B to D.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError

DIVERGENCE_BOUND = 30.0
# the optimiser: its iteration limit and its stop at the score tolerance; the trust region's acceptance
# ratio and largest radius; the tolerance, iteration limit and floor of the step's secular equation
MAX_ITER = 500
CONVERGED = "score below tolerance"
_ETA = 0.15
_MAX_RADIUS = 1000.0
_STEP_RTOL = 1e-10
_STEP_MAX_ITER = 100
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps
_PARTS_DERIVATIVES = operator.itemgetter(1, 2)   # the score and Hessian of a (value, score, Hessian) tuple


def _grad_tol(n_events: int) -> float:
    # cumsum-based risk sums carry O(n*eps) rounding noise (about 2e-7 on 3e5 gaps); stay above it
    return min(1e-8 * max(1.0, float(n_events)) ** 0.5, 1e-6)


@dataclass(frozen=True)
class CoxFit:
    """Result of an Andersen-Gill fit."""

    eta: np.ndarray
    loglik: float
    converged: bool
    n_events: int
    iterations: int
    message: str = ""


class _CoxData:
    """Gaps, event flags, covariates and subject ids, sorted by descending gap for
    prefix-sum risk sets; the arrays are read-only."""

    def __init__(self, gaps, events, covariates, subjects):
        gaps = np.asarray(gaps, dtype=float)
        events = np.asarray(events, dtype=bool)
        Z = np.asarray(covariates, dtype=float)
        if Z.ndim == 1:
            Z = Z[:, None]
        subjects = np.asarray(subjects)
        order = np.argsort(-gaps, kind="stable")
        self.gaps = gaps[order]
        self.events = events[order]
        self.Z = Z[order]
        self.subjects = subjects[order]
        self.n, self.d = self.Z.shape
        # Breslow: tied event gaps share the denominator over all records with gap >= g.
        # With the descending sort, that denominator is the prefix sum up to the last
        # record of the tie group.
        self.risk_end = np.searchsorted(-self.gaps, -self.gaps, side="right") - 1
        self.event_idx = np.nonzero(self.events)[0]
        self.n_events = len(self.event_idx)
        for arr in (self.gaps, self.events, self.Z, self.subjects, self.risk_end, self.event_idx):
            arr.flags.writeable = False

    @classmethod
    def from_panel(cls, panel, covariate=None):
        """A panel's gaps, with one covariate value per subject (default: z)."""
        values = panel.z if covariate is None else np.asarray(covariate, dtype=float)
        return cls(panel.gaps, panel.observed, np.repeat(values, panel.counts),
                   np.repeat(panel.ids, panel.counts))

    def drop_subject(self, subject) -> "_CoxData":
        # the masked arrays stay sorted, so the constructor's stable sort keeps their order
        keep = self.subjects != subject
        return _CoxData(self.gaps[keep], self.events[keep], self.Z[keep], self.subjects[keep])


def _loglik_grad_hess(data: _CoxData, eta: np.ndarray):
    eta = np.asarray(eta, dtype=float)
    lin = data.Z @ eta
    lin_max = lin.max() if len(lin) else 0.0
    w = np.exp(lin - lin_max)  # common factor cancels inside the log-ratio terms
    s0 = np.cumsum(w)
    s1 = np.cumsum(w[:, None] * data.Z, axis=0)
    s2 = np.cumsum(w[:, None, None] * (data.Z[:, :, None] * data.Z[:, None, :]), axis=0)

    idx = data.risk_end[data.event_idx]
    S0 = s0[idx]
    S1 = s1[idx]
    S2 = s2[idx]
    zbar = S1 / S0[:, None]

    loglik = float(np.sum(lin[data.event_idx] - np.log(S0) - lin_max))
    grad = np.sum(data.Z[data.event_idx] - zbar, axis=0)
    hess = -(np.sum(S2 / S0[:, None, None], axis=0) - zbar.T @ zbar)
    return loglik, grad, hess


def cox_partial_loglik(eta, data: _CoxData):
    """Breslow partial log likelihood with gradient and Hessian at ``eta``."""
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")
    return _loglik_grad_hess(data, np.atleast_1d(np.asarray(eta, dtype=float)))


def _trust_region_step(w: np.ndarray, V: np.ndarray, g: np.ndarray, radius: float):
    """(p, lam): the minimiser p of g'p + p'Bp/2 over |p| <= ``radius``, B = V diag(w) V'.

    ``w`` and ``V`` are ``np.linalg.eigh(B)``'s, ``w`` ascending.  The step
    solves (B + lam I) p = -g with lam >= 0, B + lam I positive semi-definite
    and lam (radius - |p|) = 0 (Moré & Sorensen, SIAM J Sci Stat Comput 1983):
    the Newton step if B is positive definite and the step fits, otherwise
    |p| = radius.  In the eigenbasis |p|^2 is a sum over the eigenvalues, and
    lam comes from Newton's method on 1/|p| - 1/radius, which is concave in lam
    and so approached monotonically from below.  In the hard case (g orthogonal to
    the lowest eigenvector and the step at lam = -w[0] too short) the step is
    completed along that eigenvector.
    """
    gt = V.T @ g
    if w[0] > 0.0:
        p = gt / w
        if p @ p <= radius * radius:
            return -(V @ p), 0.0
    # mu = lam + w[0], the lowest eigenvalue of B + lam I, is kept apart from the spread
    # w - w[0] so that a tiny mu (the near-hard case) loses no precision
    spread = w - w[0]
    # both starts are below the root: lam = 0 with the Newton step too long, or the lowest
    # eigenvector's part of the step alone as long as the radius
    mu = w[0] if w[0] > 0.0 else abs(gt[0]) / radius
    for _ in range(_STEP_MAX_ITER):
        d = np.maximum(spread + mu, _TINY)
        p = gt / d
        norm = np.sqrt(p @ p)
        if norm <= radius * (1.0 + _STEP_RTOL):
            break
        mu += (norm * norm / (p @ (p / d))) * (norm - radius) / radius
    if norm < radius and mu == 0.0:
        p[0] = np.sqrt(radius * radius - norm * norm)    # the hard case
    elif norm > radius:
        p *= radius / norm
    return -(V @ p), mu - w[0]


def _maximise(value, derivatives, theta: np.ndarray, tol: float):
    """Maximise a smooth function by trust-region Newton from ``theta`` until |score| < ``tol``.

    ``value(theta)`` returns a tuple whose first entry is the function's value
    there, and ``derivatives`` maps that tuple to the score and Hessian at its
    point, or to (None, None) where the score is not finite.  So a trial point
    costs ``value`` alone, and ``derivatives`` runs only where a step is accepted.
    Each iteration takes the Moré-Sorensen step (``_trust_region_step``) from
    one eigendecomposition of the Hessian at the current point.  The step is
    accepted when the actual over the predicted gain, g'p + p'Hp/2, exceeds 0.15,
    or when both lie within 1e-10 (1 + |value|), the rounding of the value.  The
    radius starts at 1, doubles (up to 1000) when that ratio exceeds 0.75 on the
    boundary, and becomes a quarter of min(radius, |step|) below 0.25 (Nocedal &
    Wright, Numerical Optimization 2006, Alg. 4.1).  A trial point with a
    non-finite value or score is rejected.  The loop stops when |score| < ``tol``
    (the reason is CONVERGED), after MAX_ITER iterations, or when the step is
    below the rounding of theta ("no predicted gain").

    Returns (theta, value, score, Hessian, iterations, reason).
    """
    point = value(theta)
    f, (g, H) = point[0], derivatives(point)
    if not math.isfinite(f) or g is None:
        n = len(theta)
        return theta, -np.inf, np.zeros(n), np.zeros((n, n)), 0, "non-finite likelihood or score at the start"
    radius, iterations, eig, reason = 1.0, 0, None, CONVERGED
    while math.sqrt(g @ g) >= tol:
        if iterations == MAX_ITER:
            reason = "iteration limit reached"
            break
        if eig is None:
            eig = np.linalg.eigh(-H)
        p, lam = _trust_region_step(*eig, -g, radius)
        if p @ p <= (_EPS * (1.0 + math.sqrt(theta @ theta))) ** 2:
            reason = "no predicted gain"
            break
        predicted = g @ p + 0.5 * (p @ (H @ p))
        point = value(theta + p)
        actual, noise = point[0] - f, 1e-10 * (1.0 + abs(f))
        if abs(actual) <= noise and abs(predicted) <= noise:
            rho = 1.0
        else:
            rho = actual / predicted if predicted > 0.0 and math.isfinite(point[0]) else -np.inf
        if rho > _ETA:
            g_new, H_new = derivatives(point)
            if g_new is None:
                rho = -np.inf
        if rho < 0.25:
            radius = 0.25 * min(radius, math.sqrt(p @ p))
        elif rho > 0.75 and lam > 0.0:
            radius = min(2.0 * radius, _MAX_RADIUS)
        if rho > _ETA:
            theta, f, g, H, eig = theta + p, point[0], g_new, H_new, None
        iterations += 1
    return theta, f, g, H, iterations, reason


def _jackknife_cov(data: _CoxData, eta: np.ndarray) -> np.ndarray:
    """Grouped leave-one-subject-out jackknife: (K/(K-1)) * sum (eta_(-i) - mean)^2.

    Each replicate eta_(-i) is one Newton step from ``eta`` on the data
    without subject i.
    """
    subjects = np.unique(data.subjects)
    K = len(subjects)
    if K < 2:
        return np.full((data.d, data.d), np.nan)
    reps = np.empty((K, data.d))
    for i, sid in enumerate(subjects):
        sub = data.drop_subject(sid)
        if sub.n_events == 0:
            reps[i] = eta
            continue
        _, g, h = _loglik_grad_hess(sub, eta)
        try:
            reps[i] = eta + np.linalg.solve(-h, g)
        except np.linalg.LinAlgError:
            reps[i] = eta
    centered = reps - reps.mean(axis=0)
    return (K / (K - 1.0)) * (centered.T @ centered)


def fit_andersen_gill(data: _CoxData) -> CoxFit:
    """Fit the recurrent-events Cox model by ``_maximise`` from eta = 0.

    ``data`` is a panel's gaps as built by ``_CoxData.from_panel``.  Only the
    coefficients are estimated; ``_jackknife_cov`` gives their covariance.
    """
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")

    constant = np.all(data.Z == data.Z[0], axis=0)
    if np.all(constant):
        # no covariate contrast: the partial likelihood is flat in eta
        eta = np.zeros(data.d)
        loglik, _, _ = _loglik_grad_hess(data, eta)
        return CoxFit(eta, loglik, True, data.n_events, 0,
                      message="no covariate contrast; partial likelihood constant in eta")

    eta, loglik, _, hess, iters, reason = _maximise(lambda e: _loglik_grad_hess(data, e), _PARTS_DERIVATIVES,
                                                    np.zeros(data.d), _grad_tol(data.n_events))
    ok = reason == CONVERGED
    if ok and np.max(np.abs(eta)) > DIVERGENCE_BOUND:
        ok, reason = False, "monotone likelihood: estimate diverging"
    elif ok and np.min(np.linalg.eigvalsh(-hess)) < 1e-6:
        # the likelihood flattened out instead of peaking: no interior maximum
        ok, reason = False, "monotone likelihood: information vanishes"
    return CoxFit(eta, loglik, ok, data.n_events, iters, message="" if ok else reason)


# --- Weibull proportional-hazards regression (marginal, no frailty) ---------


def _weibull_loglik_grad_hess(data: _CoxData, theta: np.ndarray):
    """Weibull PH log likelihood, score and Hessian in theta = (log lam, log p, beta)."""
    d = data.events.astype(float)
    logt = np.log(data.gaps)
    sum_d, sum_dlogt = d.sum(), d @ logt
    p = np.exp(theta[1])
    lin = data.Z @ theta[2:]
    cum = np.exp(theta[0] + p * logt + lin)   # lam * t^p * exp(z'beta)
    G = np.column_stack([np.ones_like(logt), p * logt, data.Z])   # d log(cum) / d theta
    loglik = sum_d * (theta[0] + theta[1]) + (p - 1.0) * sum_dlogt + d @ lin - np.sum(cum)
    grad = np.concatenate([[sum_d, sum_d + p * sum_dlogt], d @ data.Z]) - cum @ G
    hess = -(cum[:, None] * G).T @ G
    hess[1, 1] += p * (sum_dlogt - cum @ logt)
    return loglik, grad, hess


def fit_weibull_ph(data: _CoxData):
    """MLE of a marginal Weibull PH model on gaps: hazard lam*p*t^(p-1)*exp(z'beta).

    Used for starting values of the joint fit.  Returns (lam, p, beta, ok).  ``_maximise``
    maximises it in (log lam, log p, beta) from the exponential fit.
    """
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")
    theta0 = np.concatenate([[np.log(max(data.n_events / np.sum(data.gaps), 1e-8)), 0.0], np.zeros(data.d)])
    theta, *_, reason = _maximise(lambda th: _weibull_loglik_grad_hess(data, th), _PARTS_DERIVATIVES, theta0,
                                  _grad_tol(data.n_events))
    return float(np.exp(theta[0])), float(np.exp(theta[1])), theta[2:], reason == CONVERGED
