"""Andersen-Gill recurrent-events Cox model on the gap-time scale.

Every fit reads a panel's gaps through ``_CoxData.from_panel``.  The
partial likelihood treats every gap as one risk interval on the renewal
clock: the risk set at an event gap g contains all gaps (observed or
censored) with length >= g.  Ties are handled with the Breslow
approximation.  ``_jackknife_cov`` gives a leave-one-subject-out grouped
jackknife covariance from one-step Newton replicates.  One Newton loop serves
this fit and the marginal Weibull PH fit behind model A's start values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError

NEWTON_MAX_ITER = 60
DIVERGENCE_BOUND = 30.0


def _grad_tol(n_events: int) -> float:
    # cumsum-based risk sums carry O(n*eps) rounding noise; stay above it but
    # well inside the documented 1e-6 bound
    return min(1e-8 * max(1.0, float(n_events)) ** 0.5, 1e-7)


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


def _newton(parts, eta: np.ndarray, tol: float):
    """Maximise ``parts(eta) -> (loglik, grad, hess)`` from ``eta`` until max|grad| < ``tol``.

    Returns (eta, loglik, iterations, ok, message).
    """
    loglik, grad, hess = parts(eta)
    noise = 1e-10 * (1.0 + abs(loglik))
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        if np.max(np.abs(grad)) < tol:
            break
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            return eta, loglik, it, False, "singular information matrix"
        scale = 1.0
        for _ in range(30):
            cand = eta + scale * step
            cand_ll, cand_g, cand_h = parts(cand)
            if cand_ll >= loglik - noise:
                eta, loglik, grad, hess = cand, cand_ll, cand_g, cand_h
                break
            scale *= 0.5
        else:
            return eta, loglik, it, False, "step halving failed"
        if np.max(np.abs(eta)) > DIVERGENCE_BOUND:
            return eta, loglik, it, False, "monotone likelihood: estimate diverging"
    ok = np.max(np.abs(grad)) < 1e-6
    if ok and np.min(np.linalg.eigvalsh(-hess)) < 1e-8:
        # the likelihood flattened out instead of peaking: no interior maximum
        return eta, loglik, it, False, "monotone likelihood: information vanishes"
    return eta, loglik, it, ok, "" if ok else "gradient tolerance not reached"


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
    """Fit the recurrent-events Cox model by Newton-Raphson with step halving.

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

    # _newton reports ok only where -hess is positive definite
    eta, loglik, iters, ok, msg = _newton(lambda e: _loglik_grad_hess(data, e), np.zeros(data.d),
                                          _grad_tol(data.n_events))
    return CoxFit(eta, loglik, bool(ok), data.n_events, iters, message=msg)


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

    Used for starting values of the joint fit.  Returns (lam, p, beta, ok).  The Andersen-Gill
    fit's Newton loop maximises it in (log lam, log p, beta) from the exponential fit.
    """
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")
    theta0 = np.concatenate([[np.log(max(data.n_events / np.sum(data.gaps), 1e-8)), 0.0], np.zeros(data.d)])
    theta, _, _, ok, _ = _newton(lambda th: _weibull_loglik_grad_hess(data, th), theta0,
                                 _grad_tol(data.n_events))
    return float(np.exp(theta[0])), float(np.exp(theta[1])), theta[2:], bool(ok)
