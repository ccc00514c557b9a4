"""Andersen-Gill recurrent-events Cox model on the gap-time scale.

The partial likelihood treats every gap record as one risk interval on the
renewal clock: the risk set at an event gap g contains all records (observed
or censored) with gap >= g.  Ties are handled with the Breslow
approximation.  The robust variance is a leave-one-subject-out grouped
jackknife (one-step Newton by default, exact refits optionally), with a
cluster-sandwich estimator available as an alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

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
    cov_naive: np.ndarray
    cov_robust: np.ndarray
    loglik: float
    converged: bool
    n_events: int
    iterations: int
    message: str = ""

    @property
    def se_naive(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_naive), 0.0, None))

    @property
    def se_robust(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_robust), 0.0, None))


class _CoxData:
    """Gap records flattened and sorted by descending gap for prefix-sum risk sets."""

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

    @classmethod
    def from_records(cls, gap_records):
        recs = list(gap_records)
        if not recs:
            raise EstimationError("no gap records")
        return cls(
            [r.gap for r in recs],
            [r.observed for r in recs],
            [r.covariates for r in recs],
            [r.subject_id for r in recs],
        )

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


def cox_partial_loglik(eta, gap_records):
    """Breslow partial log likelihood with gradient and Hessian at ``eta``."""
    data = gap_records if isinstance(gap_records, _CoxData) else _CoxData.from_records(gap_records)
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")
    return _loglik_grad_hess(data, np.atleast_1d(np.asarray(eta, dtype=float)))


def _newton(data: _CoxData, eta0=None):
    eta = np.zeros(data.d) if eta0 is None else np.array(eta0, dtype=float)
    loglik, grad, hess = _loglik_grad_hess(data, eta)
    tol = _grad_tol(data.n_events)
    noise = 1e-10 * (1.0 + abs(loglik))
    it = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        if np.max(np.abs(grad)) < tol:
            break
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            return eta, loglik, grad, hess, it, False, "singular information matrix"
        scale = 1.0
        for _ in range(30):
            cand = eta + scale * step
            cand_ll, cand_g, cand_h = _loglik_grad_hess(data, cand)
            if cand_ll >= loglik - noise:
                eta, loglik, grad, hess = cand, cand_ll, cand_g, cand_h
                break
            scale *= 0.5
        else:
            return eta, loglik, grad, hess, it, False, "step halving failed"
        if np.max(np.abs(eta)) > DIVERGENCE_BOUND:
            return eta, loglik, grad, hess, it, False, "monotone likelihood: estimate diverging"
    ok = np.max(np.abs(grad)) < 1e-6
    if ok and np.min(np.linalg.eigvalsh(-hess)) < 1e-8:
        # the likelihood flattened out instead of peaking: no interior maximum
        return eta, loglik, grad, hess, it, False, "monotone likelihood: information vanishes"
    return eta, loglik, grad, hess, it, ok, "" if ok else "gradient tolerance not reached"


def _jackknife_cov(data: _CoxData, eta: np.ndarray, exact: bool) -> np.ndarray:
    """Grouped leave-one-subject-out jackknife: (K/(K-1)) * sum (eta_(-i) - mean)^2."""
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
        if exact:
            refit, _, _, _, _, ok, _ = _newton(sub, eta0=eta)
            if ok:
                reps[i] = refit
    centered = reps - reps.mean(axis=0)
    return (K / (K - 1.0)) * (centered.T @ centered)


def _score_residuals(data: _CoxData, eta: np.ndarray) -> np.ndarray:
    """Per-subject score contributions at ``eta`` (Breslow convention)."""
    lin = data.Z @ eta
    lin_max = lin.max()
    w = np.exp(lin - lin_max)
    s0 = np.cumsum(w)
    s1 = np.cumsum(w[:, None] * data.Z, axis=0)
    idx = data.risk_end[data.event_idx]
    S0 = s0[idx]
    zbar = s1[idx] / S0[:, None]

    # record r sits in the risk set of event e iff pos(r) <= risk_end[e];
    # bucket each event's 1/S0 term at risk_end[e] and suffix-sum
    bucket = np.zeros(data.n)
    bucketz = np.zeros((data.n, data.d))
    np.add.at(bucket, idx, 1.0 / S0)
    np.add.at(bucketz, idx, zbar / S0[:, None])
    A = np.cumsum(bucket[::-1])[::-1]
    B = np.cumsum(bucketz[::-1], axis=0)[::-1]

    # the exp(-lin_max) factor in w cancels against its inverse in A and B
    U = -w[:, None] * (data.Z * A[:, None] - B)
    U[data.event_idx] += data.Z[data.event_idx] - zbar

    subjects, codes = np.unique(data.subjects, return_inverse=True)
    out = np.zeros((len(subjects), data.d))
    np.add.at(out, codes, U)
    return out


def fit_andersen_gill(gap_records, robust: str = "jackknife", jackknife_exact: bool = False) -> CoxFit:
    """Fit the recurrent-events Cox model by Newton-Raphson with step halving.

    ``robust`` selects the robust covariance: ``"jackknife"`` (grouped
    leave-one-subject-out, the default) or ``"sandwich"`` (cluster score
    sandwich).  ``jackknife_exact`` switches the jackknife replicates from
    one-step Newton approximations to full refits.
    """
    if robust not in ("jackknife", "sandwich"):
        raise ValueError(f"unknown robust variance {robust!r}")
    data = _CoxData.from_records(gap_records) if not isinstance(gap_records, _CoxData) else gap_records
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")

    constant = np.all(data.Z == data.Z[0], axis=0)
    if np.all(constant):
        # no covariate contrast: the partial likelihood is flat in eta
        eta = np.zeros(data.d)
        loglik, _, _ = _loglik_grad_hess(data, eta)
        zero = np.zeros((data.d, data.d))
        return CoxFit(eta, zero, zero, loglik, True, data.n_events, 0,
                      message="no covariate contrast; partial likelihood constant in eta")

    eta, loglik, grad, hess, iters, ok, msg = _newton(data)
    if not ok:
        nan = np.full((data.d, data.d), np.nan)
        return CoxFit(eta, nan, nan, loglik, False, data.n_events, iters, message=msg)

    try:
        cov_naive = np.linalg.inv(-hess)
    except np.linalg.LinAlgError:
        nan = np.full((data.d, data.d), np.nan)
        return CoxFit(eta, nan, nan, loglik, False, data.n_events, iters,
                      message="information matrix singular at the optimum")

    if robust == "jackknife":
        cov_robust = _jackknife_cov(data, eta, exact=jackknife_exact)
    else:
        U = _score_residuals(data, eta)
        cov_robust = cov_naive @ (U.T @ U) @ cov_naive
    return CoxFit(eta, cov_naive, cov_robust, loglik, True, data.n_events, iters)


# --- Weibull proportional-hazards regression (marginal, no frailty) ---------


def fit_weibull_ph(gap_records):
    """MLE of a marginal Weibull PH model on gaps: hazard lam*p*t^(p-1)*exp(z'beta).

    Used for starting values of the joint fit.  Returns (lam, p, beta, ok).
    """
    data = _CoxData.from_records(gap_records) if not isinstance(gap_records, _CoxData) else gap_records
    if data.n_events == 0:
        raise EstimationError("no events: every gap record is censored")
    t = data.gaps
    d = data.events.astype(float)
    Z = data.Z
    logt = np.log(t)
    sum_d = d.sum()

    def negll_grad(theta):
        loglam, logp = theta[0], theta[1]
        beta = theta[2:]
        lam, p = np.exp(loglam), np.exp(logp)
        lin = Z @ beta
        tp = t**p
        cum = lam * tp * np.exp(lin)
        ll = np.sum(d * (loglam + logp + (p - 1.0) * logt + lin)) - np.sum(cum)
        g_loglam = sum_d - np.sum(cum)
        g_logp = sum_d + p * np.sum(d * logt) - p * np.sum(cum * logt)
        g_beta = Z.T @ (d - cum)
        return -ll, -np.concatenate([[g_loglam, g_logp], g_beta])

    lam0 = max(sum_d / np.sum(t), 1e-8)
    theta0 = np.concatenate([[np.log(lam0), 0.0], np.zeros(data.d)])
    res = scipy.optimize.minimize(negll_grad, theta0, jac=True, method="BFGS",
                                  options={"gtol": 1e-8, "maxiter": 200})
    ok = bool(res.success or np.max(np.abs(res.jac)) < 1e-4)
    lam, p = float(np.exp(res.x[0])), float(np.exp(res.x[1]))
    return lam, p, res.x[2:], ok
