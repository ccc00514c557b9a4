"""Maximum-likelihood joint model for visit gaps and longitudinal outcomes.

The recurrent submodel gives each gap a Weibull hazard
lam * p * t**(p-1) * exp(beta*z + u); the longitudinal submodel is
y = alpha0 + alpha1*z + alpha2*t + gamma*u + v + eps.  The subject-level
random intercept v is integrated out analytically (rank-one Gaussian
identity), so the marginal likelihood needs only a one-dimensional
Gauss-Hermite integral over the shared frailty u.  The rule is recentred and
rescaled at the mode of each subject's integrand (adaptive quadrature).  Its
order is the integer ``order`` (default 25) of every function here, checked
once, by ``gauss_hermite``.

All per-subject quantities reduce to scalars, so one likelihood evaluation
costs O(total rows + subjects * quadrature order).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .domain import FitResult, PanelDataset
from .errors import EstimationError, ValidationError
from .lmm import (GRAD_TOL, LOG_2PI, MAX_ITER, Adjustment, LmmSpec, _fit_result, _lmm_estimates,
                  _newton_polish, _observed_information, _se_from_information, lmm_loglik)
from .survfit import _CoxData, fit_weibull_ph

PARAM_NAMES = ("beta", "lambda", "p", "alpha0", "alpha1", "alpha2",
               "gamma", "sigma_u2", "sigma_v2", "sigma_e2")

_MODE_TOL = 1e-11
_MODE_MAX_ITER = 80
_U_BOUND = 60.0


def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Hermite rule for expectations against N(0, 1)."""
    if order < 3:
        raise ValidationError(f"quadrature order must be >= 3, got {order}")
    x, w = np.polynomial.hermite.hermgauss(order)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


@dataclass(frozen=True)
class JointParams:
    """Joint-model parameters; scale parameters are carried on the log scale."""

    beta: float
    log_lambda: float
    log_p: float
    alpha0: float
    alpha1: float
    alpha2: float
    gamma: float
    log_sigma_u: float
    log_sigma_v: float
    log_sigma_e: float

    def __post_init__(self):
        for name in ("log_lambda", "log_p", "log_sigma_u", "log_sigma_v", "log_sigma_e"):
            if not np.isfinite(np.exp(getattr(self, name))):
                raise ValueError(f"exp({name}) must be positive and finite")

    @classmethod
    def from_vector(cls, theta) -> "JointParams":
        return cls(*map(float, theta))

    @classmethod
    def from_natural(cls, values) -> "JointParams":
        """Inverse of ``natural``: ``values`` maps every name in PARAM_NAMES to its value."""
        log_factor = {"lambda": 1.0, "p": 1.0, "sigma_u2": 0.5, "sigma_v2": 0.5, "sigma_e2": 0.5}
        return cls.from_vector([log_factor[k] * np.log(values[k]) if k in log_factor else values[k]
                                for k in PARAM_NAMES])

    def to_vector(self) -> np.ndarray:
        return np.array([self.beta, self.log_lambda, self.log_p, self.alpha0, self.alpha1,
                         self.alpha2, self.gamma, self.log_sigma_u, self.log_sigma_v,
                         self.log_sigma_e])

    def natural(self) -> dict[str, float]:
        return {
            "beta": self.beta,
            "lambda": float(np.exp(self.log_lambda)),
            "p": float(np.exp(self.log_p)),
            "alpha0": self.alpha0,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "gamma": self.gamma,
            "sigma_u2": float(np.exp(2.0 * self.log_sigma_u)),
            "sigma_v2": float(np.exp(2.0 * self.log_sigma_v)),
            "sigma_e2": float(np.exp(2.0 * self.log_sigma_e)),
        }


class _JointData:
    """A panel, an ``order``-node quadrature rule, and the per-subject aggregates the likelihood reuses."""

    def __init__(self, panel: PanelDataset, order: int):
        self.nodes, self.weights = gauss_hermite(order)
        self.panel = panel
        self.log_gaps = np.log(panel.gaps)
        self.sum_t = panel.group_sum(panel.t)
        self.events = panel.group_sum(panel.observed.astype(float))
        self.sum_d_logt = panel.group_sum(np.where(panel.observed, self.log_gaps, 0.0))


def _find_modes(b, w, lam_eff):
    """Vectorized Newton for the maximizer of b*u - lam_eff*e^u - w*u^2/2 per subject."""
    u = np.zeros_like(b)
    for _ in range(_MODE_MAX_ITER):
        e = lam_eff * np.exp(u)
        g = b - e - w * u
        if np.all(np.abs(g) < _MODE_TOL * (1.0 + np.abs(b))):
            break
        step = g / (e + w)
        u = np.clip(u + np.clip(step, -2.0, 2.0), -_U_BOUND, _U_BOUND)
    return u


def _evaluate(theta: np.ndarray, data: _JointData, want_grad: bool):
    """Log likelihood (and gradient) at ``theta`` = JointParams.to_vector() layout."""
    (beta, log_lam, log_p, a0, a1, a2, gamma, log_su, log_sv, log_se) = theta
    lam, p = np.exp(log_lam), np.exp(log_p)
    su2, sv2, se2 = np.exp(2.0 * log_su), np.exp(2.0 * log_sv), np.exp(2.0 * log_se)
    panel = data.panel
    n, zi = panel.counts, panel.z

    with np.errstate(over="ignore", invalid="ignore"):
        tp = panel.gaps**p
        T_p = panel.group_sum(tp)
        lam_eff = lam * np.exp(beta * zi) * T_p  # Lambda_i: cumulative hazard factor at u=0

        r0 = panel.y - (a0 + a1 * panel.z_rows + a2 * panel.t)
        s = panel.group_sum(r0)
        q = panel.group_sum(r0 * r0)
        a = se2 + n * sv2
        Q0 = (q - sv2 * s * s / a) / se2

        E = data.events
        b = E + gamma * s / a
        w = gamma * gamma * n / a + 1.0 / su2
        c = (E * (log_lam + log_p + beta * zi) + (p - 1.0) * data.sum_d_logt
             - 0.5 * (n * LOG_2PI + (n - 1.0) * np.log(se2) + np.log(a) + Q0)
             - 0.5 * (LOG_2PI + 2.0 * log_su))

        m = _find_modes(b, w, lam_eff)
        scale = 1.0 / np.sqrt(lam_eff * np.exp(m) + w)

        U = m[:, None] + scale[:, None] * data.nodes[None, :]
        expU = np.exp(U)
        h = (c[:, None] + b[:, None] * U - lam_eff[:, None] * expU - 0.5 * w[:, None] * U * U)
        arg = np.log(data.weights)[None, :] + 0.5 * data.nodes[None, :] ** 2 + h
        amax = np.max(arg, axis=1)
        sumexp = np.sum(np.exp(arg - amax[:, None]), axis=1)
        contrib = np.log(scale) + 0.5 * LOG_2PI + amax + np.log(sumexp)
        loglik = float(np.sum(contrib))

    if not want_grad:
        return loglik, contrib, None

    with np.errstate(over="ignore", invalid="ignore"):
        pk = np.exp(arg - amax[:, None]) / sumexp[:, None]   # posterior node weights

        st = data.sum_t
        TPL = panel.group_sum(tp * data.log_gaps)
        lamU = lam_eff[:, None] * expU

        d_beta = zi[:, None] * (E[:, None] - lamU)
        d_loglam = E[:, None] - lamU
        d_logp = (E + p * data.sum_d_logt)[:, None] - (lam * np.exp(beta * zi) * p * TPL)[:, None] * expU

        one_r = (s[:, None] - gamma * U * n[:, None]) / a[:, None]     # 1' Sigma^-1 r
        tr0 = panel.group_sum(panel.t * r0)
        xr = [s, zi * s, tr0]                                           # X' r0 components
        x1 = [n, zi * n, st]                                            # X' 1 components
        d_alpha = [
            (xr_j[:, None] - gamma * U * x1_j[:, None]) / se2 - (sv2 / se2) * one_r * x1_j[:, None]
            for xr_j, x1_j in zip(xr, x1)
        ]
        d_gamma = U * one_r

        rss = q[:, None] - 2.0 * gamma * U * s[:, None] + gamma**2 * U * U * n[:, None]
        sum_r = s[:, None] - gamma * U * n[:, None]
        quad2 = (rss - sum_r**2 / n[:, None]) / se2**2 + (sum_r**2 / n[:, None]) / a[:, None] ** 2
        tr_inv = ((n - 1.0) / se2 + 1.0 / a)[:, None]
        d_logse = se2 * (quad2 - tr_inv)                               # 2*sigma_e2 * dB/dsigma_e2
        d_logsv = sv2 * (one_r**2 - (n / a)[:, None])

        d_logsu = U * U / su2 - 1.0

        parts = [d_beta, d_loglam, d_logp, d_alpha[0], d_alpha[1], d_alpha[2],
                 d_gamma, d_logsu, d_logsv, d_logse]
        grad = np.array([float(np.sum(pk * part)) for part in parts])
    return loglik, contrib, grad


def joint_loglik(params: JointParams, panel: PanelDataset, order: int = 25) -> float:
    """Marginal joint log likelihood, frailty integrated by ``order``-node Gauss-Hermite."""
    data = _JointData(panel, order)
    loglik, contrib, _ = _evaluate(params.to_vector(), data, want_grad=False)
    if not np.all(np.isfinite(contrib)):
        bad = int(data.panel.ids[int(np.nonzero(~np.isfinite(contrib))[0][0])])
        raise EstimationError(f"non-finite likelihood contribution for subject {bad}")
    return loglik


def subject_log_contributions(params: JointParams, panel: PanelDataset, order: int = 25):
    """Per-subject log likelihood contributions, as (subject_id, value) pairs."""
    _, contrib, _ = _evaluate(params.to_vector(), _JointData(panel, order), want_grad=False)
    return list(zip((int(i) for i in panel.ids), (float(v) for v in contrib)))


def recurrent_frailty_loglik(beta: float, lam: float, p: float, sigma_u2: float,
                             panel: PanelDataset, order: int = 25) -> float:
    """Log likelihood of the Weibull recurrent submodel alone (frailty integrated out)."""
    theta = JointParams(beta, np.log(lam), np.log(p), 0.0, 0.0, 0.0, 0.0,
                        0.5 * np.log(sigma_u2), 0.0, 0.0).to_vector()
    # run the full evaluation, then subtract the longitudinal factor at gamma=0
    loglik, _, _ = _evaluate(theta, _JointData(panel, order), want_grad=False)
    return loglik - lmm_loglik([0.0, 0.0, 0.0], 1.0, 1.0, panel, LmmSpec(Adjustment.NONE))


def _starting_theta(panel: PanelDataset, data: _JointData) -> np.ndarray:
    try:
        # model D's point estimates; its standard errors are not needed here
        theta, *_ = _lmm_estimates(panel, LmmSpec(Adjustment.NONE))
        a0, a1, a2 = theta[:3]
        sv2 = max(float(np.exp(2.0 * theta[3])), 1e-4)
        se2 = max(float(np.exp(2.0 * theta[4])), 1e-4)
    except EstimationError:
        a0, a1, a2 = np.mean(panel.y), 0.0, 0.0
        sv2 = se2 = max(np.var(panel.y) / 2.0, 1e-4)
    try:
        lam, p, beta_vec, ok = fit_weibull_ph(_CoxData.from_panel(panel))
        beta = float(beta_vec[0]) if ok else 0.0
        if not ok:
            lam, p = max(np.sum(data.events) / np.sum(panel.gaps), 1e-6), 1.0
    except EstimationError:
        beta, lam, p = 0.0, max(np.sum(data.events) / np.sum(panel.gaps), 1e-6), 1.0
    return np.array([beta, np.log(lam), np.log(p), a0, a1, a2, 0.0,
                     np.log(0.5), 0.5 * np.log(sv2), 0.5 * np.log(se2)])


def fit_joint(panel: PanelDataset, order: int = 25) -> FitResult:
    """Quasi-Newton maximum likelihood fit of the joint model (model A) with an ``order``-node rule."""
    data = _JointData(panel, order)
    if panel.n_subjects < 2:
        raise EstimationError("fit_joint needs at least 2 subjects")
    if np.mean(data.events) < 1.0:
        warnings.warn("fewer than one observed gap per subject on average; "
                      "the visit submodel is weakly identified", stacklevel=2)

    def negloglik(theta):
        ll, _, grad = _evaluate(theta, data, want_grad=True)
        if not np.isfinite(ll) or grad is None or not np.all(np.isfinite(grad)):
            return np.inf, np.zeros_like(theta)
        return -ll, -grad

    theta0 = _starting_theta(panel, data)
    res = scipy.optimize.minimize(negloglik, theta0, jac=True, method="BFGS",
                                  options={"gtol": GRAD_TOL, "maxiter": MAX_ITER})
    theta, fval, grad, info = _newton_polish(negloglik, res.x, res.fun, res.jac, GRAD_TOL, 8, 1e-10)
    nat = JointParams.from_vector(theta).natural()
    estimates = np.array([nat[k] for k in PARAM_NAMES])

    ses = None
    if np.isfinite(fval) and np.max(np.abs(grad)) < 1e-4:
        # the polish's last information, when it built one, serves the standard errors
        if info is None:
            info = _observed_information(negloglik, theta)
        jac = np.array([1.0, nat["lambda"], nat["p"], 1.0, 1.0, 1.0, 1.0,
                        2.0 * nat["sigma_u2"], 2.0 * nat["sigma_v2"], 2.0 * nat["sigma_e2"]])
        ses = _se_from_information(info, jac)
    return _fit_result("A", PARAM_NAMES, estimates, ses, fval, grad, res.nit, f"optimizer: {res.message}")
