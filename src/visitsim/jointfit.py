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
costs O(total rows + subjects * quadrature order).  The parameters enter
each subject's integrand through four coefficients only, so the score and
the exact observed information follow from posterior moments of the frailty
at the nodes (Louis, JRSS-B 1982).  ``fit_joint`` is a trust-region Newton
method on that information, started from model D's profiled point
estimates and a Weibull fit; there are no finite differences.  The fit's
convergence rule and delta-method standard errors are those of models B to
D: ``lmm._fit_result``, on the same information.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import scipy.optimize

from .domain import FitResult, PanelDataset
from .errors import EstimationError, ValidationError
from .lmm import (GRAD_TOL, LOG_2PI, MAX_ITER, Adjustment, _fit_result, _lmm_estimates, design_matrix,
                  lmm_loglik)
from .survfit import _CoxData, fit_weibull_ph

PARAM_NAMES = ("beta", "lambda", "p", "alpha0", "alpha1", "alpha2",
               "gamma", "sigma_u2", "sigma_v2", "sigma_e2")
# the scale parameters, each with the c of value = exp(c * its optimised coordinate);
# every other parameter is optimised as it is reported
_LOG_SCALE = {"lambda": 1.0, "p": 1.0, "sigma_u2": 2.0, "sigma_v2": 2.0, "sigma_e2": 2.0}
_IS_LOG = np.array([k in _LOG_SCALE for k in PARAM_NAMES])
_C = np.array([_LOG_SCALE.get(k, 1.0) for k in PARAM_NAMES])

_MODE_TOL = 1e-11
_MODE_MAX_ITER = 80
_U_BOUND = 60.0


@functools.lru_cache
def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Hermite rule for N(0, 1), computed once and read-only."""
    if order < 3:
        raise ValidationError(f"quadrature order must be >= 3, got {order}")
    x, w = np.polynomial.hermite.hermgauss(order)
    nodes, weights = x * np.sqrt(2.0), w / np.sqrt(np.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _natural(theta: np.ndarray) -> np.ndarray:
    """The reported parameters, in PARAM_NAMES order, at the optimised vector ``theta``."""
    values = np.array(theta, dtype=float)
    values[_IS_LOG] = np.exp(_C[_IS_LOG] * values[_IS_LOG])
    return values


def _theta(values) -> np.ndarray:
    """The optimised vector at ``values``, a mapping over PARAM_NAMES; the inverse of ``_natural``."""
    for k in _LOG_SCALE:
        if not 0.0 < values[k] < np.inf:
            raise ValueError(f"{k} must be positive and finite")
    return np.array([np.log(values[k]) / _LOG_SCALE[k] if k in _LOG_SCALE else values[k] for k in PARAM_NAMES],
                    dtype=float)


class _JointData:
    """A panel, an ``order``-node quadrature rule, and the per-subject aggregates the likelihood reuses."""

    def __init__(self, panel: PanelDataset, order: int):
        self.nodes, weights = gauss_hermite(order)
        # log weight + node^2/2: the rule's log weights with the N(0, 1) density divided out
        self.log_weights = np.log(weights) + 0.5 * self.nodes**2
        self.panel = panel
        self.log_gaps = np.log(panel.gaps)
        self.events = panel.group_sum(panel.observed.astype(float))
        self.sum_d_logt = panel.group_sum(np.where(panel.observed, self.log_gaps, 0.0))
        # the outcome design [1, z, t]: its rows, X'X, and X'1 per subject
        self.X = design_matrix(panel, Adjustment.NONE)
        self.xtx = self.X.T @ self.X
        self.x1 = panel.group_sum(self.X)


def _find_modes(b, w, lam_eff):
    """Vectorized Newton for the maximizer of b*u - lam_eff*e^u - w*u^2/2 per subject."""
    u = np.zeros_like(b)
    tol = _MODE_TOL * (1.0 + np.abs(b))
    for _ in range(_MODE_MAX_ITER):
        e = lam_eff * np.exp(u)
        g = b - e - w * u
        if np.all(np.abs(g) < tol):
            break
        step = np.minimum(np.maximum(g / (e + w), -2.0), 2.0)
        u = np.minimum(np.maximum(u + step, -_U_BOUND), _U_BOUND)
    return u


def _evaluate(theta: np.ndarray, data: _JointData, derivs: int):
    """(loglik, contrib, grad, hess) at the optimised vector ``theta``, as ``_theta`` lays it out.

    ``grad`` is None for ``derivs`` 0 and ``hess`` None for ``derivs`` < 2.
    Each subject's log integrand is h(U) = c + b*U - Lambda*e^U - w*U^2/2, so
    theta enters only through kappa = (c, b, log Lambda, w).  With
    J = d kappa / d theta and phi = (1, U, -Lambda*e^U, -U^2/2) under the
    posterior node weights, the score is sum J' E[phi] and the Hessian
    sum J' Cov[phi] J + sum E[phi] . d2 kappa (Louis, JRSS-B 1982), both
    exact for the quadrature sum with its adaptive nodes held where they are.
    """
    beta, lam, p, a0, a1, a2, gamma, su2, sv2, se2 = _natural(theta)
    log_lam, log_p, log_su = theta[[1, 2, 7]]
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
        between = s * s / n                # and q - between within subjects

        E = data.events
        b = E + gamma * s / a
        w = gamma * gamma * n / a + 1.0 / su2
        c = (E * (log_lam + log_p + beta * zi) + (p - 1.0) * data.sum_d_logt
             - 0.5 * (n * LOG_2PI + (n - 1.0) * np.log(se2) + np.log(a) + (q - between) / se2 + between / a)
             - 0.5 * (LOG_2PI + 2.0 * log_su))

        m = _find_modes(b, w, lam_eff)
        scale = 1.0 / np.sqrt(lam_eff * np.exp(m) + w)

        U = m[:, None] + scale[:, None] * data.nodes[None, :]
        lamU = lam_eff[:, None] * np.exp(U)
        h = (c[:, None] + b[:, None] * U - lamU - 0.5 * w[:, None] * U * U)
        arg = data.log_weights[None, :] + h
        amax = np.max(arg, axis=1)
        sumexp = np.sum(np.exp(arg - amax[:, None]), axis=1)
        contrib = np.log(scale) + 0.5 * LOG_2PI + amax + np.log(sumexp)
        loglik = float(np.sum(contrib))

    if derivs == 0:
        return loglik, contrib, None, None

    with np.errstate(over="ignore", invalid="ignore"):
        pk = np.exp(arg - amax[:, None]) / sumexp[:, None]   # posterior node weights
        phi = np.stack([U, -lamU, -0.5 * U * U], axis=2)
        mu = (pk[:, None, :] @ phi)[:, 0, :]                  # E[phi] past its constant 1

        # g = 1/a and its derivatives in (log sigma_v, log sigma_e), where d a = 2 d
        g = 1.0 / a
        d = np.column_stack([n * sv2, np.full_like(g, se2)])
        dg = -2.0 * d * (g * g)[:, None]
        x1 = data.x1
        xr = panel.group_sum(data.X * r0[:, None]) - (s / n)[:, None] * x1   # X'(r0 - subject mean)
        dlogL_p = p * panel.group_sum(tp * data.log_gaps) / T_p

        J = np.zeros((len(n), 4, 10))
        J[:, 0, :3] = np.column_stack([E * zi, E, E + p * data.sum_d_logt])
        J[:, 0, 3:6] = xr / se2 + (s * g / n)[:, None] * x1
        J[:, 0, 7] = -1.0
        J[:, 0, 8:] = -d * g[:, None] - 0.5 * between[:, None] * dg
        J[:, 0, 9] += (q - between) / se2 - (n - 1.0)
        J[:, 1, 3:6] = -gamma * g[:, None] * x1
        J[:, 1, 6] = s * g
        J[:, 1, 8:] = gamma * s[:, None] * dg
        J[:, 2, :3] = np.column_stack([zi, np.ones_like(zi), dlogL_p])
        J[:, 3, 6] = 2.0 * gamma * n * g
        J[:, 3, 7] = -2.0 / su2
        J[:, 3, 8:] = gamma * gamma * n[:, None] * dg
        J1 = J[:, 1:]
        grad = J[:, 0].sum(axis=0) + mu.reshape(-1) @ J1.reshape(-1, 10)
        if derivs == 1:
            return loglik, contrib, grad, None

        dev = phi - mu[:, None, :]
        cov = (dev * pk[..., None]).transpose(0, 2, 1) @ dev
        hess = J1.reshape(-1, 10).T @ (cov @ J1).reshape(-1, 10)

        # sum over subjects of E[phi] . d2 kappa, upper triangle; d2 of Lambda*e^U is
        # Lambda*e^U (d2 log Lambda + d log Lambda d log Lambda')
        mb, mL, mw = mu.T
        d2 = np.zeros((10, 10))
        d2[:3, :3] = (mL[:, None] * J[:, 2, :3]).T @ J[:, 2, :3]
        d2[2, 2] += np.sum(mL * (dlogL_p * (1.0 - dlogL_p) + p * p * panel.group_sum(tp * data.log_gaps**2) / T_p)
                           + p * data.sum_d_logt)
        d2[3:6, 3:6] = (((1.0 / se2 - g) / n)[:, None] * x1).T @ x1 - data.xtx / se2
        d2[3:6, 6] = -x1.T @ (mb * g)
        d2[3:6, 8:] = x1.T @ ((s / n - gamma * mb)[:, None] * dg)
        d2[3:6, 9] -= 2.0 * np.sum(xr, axis=0) / se2
        d2[6, 6] = 2.0 * np.sum(mw * n * g)
        d2[6, 8:] = dg.T @ (mb * s + 2.0 * gamma * mw * n)
        d2[7, 7] = 4.0 * np.sum(mw) / su2
        # d2 g = -4 g^2 diag(d) + 8 g^3 d d'; c holds 0.5 log g - 0.5 between g, b gamma s g, w gamma^2 n g
        coef = -0.5 * between + gamma * s * mb + gamma * gamma * n * mw
        d2[8:, 8:] = (np.diag(np.sum(d * (-2.0 * g - 4.0 * coef * g * g)[:, None], axis=0))
                      + ((2.0 * g * g + 8.0 * coef * g**3)[:, None] * d).T @ d)
        d2[9, 9] -= 2.0 * np.sum(q - between) / se2
        # the upper triangle, mirrored: the Hessian is exactly symmetric
        hess = np.triu(hess + d2)
        hess += np.triu(hess, 1).T
    return loglik, contrib, grad, hess


def joint_loglik(params, panel: PanelDataset, order: int = 25) -> float:
    """Marginal joint log likelihood, frailty integrated by ``order``-node Gauss-Hermite.

    ``params`` maps each name in PARAM_NAMES to its value; a scale parameter
    (lambda, p, a variance) that is not positive and finite raises ValueError.
    """
    data = _JointData(panel, order)
    loglik, contrib, *_ = _evaluate(_theta(params), data, 0)
    if not np.all(np.isfinite(contrib)):
        bad = int(data.panel.ids[int(np.nonzero(~np.isfinite(contrib))[0][0])])
        raise EstimationError(f"non-finite likelihood contribution for subject {bad}")
    return loglik


def subject_log_contributions(params, panel: PanelDataset, order: int = 25):
    """Per-subject log likelihood contributions, as (subject_id, value) pairs, at ``joint_loglik``'s params."""
    _, contrib, *_ = _evaluate(_theta(params), _JointData(panel, order), 0)
    return list(zip((int(i) for i in panel.ids), (float(v) for v in contrib)))


def recurrent_frailty_loglik(params, panel: PanelDataset, order: int = 25) -> float:
    """Log likelihood of the Weibull recurrent submodel alone (frailty integrated out).

    ``params`` maps beta, lambda, p and sigma_u2 to their values; other entries are not read.
    """
    theta = _theta({**dict.fromkeys(PARAM_NAMES, 0.0), "sigma_v2": 1.0, "sigma_e2": 1.0,
                    **{k: params[k] for k in ("beta", "lambda", "p", "sigma_u2")}})
    # run the full evaluation, then subtract the longitudinal factor at gamma=0
    loglik, *_ = _evaluate(theta, _JointData(panel, order), 0)
    return loglik - lmm_loglik([0.0, 0.0, 0.0], 1.0, 1.0, panel)


def _starting_theta(panel: PanelDataset, data: _JointData) -> np.ndarray:
    try:
        # model D's point estimates; its likelihood and standard errors are not needed here
        theta, *_ = _lmm_estimates(panel, Adjustment.NONE)
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
    """Maximum likelihood fit of the joint model (model A) with an ``order``-node rule.

    A trust-region Newton method (scipy's ``trust-exact``) on the exact observed
    information, from model D's and a Weibull fit's estimates; the same
    information gives the standard errors.  ``iterations`` counts trust-region
    iterations.  A non-finite information raises EstimationError.
    """
    data = _JointData(panel, order)
    if panel.n_subjects < 2:
        raise EstimationError("fit_joint needs at least 2 subjects")
    if np.mean(data.events) < 1.0:
        warnings.warn("fewer than one observed gap per subject on average; "
                      "the visit submodel is weakly identified", stacklevel=2)
    # trust-exact asks for the information at a point before its value and gradient
    last = {"theta": None}

    def evaluate(theta):
        if not np.array_equal(theta, last["theta"]):
            last.update(theta=theta.copy(), result=_evaluate(theta, data, 2))
        return last["result"]

    def negloglik(theta):
        ll, _, grad, _ = evaluate(theta)
        if not np.isfinite(ll) or not np.all(np.isfinite(grad)):
            return np.inf, np.zeros_like(theta)
        return -ll, -grad

    def information(theta):
        hess = evaluate(theta)[3]
        if not np.all(np.isfinite(hess)):
            raise EstimationError("non-finite observed information")
        return -hess

    res = scipy.optimize.minimize(negloglik, _starting_theta(panel, data), jac=True, hess=information,
                                  method="trust-exact", options={"gtol": GRAD_TOL, "maxiter": MAX_ITER})
    estimates = _natural(res.x)
    # d value / d theta is c * value for a scale parameter, 1 for the others
    return _fit_result("A", PARAM_NAMES, estimates, res.fun, res.jac, res.hess,
                       np.where(_IS_LOG, _C * estimates, 1.0), res.nit, f"optimizer: {res.message}")
