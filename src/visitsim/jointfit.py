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
at the nodes (Louis, JRSS-B 1982).  An evaluation is two passes: ``_value``
gives the likelihood and keeps its intermediates, and ``_derivatives``
continues from them to the score and information; ``_evaluate`` is the two
together.  ``fit_joint`` is a trust-region Newton method on that
information (``_trust_region_step``: the Moré-Sorensen step from one
eigendecomposition per accepted point), started from model D's profiled
point estimates and a Weibull fit.  A trial point costs the value pass
alone; the derivative pass runs only where a step is accepted.  There are no
finite differences.  The fit's convergence rule and delta-method standard
errors are those of models B to D: ``lmm._fit_result``, on the same
information.
"""

from __future__ import annotations

import functools
import warnings
from typing import NamedTuple

import numpy as np

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
# the trust region: acceptance ratio, largest radius, and the tolerance, iteration limit and
# floor of the step's secular equation
_ETA = 0.15
_MAX_RADIUS = 1000.0
_STEP_RTOL = 1e-10
_STEP_MAX_ITER = 100
_TINY = np.finfo(float).tiny
_LOWER = np.tril_indices(10, -1)


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
        # for the two passes: the powers 0 to 4 of the nodes, one row each; each subject's
        # (n, 1); J's constant entries, z and 1 in d log Lambda / d(beta, log lambda); and the
        # event terms of d c / d(beta, log lambda, log p)
        self.x_powers = np.vander(self.nodes, 5, increasing=True).T.copy()
        self.n_and_1 = np.column_stack([panel.counts, np.ones(panel.n_subjects)])
        self.J_template = np.zeros((panel.n_subjects, 3, 10))
        self.J_template[:, 1, 0], self.J_template[:, 1, 1] = panel.z, 1.0
        self.visit_score = np.array([self.events @ panel.z, np.sum(self.events), np.sum(self.events)])


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


class _Point(NamedTuple):
    """The value pass's intermediates at one theta, which the derivative pass continues from."""

    theta: np.ndarray
    tp: np.ndarray       # gaps**p, per row
    T_p: np.ndarray      # and its per-subject sums
    r0: np.ndarray       # outcome residuals at u = v = 0, per row
    s: np.ndarray        # per subject: the sum of r0
    q: np.ndarray        # and of r0^2
    m: np.ndarray        # each subject's mode of h
    scale: np.ndarray    # and the rule's scale there
    lamU: np.ndarray     # Lambda * e^U at the nodes
    ex: np.ndarray       # the integrand at the nodes, relative to its largest value
    sumexp: np.ndarray   # and its sum over the nodes


def _value(theta: np.ndarray, data: _JointData):
    """(loglik, contrib, point): the log likelihood at ``theta``, per subject and summed.

    ``point`` holds what ``_derivatives`` continues from.  Each subject's log
    integrand is h(U) = c + b*U - Lambda*e^U - w*U^2/2, integrated over the
    frailty U by the adaptive rule centred at the mode of h.
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
        lam_m = lam_eff * np.exp(m)
        scale = 1.0 / np.sqrt(lam_m + w)

        # at the nodes U = m + scale * x, h is a quadratic in x less Lambda*e^U
        lamU = lam_m[:, None] * np.exp(scale[:, None] * data.nodes)
        quadratic = np.column_stack([c + m * (b - 0.5 * w * m), scale * (b - w * m), -0.5 * w * scale * scale])
        arg = quadratic @ data.x_powers[:3] + data.log_weights - lamU
        amax = np.max(arg, axis=1)
        ex = np.exp(arg - amax[:, None])
        sumexp = np.sum(ex, axis=1)
        contrib = np.log(scale) + 0.5 * LOG_2PI + amax + np.log(sumexp)
        loglik = float(np.sum(contrib))
    return loglik, contrib, _Point(theta, tp, T_p, r0, s, q, m, scale, lamU, ex, sumexp)


def _derivatives(data: _JointData, pt: _Point, derivs: int):
    """(grad, hess) of the log likelihood at the point of ``pt``; ``hess`` is None for ``derivs`` < 2.

    theta enters each subject's h only through kappa = (c, b, log Lambda, w).
    With J = d kappa / d theta and phi = (1, U, -Lambda*e^U, -U^2/2) under the
    posterior node weights, the score is sum J' E[phi] and the Hessian
    sum J' Cov[phi] J + sum E[phi] . d2 kappa (Louis, JRSS-B 1982), both
    exact for the quadrature sum with its adaptive nodes held where they are.
    The moments come from those of the standardised node x = (U - m) / scale,
    whose posterior is centred near 0 with variance near 1.
    """
    _, _, p, _, _, _, gamma, su2, sv2, se2 = _natural(pt.theta)
    panel = data.panel
    n, s, scale, x1 = panel.counts, pt.s, pt.scale, data.x1
    g, between = 1.0 / (se2 + n * sv2), s * s / n
    p_dlogt = p * np.sum(data.sum_d_logt)   # d c / d log p less its event term, summed over subjects

    with np.errstate(over="ignore", invalid="ignore"):
        # E[x^j] for j <= 4 and E[x^j L] for j <= 2, L = Lambda*e^U, one row per j
        exL = pt.ex * pt.lamU
        _, x_1, x_2, x_3, x_4 = (data.x_powers @ pt.ex.T) / pt.sumexp
        eL, eLx, eLxx = (data.x_powers[:3] @ exL.T) / pt.sumexp
        var_x = x_2 - x_1 * x_1
        mb = pt.m + scale * x_1                  # E[U]
        var_U = scale * scale * var_x
        mw = -0.5 * (mb * mb + var_U)            # E[-U^2/2]

        # J = d(b, log Lambda, w) / d theta, per subject; d log Lambda / d log p = dlogL_p
        dlogL_p = p * panel.group_sum(pt.tp * data.log_gaps) / pt.T_p
        d = data.n_and_1 * [sv2, se2]            # d a / d(log sigma_v, log sigma_e) = 2 d
        dg = -2.0 * d * (g * g)[:, None]         # and d(1/a) = dg
        J = data.J_template.copy()               # holds z and 1 in d log Lambda / d(beta, log lambda)
        J[:, 0, 3:6] = (-gamma * g)[:, None] * x1
        J[:, 0, 6] = s * g
        J[:, 0, 8:] = (gamma * s)[:, None] * dg
        J[:, 1, 2] = dlogL_p
        J[:, 2, 6] = 2.0 * gamma * n * g
        J[:, 2, 7] = -2.0 / su2
        J[:, 2, 8:] = (gamma * gamma * n)[:, None] * dg
        jL = J[:, 1, :3]

        # the score: sum J' E[phi] plus the sum of d c / d theta, summed over subjects in closed form
        sum_xr = data.X.T @ pt.r0 - x1.T @ (s / n)   # sum over subjects of X'(r0 - subject mean)
        grad = mb @ J[:, 0] + mw @ J[:, 2] - eL @ J[:, 1]
        grad[:3] += data.visit_score + [0.0, 0.0, p_dlogt]
        grad[3:6] += sum_xr / se2 + x1.T @ (g * s / n)
        grad[7] -= len(n)
        grad[8:] -= g @ d + 0.5 * between @ dg
        grad[9] += np.sum(pt.q - between) / se2 - (panel.n_rows - len(n))
        if derivs < 2:
            return grad, None

        # Cov[phi], from the central moments of x and the moments of L
        s2, x_11 = scale * scale, x_1 * x_1
        k3 = s2 * scale * (x_3 - x_1 * (3.0 * x_2 - 2.0 * x_11))                 # E[(U - E U)^3]
        k4 = s2 * s2 * (x_4 - x_1 * (4.0 * x_3 - x_1 * (6.0 * x_2 - 3.0 * x_11)))  # E[(U - E U)^4]
        cov_xL = eLx - x_1 * eL
        cov_bL = -scale * cov_xL
        cov_Lw = scale * (mb * cov_xL + 0.5 * scale * (eLxx - 2.0 * x_1 * eLx + x_11 * eL - eL * var_x))
        cov_bw = -(mb * var_U + 0.5 * k3)
        cov_ww = mb * mb * var_U + mb * k3 + 0.25 * (k4 - var_U * var_U)
        var_L = np.einsum("ij,ij->i", exL, pt.lamU) / pt.sumexp - eL * eL
        cov = np.column_stack([var_U, cov_bL, cov_bw, cov_bL, var_L, cov_Lw, cov_bw, cov_Lw, cov_ww])
        hess = J.reshape(-1, 10).T @ (cov.reshape(-1, 3, 3) @ J).reshape(-1, 10)

        # sum over subjects of E[phi] . d2 kappa, upper triangle; d2 of Lambda*e^U is
        # Lambda*e^U (d2 log Lambda + d log Lambda d log Lambda')
        hess[:3, :3] -= (eL[:, None] * jL).T @ jL
        hess[2, 2] -= (eL @ (dlogL_p * (1.0 - dlogL_p) + p * p * panel.group_sum(pt.tp * data.log_gaps**2) / pt.T_p)
                       - p_dlogt)
        hess[3:6, 3:6] += (((1.0 / se2 - g) / n)[:, None] * x1).T @ x1 - data.xtx / se2
        hess[3:6, 6] -= x1.T @ (mb * g)
        hess[3:6, 8:] += x1.T @ ((s / n - gamma * mb)[:, None] * dg)
        hess[3:6, 9] -= 2.0 * sum_xr / se2
        hess[6, 6] += 2.0 * np.sum(mw * n * g)
        hess[6, 8:] += (mb * s + 2.0 * gamma * mw * n) @ dg
        hess[7, 7] += 4.0 * np.sum(mw) / su2
        # d2 g = -4 g^2 diag(d) + 8 g^3 d d'; c holds 0.5 log g - 0.5 between g, b gamma s g, w gamma^2 n g
        coef = -0.5 * between + gamma * s * mb + gamma * gamma * n * mw
        g2 = g * g
        hess[8:, 8:] += np.diag((-2.0 * g - 4.0 * coef * g2) @ d) + ((2.0 * g2 + 8.0 * coef * g2 * g)[:, None] * d).T @ d
        hess[9, 9] -= 2.0 * np.sum(pt.q - between) / se2
        # the upper triangle, mirrored: the Hessian is exactly symmetric
        hess[_LOWER] = hess.T[_LOWER]
    return grad, hess


def _evaluate(theta: np.ndarray, data: _JointData, derivs: int):
    """(loglik, contrib, grad, hess) at the optimised vector ``theta``, as ``_theta`` lays it out.

    The value pass, then the derivative pass for ``derivs`` 1 or 2; ``grad`` is
    None for ``derivs`` 0 and ``hess`` None for ``derivs`` < 2.
    """
    loglik, contrib, pt = _value(theta, data)
    grad, hess = _derivatives(data, pt, derivs) if derivs else (None, None)
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


def fit_joint(panel: PanelDataset, order: int = 25) -> FitResult:
    """Maximum likelihood fit of the joint model (model A) with an ``order``-node rule.

    A trust-region Newton method on the exact observed information, from
    model D's and a Weibull fit's estimates; the same information gives the
    standard errors.  Each iteration takes the Moré-Sorensen step from one
    eigendecomposition of the information at the current point and prices the
    trial point at the likelihood alone; the score and information are built
    only where a step is accepted, when the actual over the predicted gain
    exceeds 0.15.  The radius starts at 1, doubles (up to 1000) when that ratio
    exceeds 0.75 on the boundary, and becomes a quarter of min(radius, |step|)
    below 0.25 (Nocedal & Wright, Numerical Optimization 2006, Alg. 4.1).  The
    fit stops when |score| < GRAD_TOL, after MAX_ITER iterations, or when the
    quadratic model predicts no gain within the rounding of the likelihood;
    ``iterations`` counts trust-region iterations and the message names the
    stop.  A trial point with a non-finite likelihood or score is rejected; a
    non-finite information where the score is finite raises EstimationError.
    """
    data = _JointData(panel, order)
    if panel.n_subjects < 2:
        raise EstimationError("fit_joint needs at least 2 subjects")
    if np.mean(data.events) < 1.0:
        warnings.warn("fewer than one observed gap per subject on average; "
                      "the visit submodel is weakly identified", stacklevel=2)

    def derivatives(pt):
        """(score, information) of the negative log likelihood at ``pt``'s point; None, None for a non-finite score."""
        grad, hess = _derivatives(data, pt, 2)
        if not np.all(np.isfinite(grad)):
            return None, None
        if not np.all(np.isfinite(hess)):
            raise EstimationError("non-finite observed information")
        return -grad, -hess

    theta = _starting_theta(panel, data)
    ll, _, pt = _value(theta, data)
    f, (g, B) = -ll, derivatives(pt)
    radius, iterations, eig = 1.0, 0, None
    reason = "score below tolerance"
    if not np.isfinite(f) or g is None:
        f, g, reason = np.inf, np.zeros(len(theta)), "non-finite likelihood or score at the start"
    while np.linalg.norm(g) >= GRAD_TOL:
        if iterations == MAX_ITER:
            reason = "iteration limit reached"
            break
        if eig is None:
            eig = np.linalg.eigh(B)
        p, lam = _trust_region_step(*eig, g, radius)
        # as computed, a prediction below the rounding of f reads as no gain
        predicted = f - (f + (g @ p + 0.5 * (p @ (B @ p))))
        if predicted <= 0.0:
            reason = "no predicted gain"
            break
        ll, _, pt = _value(theta + p, data)
        rho = (f + ll) / predicted if np.isfinite(ll) else -np.inf
        if rho > _ETA:
            # a point whose score is not finite is rejected like one whose likelihood is not
            g_new, B_new = derivatives(pt)
            if g_new is None:
                rho = -np.inf
        if rho < 0.25:
            radius = 0.25 * min(radius, np.sqrt(p @ p))
        elif rho > 0.75 and lam > 0.0:
            radius = min(2.0 * radius, _MAX_RADIUS)
        if rho > _ETA:
            theta, f, g, B, eig = theta + p, -ll, g_new, B_new, None
        iterations += 1
    estimates = _natural(theta)
    # d value / d theta is c * value for a scale parameter, 1 for the others
    return _fit_result("A", PARAM_NAMES, estimates, f, g, B, np.where(_IS_LOG, _C * estimates, 1.0), iterations,
                       f"optimizer: {reason}")
