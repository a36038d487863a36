"""Random-effects meta-analysis of GRRR estimates, four ways.

* ``fit_direct_dl`` — method-of-moments (DerSimonian-Laird): closed form,
  with Q, tau^2 = max(0, (Q - (k-1))/C), and I^2 = max(0, 100 (Q-(k-1))/Q).
* ``fit_direct_ml`` — maximum likelihood under
  theta-hat_i ~ N(theta, sigma_i^2 + tau^2).
* ``fit_beta_model`` — psi-hat_i = (1 + theta-hat_i)/2 modelled as Beta with
  mean (1 + theta)/2 and variance (sigma_i^2 + tau^2)/4 (per-study shapes).
* ``fit_split_lognormal_model`` — the split-lognormal density of each
  theta-hat_i integrated over a Beta random-effects law for
  psi_i = (1 + theta_i)/2 with mean (1 + theta)/2 and variance tau^2/4
  (shared shapes); tau = 0 degenerates to the point-mass likelihood. Each
  study's integral is taken in the study's own Gaussian coordinate, where
  its density is exactly normal, with one fixed composite (G7,K15) rule.

Every likelihood fit makes one search. Direct ML maximises its exact
tau-profile, on which theta is a closed-form weighted mean; the beta and
split-lognormal fits make one Nelder-Mead run from the DL start on
transformed coordinates u = atanh(theta), v = ln(tau + eps). All of them
share one tail: standard errors from a central-difference Hessian on the
natural scale with step max(1e-4, 1e-4 |param|), and a boundary solution
(tau-hat < 1e-6) reported as tau-hat = 0 with se_tau = 0 and se_theta from
the one-dimensional theta curvature at tau = 0. Infeasible moment proposals
(Beta variance >= mean times complement) are rejected with a graded
penalty, never a crash. A fit is ``converged`` when its search converged
and, for the split-lognormal model, the quadrature met its tolerance at
the optimum and at every point of the Hessian's stencil. Every fit sums
its per-study terms with ``math.fsum``, so no fit depends on the order of
the studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import StudyTable
from .distribution import _LOG_SQRT_TWO_PI, SplitLognormalApprox, loglik as split_loglik
from .errors import ConvergenceError, DomainError
from .kernels import integrate_vector, log_beta, minimize
from .variance import GrrrEstimate, VarianceSpec, make_estimate

__all__ = [
    "MetaFit",
    "fit_direct_dl",
    "fit_direct_ml",
    "fit_beta_model",
    "fit_split_lognormal_model",
]

_TAU_EPS = 1e-8          # shift inside v = ln(tau + eps)
_TAU_BOUNDARY = 1e-6     # below this, tau-hat is reported as exactly 0
_THETA_CAP = 1.0 - 1e-12
_PENALTY = 1e10


@dataclass(frozen=True)
class MetaFit:
    """Pooled result of one meta-analysis fit.

    ``i_squared`` is only defined for the direct (normal-model) fits;
    ``loglik`` only for likelihood fits; ``se_tau`` is None for DL (no
    analogue is defined) and 0.0 at a likelihood boundary tau-hat = 0.
    ``restart_thetas`` is derived from these fields, not stored.
    """

    method: str
    theta_hat: float
    se_theta: float
    tau_hat: float
    se_tau: Optional[float]
    i_squared: Optional[float]
    loglik: Optional[float]
    n_studies_used: int
    converged: bool

    def __post_init__(self):
        if not (-1.0 <= self.theta_hat <= 1.0):
            raise DomainError("pooled theta_hat outside [-1, 1]")
        if not (self.se_theta > 0.0 and math.isfinite(self.se_theta)):
            raise DomainError("se_theta must be finite and > 0")
        if not (self.tau_hat >= 0.0 and math.isfinite(self.tau_hat)):
            raise DomainError("tau_hat must be finite and >= 0")
        if self.i_squared is not None and not (0.0 <= self.i_squared <= 100.0):
            raise DomainError("i_squared outside [0, 100]")

    @property
    def restart_thetas(self) -> tuple:
        """``(theta_hat,)``, the theta of a likelihood fit's one search;
        empty for DL. The benchmark reads it."""
        return () if self.loglik is None else (self.theta_hat,)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _usable(estimates: Sequence[GrrrEstimate], method: str,
            require_interior: bool) -> tuple[np.ndarray, np.ndarray]:
    """The theta-hat and sigma^2 arrays that DL, ML and beta fit: the
    ``informative`` estimates, in order. ``require_interior`` refuses,
    rather than drops, an uninformative estimate, and refuses theta-hat = +-1."""
    kept = []
    for est in estimates:
        if not est.informative:
            if require_interior:
                raise DomainError(
                    f"{method}: study {est.study_id!r} is double-degenerate; "
                    f"rebuild the estimates with a zero-correction")
            continue  # direct fits discard: the table carries no information
        if require_interior and not (-1.0 < est.theta_hat < 1.0):
            raise DomainError(
                f"{method}: study {est.study_id!r} has theta_hat = "
                f"{est.theta_hat}; rebuild the estimates with a zero-correction")
        if est.sigma2 == 0.0:
            raise DomainError(
                f"{method}: study {est.study_id!r} has zero within-study "
                f"variance; rebuild the estimates with a zero-correction > 0")
        kept.append(est)
    if len(kept) < 2:
        raise DomainError(f"{method}: needs at least 2 usable studies, got {len(kept)}")
    return np.array([e.theta_hat for e in kept]), np.array([e.sigma2 for e in kept])


def _weighted_mean(thetas: np.ndarray, sig2: np.ndarray, tau2: float):
    """The w = 1/(sigma^2 + tau^2) weighted mean of ``thetas``, the weights
    and their sum. Sums are exact (``math.fsum``), so they do not depend on
    the order of the studies."""
    w = 1.0 / (sig2 + tau2)
    sw = math.fsum(w.tolist())
    return math.fsum((w * thetas).tolist()) / sw, w, sw


def _q_statistics(thetas: np.ndarray, sig2: np.ndarray):
    """Cochran's Q machinery shared by DL and the likelihood fits' starting
    values: (fixed-effect mean, DL tau^2, I^2). Sums are exact
    (``math.fsum``), so they do not depend on the order of the studies.
    ``DomainError`` when C = sum w - sum w^2 / sum w is not > 0, which
    happens when one weight swamps the rest in rounding."""
    theta_fe, w, sw = _weighted_mean(thetas, sig2, 0.0)
    q = math.fsum(w * (thetas - theta_fe) ** 2)
    df = len(thetas) - 1
    c = sw - math.fsum(w * w) / sw
    if not c > 0.0:
        raise DomainError(
            f"one study's weight swamps the others (Cochran's C = {c!r}): its "
            f"within-study variance is rounding noise; use a zero-correction")
    tau2 = max(0.0, (q - df) / c)
    i2 = 0.0 if q <= 0.0 else max(0.0, 100.0 * (q - df) / q)
    return theta_fe, tau2, min(i2, 100.0)


def _clip_theta(x: float) -> float:
    return max(-_THETA_CAP, min(_THETA_CAP, x))


def _hessian_se(negll, theta_hat: float, tau_hat: float, boundary: bool):
    """Standard errors from the observed information (natural scale), and
    whether ``negll`` (returning a value and whether it is accurate) was
    accurate at every point of the difference stencil."""
    accurate = []

    def f(theta, tau):
        value, ok = negll(theta, tau)
        accurate.append(ok)
        return value

    h_t = max(1e-4, 1e-4 * abs(theta_hat))
    f0 = f(theta_hat, tau_hat)
    d2t = (f(theta_hat + h_t, tau_hat) - 2.0 * f0
           + f(theta_hat - h_t, tau_hat)) / (h_t * h_t)
    if boundary:
        if d2t <= 0.0 or not math.isfinite(d2t):
            raise ConvergenceError("theta curvature not positive at the optimum")
        return 1.0 / math.sqrt(d2t), 0.0, all(accurate)
    h_u = max(1e-4, 1e-4 * abs(tau_hat))
    if tau_hat - h_u < 0.0:
        h_u = 0.5 * tau_hat
    d2u = (f(theta_hat, tau_hat + h_u) - 2.0 * f0
           + f(theta_hat, tau_hat - h_u)) / (h_u * h_u)
    dtu = (f(theta_hat + h_t, tau_hat + h_u)
           - f(theta_hat + h_t, tau_hat - h_u)
           - f(theta_hat - h_t, tau_hat + h_u)
           + f(theta_hat - h_t, tau_hat - h_u)) / (4.0 * h_t * h_u)
    det = d2t * d2u - dtu * dtu
    if det <= 0.0 or d2t <= 0.0 or not math.isfinite(det):
        raise ConvergenceError("observed information not positive definite")
    return math.sqrt(d2u / det), math.sqrt(d2t / det), all(accurate)


def _likelihood_fit(method: str, negll, theta_hat: float, tau_hat: float,
                    value: float, n_used: int, converged: bool,
                    i_squared: Optional[float] = None) -> MetaFit:
    """The boundary snap, standard errors and ``MetaFit`` of every
    likelihood fit. ``negll(theta, tau)`` returns the negative log
    likelihood and whether it is accurate; the fit is converged when the
    search converged and ``negll`` was accurate at every point of the
    Hessian's stencil, the optimum included."""
    boundary = tau_hat < _TAU_BOUNDARY
    if boundary:
        tau_hat = 0.0
    se_theta, se_tau, accurate = _hessian_se(negll, theta_hat, tau_hat, boundary)
    return MetaFit(
        method=method,
        theta_hat=theta_hat,
        se_theta=se_theta,
        tau_hat=tau_hat,
        se_tau=se_tau,
        i_squared=i_squared,
        loglik=-value,
        n_studies_used=n_used,
        converged=converged and accurate,
    )


def _fit_two_param(method: str, negll, thetas: np.ndarray, sig2: np.ndarray) -> MetaFit:
    """One Nelder-Mead search over (theta, tau) from the DL fit of the
    studies' ``thetas`` and ``sig2``; ``negll`` as for ``_likelihood_fit``."""
    theta0, tau2, _ = _q_statistics(thetas, sig2)

    def point(x):
        return (_clip_theta(math.tanh(x[0])),
                max(0.0, math.exp(min(x[1], 50.0)) - _TAU_EPS))

    res = minimize(lambda x: negll(*point(x))[0],
                   (math.atanh(_clip_theta(theta0)), math.log(math.sqrt(tau2) + _TAU_EPS)))
    return _likelihood_fit(method, negll, *point(res.argmin), res.value, len(thetas),
                           res.converged)


def _beta_negll(theta: float, v, log_terms):
    """The negative log likelihood under a Beta law for psi of mean
    (1 + theta)/2 and variance ``v`` (one, or one per study), and whether it
    is accurate: -fsum of the per-study ``log_terms(alpha, beta)``, which
    returns them and their accuracy. An infeasible variance (max v >= mean
    times complement) gives a penalty graded by v, without ``log_terms``."""
    psi_bar = 0.5 * (1.0 + theta)
    cap = psi_bar * (1.0 - psi_bar)
    vmax = float(np.max(v))
    if vmax >= cap:
        return _PENALTY * (1.0 + vmax / cap), True
    common = cap / v - 1.0
    terms, accurate = log_terms(psi_bar * common, (1.0 - psi_bar) * common)
    return -math.fsum(terms.tolist()), accurate


# ---------------------------------------------------------------------------
# method 1: normal model, DL and ML flavours
# ---------------------------------------------------------------------------

def fit_direct_dl(estimates: Sequence[GrrrEstimate]) -> MetaFit:
    """DerSimonian-Laird moment fit of the normal random-effects model."""
    thetas, sig2 = _usable(estimates, "fit_direct_dl", require_interior=False)
    _, tau2, i2 = _q_statistics(thetas, sig2)
    theta_hat, _, sw = _weighted_mean(thetas, sig2, tau2)
    return MetaFit(
        method="direct-dl",
        theta_hat=theta_hat,
        se_theta=1.0 / math.sqrt(sw),
        tau_hat=math.sqrt(tau2),
        se_tau=None,
        i_squared=i2,
        loglik=None,
        n_studies_used=len(thetas),
        converged=True,
    )


def fit_direct_ml(estimates: Sequence[GrrrEstimate]) -> MetaFit:
    """Maximum likelihood fit of theta-hat_i ~ N(theta, sigma_i^2 + tau^2)
    on its exact tau-profile: theta(tau) is the w_i = 1/(sigma_i^2 + tau^2)
    weighted mean, and the score sum w_i^2 (theta-hat_i - theta)^2 - sum w_i,
    negative at tau = 2, is scanned on [0, 2] and each + to - change
    bisected to adjacent floats; tau = 0 is a candidate when its score is
    <= 0. The candidate of least negll wins."""
    thetas, sig2 = _usable(estimates, "fit_direct_ml", require_interior=False)
    i2 = _q_statistics(thetas, sig2)[2]

    log_two_pi = math.log(2.0 * math.pi)

    def negll(theta: float, tau: float) -> float:
        s = sig2 + tau * tau
        return 0.5 * (math.fsum((np.log(s) + (thetas - theta) ** 2 / s).tolist())
                      + len(thetas) * log_two_pi)

    def profile(tau: float):
        """theta(tau) and the score s(tau)."""
        theta, w, _ = _weighted_mean(thetas, sig2, tau * tau)
        return theta, math.fsum(((w * (thetas - theta)) ** 2 - w).tolist())

    grid = [2.0 * (j / 64) ** 2 for j in range(65)]
    scores = [profile(tau)[1] for tau in grid]
    candidates = [0.0] if scores[0] <= 0.0 else []
    for lo, hi, s_lo, s_hi in zip(grid, grid[1:], scores, scores[1:]):
        if s_lo > 0.0 >= s_hi:
            mid = 0.5 * (lo + hi)
            while lo < mid < hi:
                lo, hi = (mid, hi) if profile(mid)[1] > 0.0 else (lo, mid)
                mid = 0.5 * (lo + hi)
            candidates.append(lo)
    tau_hat = min(candidates, key=lambda tau: negll(profile(tau)[0], tau))
    theta_hat = profile(tau_hat)[0]
    return _likelihood_fit("direct-ml", lambda theta, tau: (negll(theta, tau), True),
                           theta_hat, tau_hat, negll(theta_hat, tau_hat), len(thetas), True,
                           i_squared=i2)


# ---------------------------------------------------------------------------
# method 2: beta likelihood for psi-hat
# ---------------------------------------------------------------------------

def fit_beta_model(estimates: Sequence[GrrrEstimate]) -> MetaFit:
    """Beta likelihood: psi-hat_i ~ Beta with mean (1+theta)/2 and variance
    (sigma_i^2 + tau^2)/4. Needs every theta-hat_i interior (zero cells must
    have been corrected upstream)."""
    thetas, sig2 = _usable(estimates, "fit_beta_model", require_interior=True)
    psi_hat = 0.5 * (1.0 + thetas)
    log_psi = np.log(psi_hat)
    log_psic = np.log1p(-psi_hat)
    var_quarter = 0.25 * sig2

    def log_terms(a, b):
        return (a - 1.0) * log_psi + (b - 1.0) * log_psic - log_beta(a, b), True

    def negll(theta: float, tau: float):
        return _beta_negll(theta, var_quarter + 0.25 * tau * tau, log_terms)

    return _fit_two_param("beta", negll, thetas, sig2)


# ---------------------------------------------------------------------------
# method 3: split-lognormal likelihood with a Beta random-effects law
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)
_SIDES = np.array([-1.0, 1.0])   # column 0: u <= 0, column 1: u >= 0
_GEOMETRIC = 0.5 * 3.0 ** np.arange(5)   # panel edges at 0.5, 1.5, ..., 40.5 scales
_OFFSETS = np.concatenate([-_GEOMETRIC[::-1], _GEOMETRIC])
_BETA_OFFSETS = np.append(_OFFSETS, 0.0)   # a narrow Beta's edges, in sd about its mode
_TAIL_DROP = 40.0   # window ends: the log integrand this far below its peak
_STEPS = 60         # cap on Newton iterations and on window doublings
_RUNGS = 4          # window-end candidates in one call; the bundled data and the
                    # benchmark's registries need at most 3
_SPLIT_QUAD_TOL = 1e-5   # K15 - G7 relative to the integral


def _log_weight(a, b, r, mode=None):
    """The function u -> ln[Beta(phi; a, b) |dphi/du|] along a study's
    Gaussian coordinate u, where phi(u) = e^u / 2 for u <= 0 and
    1 - phi(u) = e^(-r u) / 2 for u > 0; the terms that depend only on the
    shapes are computed here, once. Without ``mode`` the -ln B(a, b) term
    is left to the caller. With ``mode`` (a, b > 1) the Beta part is
    anchored at its mode, in a form whose linear terms cancel exactly, and
    its value at the mode is dropped: at extreme shapes (a - 1) ln phi and
    (b - 1) ln(1 - phi) would otherwise cancel catastrophically."""
    neg_r, log_r = -r, np.log(r)

    def log_t_and_jac(u):
        right = u > 0.0
        log_t = np.where(right, neg_r, -1.0) * np.abs(u) - _LN2
        # t = phi on the left, 1 - phi on the right
        return right, log_t, np.where(right, log_r + log_t, log_t)

    if mode is None:
        a1, b1 = a - 1.0, b - 1.0

        def weight(u):
            right, log_t, log_jac = log_t_and_jac(u)
            l1t = np.log1p(-np.exp(log_t))
            return a1 * np.where(right, l1t, log_t) + b1 * np.where(right, log_t, l1t) + log_jac
        return weight

    ab2, mode_c, mode_1 = a + b - 2.0, 1.0 - mode, mode - 1.0

    def anchored(u):
        right, log_t, log_jac = log_t_and_jac(u)
        t = np.exp(log_t)
        delta = np.where(right, mode_c - t, t - mode)
        # delta / (mode - 1) is -delta / (1 - mode) to the bit
        return ab2 * (mode * np.log1p(delta / mode) + mode_c * np.log1p(delta / mode_1)) + log_jac
    return anchored


def _u_of_phi(phi, r):
    """The inverse of phi(u): closed form and monotone."""
    return np.where(phi <= 0.5, np.log(2.0 * phi), -np.log(2.0 * (1.0 - phi)) / r)


class _SplitMarginal:
    """Each study's split-lognormal factor is exactly a normal density in
    its own Gaussian coordinate: for theta-hat_i < 0, x = ln(1 + theta-hat_i)
    and u = mu1(theta) give N(x; u, sigma1) / (1 + theta-hat_i); theta-hat_i
    >= 0 mirrors this with x = ln(1 - theta-hat_i), mu2, sigma2, phi = 1 - psi
    and the Beta shapes swapped. So a study's marginal likelihood is the
    integral over u of that normal density times Beta(phi(u)) |dphi/du|,
    which is bounded and has one kink, at u = 0: no endpoint transform is
    needed. ``log_terms`` integrates all studies at once, each with one
    fixed composite (G7,K15) rule on its own panels. Per-study values are
    (k, 1) columns; per-side ones (k, 2)."""

    def __init__(self, theta_hats, approxes):
        th = np.asarray(theta_hats, dtype=float)[:, None]
        s1 = np.array([ap.sigma1 for ap in approxes])[:, None]
        s2 = np.array([ap.sigma2 for ap in approxes])[:, None]
        self.mirrored = th >= 0.0
        with np.errstate(divide="ignore"):
            self.x = np.where(self.mirrored, np.log1p(-th), np.log1p(th))
        s = np.where(self.mirrored, s2, s1)
        self.precision = 1.0 / (s * s)
        self.r = np.where(self.mirrored, s1 / s2, s2 / s1)
        self.log_norm = -np.log(s) - _LOG_SQRT_TWO_PI - self.x
        self.neg_half_precision = -0.5 * self.precision
        # per side: phi's rate rho in t = e^(-rho |u|) / 2
        rho = np.concatenate([np.ones_like(self.r), self.r], axis=1)
        self.neg_rho = -rho
        self.side_rho = _SIDES * rho
        self.neg_rho2 = self.neg_rho * rho

    def log_normal(self, u):
        """ln of each study's split-lognormal density at theta(u)."""
        return self.neg_half_precision * (self.x - u) ** 2 + self.log_norm

    def log_terms(self, alpha: float, beta: float):
        """ln of each study's marginal likelihood under a Beta(alpha, beta)
        law for psi, and whether every integral met the rule's tolerance.

        A narrow Beta (mode +- 40.5 sd inside (0, 1)) is integrated in the
        mode-anchored form, and each study's integral is divided by the bare
        Beta mass integrated on the same nodes, which cancels the rounding
        of phi(u) and the truncated tails: the mass rows repeat the
        likelihood rows' panels and reuse their nodes and weight values. A
        wide one carries -ln B(alpha, beta) directly."""
        k = len(self.x)
        a = np.where(self.mirrored, beta, alpha)   # shapes of phi
        b = np.where(self.mirrored, alpha, beta)
        ab = alpha + beta
        sd = math.sqrt(alpha * beta / (ab * ab * (ab + 1.0)))
        narrow = False
        if alpha > 1.0 and beta > 1.0:
            psi_mode = (alpha - 1.0) / (ab - 2.0)
            narrow = (0.0 < psi_mode - _GEOMETRIC[-1] * sd
                      and psi_mode + _GEOMETRIC[-1] * sd < 1.0)
        if narrow:
            mode, offset = (a - 1.0) / (a + b - 2.0), 0.0   # the mode of phi
        else:
            mode, offset = None, -log_beta(alpha, beta)
        weight = _log_weight(a, b, self.r, mode)

        def log_f(u):
            return self.log_normal(u) + weight(u) + offset

        edges = _panel_edges(self, log_f, a, b, sd)
        if not narrow:
            log_values, _, converged, _ = integrate_vector(log_f, _compact(edges),
                                                           _SPLIT_QUAD_TOL)
            return log_values, converged

        def log_f_and_mass(u):
            # rows k..2k-1: the bare Beta weight on rows 0..k-1's nodes
            w = weight(u[:k])
            return np.concatenate([self.log_normal(u[:k]) + w + offset, w])

        beta_edges = _u_of_phi(mode + sd * _BETA_OFFSETS, self.r)
        edges = _compact(np.concatenate([edges, beta_edges], axis=1))
        log_values, _, converged, _ = integrate_vector(
            log_f_and_mass, np.concatenate([edges, edges]), _SPLIT_QUAD_TOL)
        return log_values[:k] - log_values[k:], converged


def _panel_edges(marginal, log_f, a, b, sd):
    """Panel edges for each row of ``log_f`` (the shapes are (rows, 1)
    columns): geometric about the peak of the log integrand on each side of
    u = 0 in units of its local scale there (a peak at the kink takes its
    scale from the slope), the two peaks, u = 0, and window ends where the
    log integrand has dropped ``_TAIL_DROP`` below its peak."""
    x, precision, r = marginal.x, marginal.precision, marginal.r
    # per side: the powers of t and 1 - t in the weight
    own = np.concatenate([a, b], axis=1)
    other = np.concatenate([b, a], axis=1) - 1.0
    neg_rho, side_rho = marginal.neg_rho, marginal.side_rho
    neg_rho2_other = marginal.neg_rho2 * other

    def slope_at(u):
        """The slope at u, and the q = t / (1 - t) and 1 - t of its curvature."""
        t = 0.5 * np.exp(neg_rho * np.abs(u))
        t_c = 1.0 - t
        q = t / t_c
        return precision * (x - u) - side_rho * (own - other * q), q, t_c

    def slopes(u):
        slope_u, q, t_c = slope_at(u)
        # curvature, made at most that of the normal factor
        return slope_u, np.minimum(neg_rho2_other * q / t_c, 0.0) - precision

    # Each side's peak: at u = 0 when the slope there points at the kink,
    # otherwise inside a bracket that the bounded weight slopes give in
    # closed form. Newton; a step that leaves the bracket is replaced by
    # false position between the bracket's ends.
    zero = np.zeros_like(x)
    lo = np.concatenate([np.minimum(x + np.minimum(a, a - b + 1.0) / precision, 0.0),
                         zero], axis=1)
    hi = np.concatenate([zero, np.maximum(x + r * np.maximum(-b, a - 1.0 - b) / precision,
                                          0.0)], axis=1)
    slope_lo, slope_hi = slope_at(np.stack([lo, hi]))[0]
    at_kink = np.where(_SIDES > 0.0, slope_lo, slope_hi) * _SIDES <= 0.0
    lo = np.where(at_kink, 0.0, lo)
    hi = np.where(at_kink, 0.0, hi)
    # start: the precision-weighted mean of x and the Beta mean mapped into u
    mean = a / (a + b)
    jac = np.where(mean <= 0.5, mean, r * (1.0 - mean))
    beta_precision = (jac / sd) ** 2
    start = ((precision * x + beta_precision * _u_of_phi(mean, r))
             / (precision + beta_precision))
    u = np.minimum(np.maximum(start, lo), hi)
    for _ in range(_STEPS):
        slope, curv = slopes(u)
        up = slope >= 0.0
        lo, slope_lo = np.where(up, u, lo), np.where(up, slope, slope_lo)
        hi, slope_hi = np.where(up, hi, u), np.where(up, slope_hi, slope)
        nxt = u - slope / curv
        inside = (lo <= nxt) & (nxt <= hi)
        if not inside.all():
            with np.errstate(invalid="ignore", divide="ignore"):   # a closed bracket
                secant = lo + slope_lo * (hi - lo) / (slope_lo - slope_hi)
            nxt = np.where(inside, nxt,
                           np.where((lo <= secant) & (secant <= hi), secant, 0.5 * (lo + hi)))
        done = (np.abs(nxt - u) * np.sqrt(-curv) <= 1e-2).all()
        u = nxt
        if done:
            break
    slope, curv = slopes(u)
    scale = 1.0 / (np.abs(slope) + np.sqrt(-curv))

    ends = _window_ends(log_f, u, scale)
    lo, hi = ends[:, :1], ends[:, 1:]
    about_peaks = u[:, :, None] + scale[:, :, None] * _OFFSETS
    return np.concatenate([np.minimum(np.maximum(about_peaks[:, 0], lo), 0.0),
                           np.minimum(np.maximum(about_peaks[:, 1], 0.0), hi),
                           np.minimum(np.maximum(u, lo), hi), ends, zero], axis=1)


def _window_ends(log_f, u, scale):
    """Each side's window end: the first of u + 10 scale, then doubled
    distances from the peak u, at which ``log_f`` is no longer above the
    floor ``_TAIL_DROP`` below the row's higher peak, after at most
    ``_STEPS`` doublings. The peaks and the first ``_RUNGS`` candidates are
    evaluated in one call of ``log_f``; only a row that needs more
    doublings goes on one call a doubling. A side whose peak is below the
    floor is left out: its window ends at 0."""
    rungs = [u + 10.0 * scale * _SIDES]
    for _ in range(_RUNGS):
        rungs.append(u + 2.0 * (rungs[-1] - u))
    values = log_f(np.concatenate([u, *rungs[:-1]], axis=1))
    peak = values[:, :2]
    floor = peak.max(axis=1, keepdims=True) - _TAIL_DROP
    short = values[:, 2:] > floor
    # each side's first rung that is not short, where every earlier one is:
    # log_f need not be monotone beyond it; the rung after the last when all are
    ends = rungs[-1]
    for j in reversed(range(_RUNGS)):
        ends = np.where(short[:, 2 * j:2 * j + 2], ends, rungs[j])
    if short[:, -2:].any():
        # a side may need more doublings: go on one call a doubling (a side
        # that has its end is not short there and keeps it)
        for _ in range(_STEPS - _RUNGS):
            short = log_f(ends) > floor
            if not short.any():
                break
            ends = np.where(short, u + 2.0 * (ends - u), ends)
    return np.where(peak < floor, 0.0, ends)


def _compact(edges):
    """Sort each row's edges and drop repeats and any edge whose gap to its
    left neighbour is under 5% of both adjacent gaps (never the kink u = 0
    or the window's end), padding the shorter rows with their last edge
    (empty panels): the rule evaluates no more panels than the row with the
    most needs."""
    edges = np.sort(edges, axis=1)
    gap = np.diff(edges, axis=1)
    wide = np.full((len(edges), 1), np.inf)
    near = gap < 0.05 * np.minimum(np.concatenate([wide, gap[:, :-1]], axis=1),
                                   np.concatenate([gap[:, 1:], wide], axis=1))
    near &= edges[:, 1:] != 0.0
    near[:, -1] = False
    repeat = np.concatenate([np.zeros((len(edges), 1), dtype=bool),
                             (gap == 0.0) | near], axis=1)
    width = int((~repeat).sum(axis=1).max())
    return np.sort(np.where(repeat, edges[:, -1:], edges), axis=1)[:, :width]


def fit_split_lognormal_model(tables: Sequence[StudyTable],
                              zero_correction: float = 0.5) -> MetaFit:
    """Joint likelihood of the observed theta-hat_i under their split-
    lognormal sampling densities, with psi_i = (1 + theta_i)/2 drawn from a
    Beta law of mean (1 + theta)/2 and variance tau^2/4 (the same shapes for
    every study). Each study's integral is taken in its own Gaussian
    coordinate with one fixed composite (G7,K15) rule (``_SplitMarginal``);
    below the reporting boundary for tau the Beta law is within rounding of
    a point mass, so the common-effect likelihood is used directly.
    Each study's scales come from ``SplitLognormalApprox.from_table``, which
    raises ``DomainError`` for a boundary table without a zero-correction;
    its theta-hat and approx variance (for the DL start) from
    ``make_estimate``. ``converged`` means that the optimizer converged and
    that the rule's K15 - G7 error estimate was within its tolerance at the
    reported optimum and at every point of the Hessian's difference stencil,
    read from the stencil's own evaluations. Per-study terms are summed with
    ``math.fsum`` and every per-study array is reduced row by row, so the
    fit does not depend on the order of the tables."""
    tables = list(tables)
    if len(tables) < 2:
        raise DomainError("fit_split_lognormal_model: needs at least 2 studies")
    approxes = [SplitLognormalApprox.from_table(t, zero_correction) for t in tables]
    estimates = [make_estimate(t, VarianceSpec("approx"), zero_correction=zero_correction)
                 for t in tables]
    theta_hats = [est.theta_hat for est in estimates]
    marginal = _SplitMarginal(theta_hats, approxes)

    def negll(theta: float, tau: float):
        """The negative log likelihood and whether the rule met its
        tolerance."""
        if tau <= _TAU_BOUNDARY:
            return -math.fsum(split_loglik(theta_hats, theta, approxes)), True
        return _beta_negll(theta, 0.25 * tau * tau, marginal.log_terms)

    return _fit_two_param("split-lognormal", negll, np.array(theta_hats),
                          np.array([est.sigma2 for est in estimates]))
