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
  (shared shapes); tau = 0 degenerates to the point-mass likelihood.

All likelihood fits share one driver: Nelder-Mead on transformed
coordinates u = atanh(theta), v = ln(tau + eps); deterministic, sign-
symmetric restart offsets plus a polish run from the best point; standard
errors from a central-difference Hessian on the natural scale with step
max(1e-4, 1e-4 |param|). A boundary solution (tau-hat < 1e-6) is reported
as tau-hat = 0 with se_tau = 0 and se_theta from the one-dimensional theta
curvature at tau = 0. Infeasible moment proposals (Beta variance >= mean
times complement) are rejected with a graded penalty, never a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import StudyTable
from .distribution import (SplitDensityBatch, SplitLognormalApprox,
                           loglik as split_loglik)
from .errors import ConvergenceError, DomainError
from .kernels import integrate_vector, log_beta, minimize
from .variance import GrrrEstimate, VarianceSpec, make_estimate

__all__ = [
    "BetaMoments",
    "MetaFit",
    "beta_reparam",
    "fit_direct_dl",
    "fit_direct_ml",
    "fit_beta_model",
    "fit_split_lognormal_model",
]

_TAU_EPS = 1e-8          # shift inside v = ln(tau + eps)
_TAU_BOUNDARY = 1e-6     # below this, tau-hat is reported as exactly 0
_THETA_CAP = 1.0 - 1e-12
_PENALTY = 1e10
_RESTART_OFFSETS = ((0.0, 0.0), (0.35, 0.3), (-0.35, 0.3), (0.0, -0.6))
_LIKELIHOOD_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class BetaMoments:
    """Beta shape parameters recovered from a (mean, variance) pair."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise DomainError(f"Beta shapes must be > 0, got {(self.alpha, self.beta)!r}")


@dataclass(frozen=True)
class MetaFit:
    """Pooled result of one meta-analysis fit.

    ``i_squared`` is only defined for the direct (normal-model) fits;
    ``loglik`` only for likelihood fits; ``se_tau`` is None for DL (no
    analogue is defined) and 0.0 at a likelihood boundary tau-hat = 0.
    ``restart_thetas`` records the pooled estimate of each restart run
    (diagnostics; empty for DL).
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
    restart_thetas: tuple = ()

    def __post_init__(self):
        if not (-1.0 <= self.theta_hat <= 1.0):
            raise DomainError("pooled theta_hat outside [-1, 1]")
        if not (self.se_theta > 0.0 and math.isfinite(self.se_theta)):
            raise DomainError("se_theta must be finite and > 0")
        if not (self.tau_hat >= 0.0 and math.isfinite(self.tau_hat)):
            raise DomainError("tau_hat must be finite and >= 0")
        if self.i_squared is not None and not (0.0 <= self.i_squared <= 100.0):
            raise DomainError("i_squared outside [0, 100]")


def beta_reparam(mean: float, variance: float) -> BetaMoments:
    """Shapes alpha = psi (psi(1-psi)/var - 1), beta = (1-psi)(...) for a
    Beta with the given mean and variance. Domain error when the variance
    is infeasible (variance >= mean(1-mean)) or the mean is not interior."""
    if math.isnan(mean) or not (0.0 < mean < 1.0):
        raise DomainError(f"beta_reparam: mean must be in (0, 1), got {mean!r}")
    if math.isnan(variance) or variance <= 0.0:
        raise DomainError(f"beta_reparam: variance must be > 0, got {variance!r}")
    cap = mean * (1.0 - mean)
    if variance >= cap:
        raise DomainError(
            f"beta_reparam: variance {variance!r} infeasible for mean {mean!r} "
            f"(needs < {cap!r})")
    common = cap / variance - 1.0
    return BetaMoments(mean * common, (1.0 - mean) * common)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _usable(estimates: Sequence[GrrrEstimate], method: str,
            require_interior: bool) -> list[GrrrEstimate]:
    kept = []
    for est in estimates:
        if est.degenerate and not est.corrected:
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
                f"variance; use a zero-correction or the bootstrap")
        kept.append(est)
    if len(kept) < 2:
        raise DomainError(f"{method}: needs at least 2 usable studies, got {len(kept)}")
    return kept


def _q_statistics(thetas: np.ndarray, sig2: np.ndarray):
    """Cochran's Q machinery shared by DL and the ML starting values."""
    w = 1.0 / sig2
    sw = w.sum()
    theta_fe = float((w * thetas).sum() / sw)
    q = float((w * (thetas - theta_fe) ** 2).sum())
    df = len(thetas) - 1
    c = float(sw - (w * w).sum() / sw)
    tau2 = max(0.0, (q - df) / c)
    i2 = 0.0 if q <= 0.0 else max(0.0, 100.0 * (q - df) / q)
    return q, df, c, tau2, min(i2, 100.0)


def _clip_theta(x: float) -> float:
    return max(-_THETA_CAP, min(_THETA_CAP, x))


def _hessian_se(negll, theta_hat: float, tau_hat: float, boundary: bool):
    """Standard errors from the observed information (natural scale)."""
    h_t = max(1e-4, 1e-4 * abs(theta_hat))
    f0 = negll(theta_hat, tau_hat)
    d2t = (negll(theta_hat + h_t, tau_hat) - 2.0 * f0
           + negll(theta_hat - h_t, tau_hat)) / (h_t * h_t)
    if boundary:
        if d2t <= 0.0 or not math.isfinite(d2t):
            raise ConvergenceError("theta curvature not positive at the optimum")
        return 1.0 / math.sqrt(d2t), 0.0
    h_u = max(1e-4, 1e-4 * abs(tau_hat))
    if tau_hat - h_u < 0.0:
        h_u = 0.5 * tau_hat
    d2u = (negll(theta_hat, tau_hat + h_u) - 2.0 * f0
           + negll(theta_hat, tau_hat - h_u)) / (h_u * h_u)
    dtu = (negll(theta_hat + h_t, tau_hat + h_u)
           - negll(theta_hat + h_t, tau_hat - h_u)
           - negll(theta_hat - h_t, tau_hat + h_u)
           + negll(theta_hat - h_t, tau_hat - h_u)) / (4.0 * h_t * h_u)
    det = d2t * d2u - dtu * dtu
    if det <= 0.0 or d2t <= 0.0 or not math.isfinite(det):
        raise ConvergenceError("observed information not positive definite")
    return math.sqrt(d2u / det), math.sqrt(d2t / det)


def _fit_two_param(method: str, negll, theta0: float, tau0: float,
                   n_used: int, i_squared: Optional[float]) -> MetaFit:
    """Shared ML driver over (theta, tau)."""

    def obj(x):
        theta = _clip_theta(math.tanh(x[0]))
        tau = max(0.0, math.exp(min(x[1], 50.0)) - _TAU_EPS)
        return negll(theta, tau)

    u0 = math.atanh(_clip_theta(theta0))
    v0 = math.log(max(tau0, 0.0) + _TAU_EPS)

    runs = [minimize(obj, (u0 + du, v0 + dv), tol=1e-6) for du, dv in _RESTART_OFFSETS]
    best = min(runs, key=lambda r: r.value)
    polish = minimize(obj, best.argmin, tol=1e-8)
    final = polish if polish.value <= best.value else best

    theta_hat = _clip_theta(math.tanh(final.argmin[0]))
    tau_hat = max(0.0, math.exp(min(final.argmin[1], 50.0)) - _TAU_EPS)
    boundary = tau_hat < _TAU_BOUNDARY
    if boundary:
        tau_hat = 0.0
    se_theta, se_tau = _hessian_se(negll, theta_hat, tau_hat, boundary)
    return MetaFit(
        method=method,
        theta_hat=theta_hat,
        se_theta=se_theta,
        tau_hat=tau_hat,
        se_tau=se_tau,
        i_squared=i_squared,
        loglik=-final.value,
        n_studies_used=n_used,
        converged=final.converged,
        restart_thetas=tuple(_clip_theta(math.tanh(r.argmin[0])) for r in runs),
    )


# ---------------------------------------------------------------------------
# method 1: normal model, DL and ML flavours
# ---------------------------------------------------------------------------

def fit_direct_dl(estimates: Sequence[GrrrEstimate]) -> MetaFit:
    """DerSimonian-Laird moment fit of the normal random-effects model."""
    kept = _usable(estimates, "fit_direct_dl", require_interior=False)
    thetas = np.array([e.theta_hat for e in kept])
    sig2 = np.array([e.sigma2 for e in kept])
    q, df, c, tau2, i2 = _q_statistics(thetas, sig2)
    w = 1.0 / (sig2 + tau2)
    sw = w.sum()
    return MetaFit(
        method="direct-dl",
        theta_hat=float((w * thetas).sum() / sw),
        se_theta=float(1.0 / math.sqrt(sw)),
        tau_hat=math.sqrt(tau2),
        se_tau=None,
        i_squared=i2,
        loglik=None,
        n_studies_used=len(kept),
        converged=True,
    )


def fit_direct_ml(estimates: Sequence[GrrrEstimate]) -> MetaFit:
    """Maximum likelihood fit of theta-hat_i ~ N(theta, sigma_i^2 + tau^2)."""
    kept = _usable(estimates, "fit_direct_ml", require_interior=False)
    thetas = np.array([e.theta_hat for e in kept])
    sig2 = np.array([e.sigma2 for e in kept])
    _, _, _, tau2_dl, i2 = _q_statistics(thetas, sig2)

    log_two_pi = math.log(2.0 * math.pi)

    def negll(theta: float, tau: float) -> float:
        s = sig2 + tau * tau
        return 0.5 * float(np.sum(np.log(s) + (thetas - theta) ** 2 / s)
                           + len(kept) * log_two_pi)

    w = 1.0 / sig2
    theta0 = float((w * thetas).sum() / w.sum())
    return _fit_two_param("direct-ml", negll, theta0, math.sqrt(tau2_dl),
                          len(kept), i2)


# ---------------------------------------------------------------------------
# method 2: beta likelihood for psi-hat
# ---------------------------------------------------------------------------

def fit_beta_model(estimates: Sequence[GrrrEstimate]) -> MetaFit:
    """Beta likelihood: psi-hat_i ~ Beta with mean (1+theta)/2 and variance
    (sigma_i^2 + tau^2)/4. Needs every theta-hat_i interior (zero cells must
    have been corrected upstream)."""
    kept = _usable(estimates, "fit_beta_model", require_interior=True)
    thetas = np.array([e.theta_hat for e in kept])
    sig2 = np.array([e.sigma2 for e in kept])
    psi_hat = 0.5 * (1.0 + thetas)
    log_psi = np.log(psi_hat)
    log_psic = np.log1p(-psi_hat)
    var_quarter = 0.25 * sig2
    _, _, _, tau2_dl, _ = _q_statistics(thetas, sig2)

    def negll(theta: float, tau: float) -> float:
        psi_bar = 0.5 * (1.0 + theta)
        cap = psi_bar * (1.0 - psi_bar)
        v = var_quarter + 0.25 * tau * tau
        vmax = float(v.max())
        if vmax >= cap:
            return _PENALTY * (1.0 + vmax / cap)
        common = cap / v - 1.0
        a = psi_bar * common
        b = (1.0 - psi_bar) * common
        ln_b = np.array([log_beta(ai, bi) for ai, bi in zip(a, b)])
        ll = float(np.sum((a - 1.0) * log_psi + (b - 1.0) * log_psic - ln_b))
        return -ll

    w = 1.0 / sig2
    theta0 = float((w * thetas).sum() / w.sum())
    return _fit_two_param("beta", negll, theta0, math.sqrt(tau2_dl),
                          len(kept), None)


# ---------------------------------------------------------------------------
# method 3: split-lognormal likelihood with a Beta random-effects law
# ---------------------------------------------------------------------------

def _beta_segment_integrals(fvec_builder, alpha_p: float, beta_p: float,
                            log_b: float, n_comp: int,
                            inner_points: Sequence[float], tol: float):
    """Integrate base(psi) times the *normalised* Beta(alpha, beta) density
    over (0, 1), where ``fvec_builder(psi)`` returns base(psi) with shape
    (n, n_comp). The density's power factors and the -ln B normaliser are
    fused into one exponent so that extreme shapes neither overflow nor
    underflow prematurely. The domain is split at 1/2 and a half whose
    shape exponent is < 1 is transformed (psi = t^(1/alpha), mirrored for
    beta) so endpoint singularities integrate smoothly."""
    values = np.zeros(n_comp)
    errors = np.zeros(n_comp)
    converged = True

    # Interior breakpoints of interest: per-study density peaks, the beta
    # mode, and brackets around the mode at multiples of the beta standard
    # deviation. The brackets matter when the beta law is a narrow spike:
    # without panel edges nearby, every quadrature node could miss it and
    # the panel would be accepted as converged with zero mass.
    pts = [p for p in inner_points]
    window = None
    if alpha_p > 1.0 and beta_p > 1.0:
        mode = (alpha_p - 1.0) / (alpha_p + beta_p - 2.0)
        ab = alpha_p + beta_p
        sd = math.sqrt(alpha_p * beta_p / (ab * ab * (ab + 1.0)))
        pts.append(mode)
        for j in (-32.0, -8.0, -2.0, -1.0, 1.0, 2.0, 8.0, 32.0):
            pts.append(mode + j * sd)
        # The log-density is concave for shapes > 1, so the mass beyond
        # mode +- 40 sd is negligible at double precision. When that window
        # is interior it becomes the integration domain: the bare-mass
        # column is integrated on the same panels, so the truncated tail
        # cancels out of the normalised ratios.
        lo, hi = mode - 40.0 * sd, mode + 40.0 * sd
        if 0.0 < lo and hi < 1.0:
            window = (lo, hi)
    pts = sorted({p for p in pts if 0.0 < p < 1.0})

    def density(psi):
        with np.errstate(divide="ignore"):
            return np.exp((alpha_p - 1.0) * np.log(psi)
                          + (beta_p - 1.0) * np.log1p(-psi) - log_b)

    if window is not None:
        lo, hi = window
        # Anchoring the log density at the mode removes the catastrophic
        # cancellation of (alpha-1) ln(psi) against (beta-1) ln(1-psi) for
        # extreme shapes: the linear terms of the two log1p expansions
        # cancel exactly, so only the harmless constant part (absorbed by
        # the shared-panel normalisation) keeps any cancellation error.
        ab2 = alpha_p + beta_p - 2.0
        log_fm = ((alpha_p - 1.0) * math.log(mode)
                  + (beta_p - 1.0) * math.log1p(-mode) - log_b)

        def g_window(psi):
            delta = psi - mode
            log_rel = ab2 * (mode * np.log1p(delta / mode)
                             + (1.0 - mode) * np.log1p(-delta / (1.0 - mode)))
            return fvec_builder(psi) * np.exp(log_rel + log_fm)[:, None]

        bps = [p for p in pts if lo < p < hi]
        return integrate_vector(g_window, n_comp, tol=tol,
                                lower=lo, upper=hi, breakpoints=bps)[:3]

    # left half (0, 1/2]
    if alpha_p < 1.0:
        top = 0.5 ** alpha_p

        def g_left(t):
            psi = t ** (1.0 / alpha_p)
            w = np.exp((beta_p - 1.0) * np.log1p(-psi) - log_b) / alpha_p
            return fvec_builder(psi) * w[:, None]

        bps = [p ** alpha_p for p in pts if p < 0.5]
        v, e, ok, _ = integrate_vector(g_left, n_comp, tol=0.5 * tol,
                                       lower=0.0, upper=top, breakpoints=bps)
    else:
        def g_left(psi):
            return fvec_builder(psi) * density(psi)[:, None]

        bps = [p for p in pts if p < 0.5]
        v, e, ok, _ = integrate_vector(g_left, n_comp, tol=0.5 * tol,
                                       lower=0.0, upper=0.5, breakpoints=bps)
    values += v
    errors += e
    converged &= ok

    # right half [1/2, 1): mirror with u = (1 - psi)^beta
    if beta_p < 1.0:
        top = 0.5 ** beta_p

        def g_right(u):
            psi = 1.0 - u ** (1.0 / beta_p)
            with np.errstate(divide="ignore"):
                w = np.exp((alpha_p - 1.0) * np.log(psi) - log_b) / beta_p
            return fvec_builder(psi) * w[:, None]

        bps = [(1.0 - p) ** beta_p for p in pts if p >= 0.5]
        v, e, ok, _ = integrate_vector(g_right, n_comp, tol=0.5 * tol,
                                       lower=0.0, upper=top, breakpoints=bps)
    else:
        def g_right(psi):
            return fvec_builder(psi) * density(psi)[:, None]

        bps = [p for p in pts if p >= 0.5]
        v, e, ok, _ = integrate_vector(g_right, n_comp, tol=0.5 * tol,
                                       lower=0.5, upper=1.0, breakpoints=bps)
    values += v
    errors += e
    converged &= ok
    return values, errors, converged


def fit_split_lognormal_model(tables: Sequence[StudyTable],
                              zero_correction: float = 0.5) -> MetaFit:
    """Joint likelihood of the observed theta-hat_i under their split-
    lognormal sampling densities, with psi_i = (1 + theta_i)/2 drawn from a
    Beta law of mean (1 + theta)/2 and variance tau^2/4 (the same shapes for
    every study). Per-study integrals are computed against the numerically
    integrated Beta mass on the same panels, which cancels shared rounding;
    below the reporting boundary for tau the Beta law is within rounding of
    a point mass, so the common-effect likelihood is used directly."""
    tables = list(tables)
    if len(tables) < 2:
        raise DomainError("fit_split_lognormal_model: needs at least 2 studies")
    approxes = []
    theta_hats = []
    sig2_list = []
    for t in tables:
        est = make_estimate(t, VarianceSpec("approx"), zero_correction=zero_correction)
        approxes.append(SplitLognormalApprox.from_table(t, zero_correction))
        theta_hats.append(est.theta_hat)
        sig2_list.append(est.sigma2)
    thetas = np.array(theta_hats)
    sig2 = np.array(sig2_list)
    _, _, _, tau2_dl, _ = _q_statistics(thetas, sig2)
    k = len(tables)
    psi_peaks = []
    for th, ap in zip(theta_hats, approxes):
        peak = 0.5 * (1.0 + th)
        width = 0.5 * max(ap.sigma1 * (1.0 + th), ap.sigma2 * (1.0 - th))
        psi_peaks.extend((peak, peak - 2.0 * width, peak + 2.0 * width,
                          peak - 8.0 * width, peak + 8.0 * width))
    batch = SplitDensityBatch(theta_hats, approxes)

    def point_mass_negll(theta: float) -> float:
        return -sum(split_loglik(th, theta, ap)
                    for th, ap in zip(theta_hats, approxes))

    def base(psi):
        # (n, k+1): per-study split-lognormal densities at theta = 2 psi - 1,
        # plus a bare column tracking the Beta mass on the same panels.
        dens = batch.densities(2.0 * psi - 1.0)
        return np.concatenate([dens, np.ones((len(psi), 1))], axis=1)

    def negll(theta: float, tau: float) -> float:
        if tau <= _TAU_BOUNDARY:
            return point_mass_negll(theta)
        psi_bar = 0.5 * (1.0 + theta)
        cap = psi_bar * (1.0 - psi_bar)
        v = 0.25 * tau * tau
        if v >= cap:
            return _PENALTY * (1.0 + v / cap)
        shapes = beta_reparam(psi_bar, v)
        ln_b = log_beta(shapes.alpha, shapes.beta)
        vals, _, _ = _beta_segment_integrals(base, shapes.alpha, shapes.beta,
                                             ln_b, k + 1, psi_peaks,
                                             _LIKELIHOOD_QUAD_TOL)
        mass = vals[-1]
        if not (mass > 0.0) or not np.all(np.isfinite(vals)):
            return _PENALTY
        # dividing by the numerically integrated Beta mass cancels rounding
        # shared between the columns (it is 1 + O(tol) analytically)
        ratios = np.maximum(vals[:-1] / mass, 1e-300)
        return -float(np.sum(np.log(ratios)))

    w = 1.0 / sig2
    theta0 = float((w * thetas).sum() / w.sum())
    return _fit_two_param("split-lognormal", negll, theta0, math.sqrt(tau2_dl),
                          k, None)
