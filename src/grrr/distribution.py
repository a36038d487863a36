"""Split-lognormal approximation to the sampling distribution of theta-hat.

The plug-in estimate's two branches get separate lognormal approximations
glued at zero:

    ln(1 + theta-hat)  ~  N(mu1, sigma1^2)   on theta-hat < 0
    -ln(1 - theta-hat) ~  N(-mu2, sigma2^2)  on theta-hat >= 0

with sigma1, sigma2 from the delta method (``variance.delta_method_params``)
and, for inference about a hypothesised true effect theta, the means
substituted as

    mu1 = ln(1 + theta)            if theta < 0
    mu1 = -(sigma1/sigma2) ln(1 - theta)   otherwise
    mu2 = ln(1 - theta)            if theta >= 0
    mu2 = -(sigma2/sigma1) ln(1 + theta)   otherwise

which enforces mu1/sigma1 = -mu2/sigma2, the condition making the two
branch masses sum to one (P(theta-hat < 0) = Phi(-mu1/sigma1)).

Everything here is expressed in terms of (sigma1, sigma2) and theta; the
functions are the building blocks for p-values, confidence intervals by
quantile equating (with the sign-crossing recomputation), and the
random-effects likelihood in ``meta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import StudyTable, _check_real
from .errors import DomainError
from .kernels import std_normal_cdf, std_normal_quantile
from .variance import delta_method_params

__all__ = [
    "SplitLognormalApprox",
    "pdf",
    "loglik",
    "cdf",
    "p_value",
    "confidence_interval",
]

_LOG_SQRT_TWO_PI = math.log(math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class SplitLognormalApprox:
    """The scale parameters of the two branches (standard deviations of the
    log transforms)."""

    sigma1: float
    sigma2: float

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            v = getattr(self, name)
            if math.isnan(v) or math.isinf(v) or v <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")

    @classmethod
    def from_table(cls, table: StudyTable, zero_correction: float = 0.5) -> "SplitLognormalApprox":
        _, s1sq, _, s2sq = delta_method_params(table, zero_correction)
        return cls(math.sqrt(s1sq), math.sqrt(s2sq))


def _mu_pair(theta: float, s1: float, s2: float):
    """Mean substitution for a hypothesised true theta."""
    if theta < 0.0:
        mu1 = math.log1p(theta)
        mu2 = -(s2 / s1) * mu1
    else:
        mu2 = math.log1p(-theta)
        mu1 = -(s1 / s2) * mu2
    return mu1, mu2


def loglik(theta_hat, theta, approx):
    """Log density of observing theta-hat when the true effect is theta.
    Finite for all interior arguments.

    Array form: for a sequence of k estimates ``theta_hat`` and a sequence
    of their k ``approx``, the list of the k log densities. The scalar form
    is the array form of one study, so the two agree bit for bit; each
    estimate is checked, then theta once."""
    if isinstance(approx, SplitLognormalApprox):
        return loglik((theta_hat,), theta, (approx,))[0]
    theta_hat = [_check_real("theta_hat", th, -1.0, 1.0, open_=True) for th in theta_hat]
    theta = _check_real("theta", theta, -1.0, 1.0, open_=True)
    out = []
    for th, ap in zip(theta_hat, approx, strict=True):
        s1, s2 = ap.sigma1, ap.sigma2
        mu1, mu2 = _mu_pair(theta, s1, s2)
        x, mu, s = (math.log1p(th), mu1, s1) if th < 0.0 else (math.log1p(-th), mu2, s2)
        z = (x - mu) / s
        out.append(-0.5 * z * z - math.log(s) - _LOG_SQRT_TWO_PI - x)
    return out


def pdf(theta_hat: float, theta: float, approx: SplitLognormalApprox) -> float:
    """Density of theta-hat at a hypothesised true theta."""
    return math.exp(loglik(theta_hat, theta, approx))


def cdf(theta_hat: float, theta: float, approx: SplitLognormalApprox) -> float:
    """P(estimate <= theta_hat) when the true effect is theta.

    Accepts theta_hat on the closed interval [-1, 1] (the endpoints return
    the exact limits 0 and 1)."""
    theta_hat = _check_real("theta_hat", theta_hat, -1.0, 1.0)
    theta = _check_real("theta", theta, -1.0, 1.0, open_=True)
    if theta_hat == -1.0:
        return 0.0
    if theta_hat == 1.0:
        return 1.0
    s1, s2 = approx.sigma1, approx.sigma2
    mu1, mu2 = _mu_pair(theta, s1, s2)
    if theta_hat < 0.0:
        return std_normal_cdf((math.log1p(theta_hat) - mu1) / s1)
    return std_normal_cdf((-math.log1p(-theta_hat) + mu2) / s2)


def p_value(theta_hat: float, approx: SplitLognormalApprox, sided: str = "two") -> float:
    """p-value against theta = 0.

    One-sided: tail probability beyond theta-hat in its own direction.
    Two-sided: Phi(ln(1-|theta-hat|)/sigma1) + Phi(ln(1-|theta-hat|)/sigma2),
    which is exactly 1 at theta-hat = 0."""
    if sided not in ("one", "two"):
        raise DomainError(f"sided must be 'one' or 'two', got {sided!r}")
    theta_hat = _check_real("theta_hat", theta_hat, -1.0, 1.0)
    s1, s2 = approx.sigma1, approx.sigma2
    if abs(theta_hat) == 1.0:
        return 0.0
    if sided == "one":
        if theta_hat >= 0.0:
            return std_normal_cdf(math.log1p(-theta_hat) / s2)
        return std_normal_cdf(math.log1p(theta_hat) / s1)
    if theta_hat == 0.0:
        return 1.0
    x = math.log1p(-abs(theta_hat))
    return std_normal_cdf(x / s1) + std_normal_cdf(x / s2)


def confidence_interval(theta_hat: float, approx: SplitLognormalApprox,
                        alpha: float = 0.05) -> tuple[float, float]:
    """Equal-tailed 100(1-alpha)% interval for theta by quantile equating.

    The primary limits stay on theta-hat's side of zero; a limit that
    crosses zero is recomputed with the other branch's transform:

      theta-hat >= 0: (1 - (1-theta-hat) e^{+sigma2 z}, 1 - (1-theta-hat) e^{-sigma2 z})
                      lower < 0 -> (1-theta-hat)^{-sigma1/sigma2} e^{-sigma1 z} - 1
      theta-hat <  0: ((1+theta-hat) e^{-sigma1 z} - 1, (1+theta-hat) e^{+sigma1 z} - 1)
                      upper > 0 -> 1 - (1+theta-hat)^{-sigma2/sigma1} e^{-sigma2 z}

    with z the upper alpha/2 normal quantile. The interval always contains
    theta-hat and satisfies cdf(theta_hat; lower) = 1 - alpha/2,
    cdf(theta_hat; upper) = alpha/2.
    """
    theta_hat = _check_real("theta_hat", theta_hat, -1.0, 1.0, open_=True)
    alpha = _check_real("alpha", alpha, 0.0, 1.0, open_=True)
    s1, s2 = approx.sigma1, approx.sigma2
    z = std_normal_quantile(1.0 - 0.5 * alpha)
    if theta_hat >= 0.0:
        base = 1.0 - theta_hat
        lower = 1.0 - base * math.exp(s2 * z)
        upper = 1.0 - base * math.exp(-s2 * z)
        if lower < 0.0:
            lower = base ** (-s1 / s2) * math.exp(-s1 * z) - 1.0
    else:
        base = 1.0 + theta_hat
        lower = base * math.exp(-s1 * z) - 1.0
        upper = base * math.exp(s1 * z) - 1.0
        if upper > 0.0:
            upper = 1.0 - base ** (-s2 / s1) * math.exp(-s2 * z)
    return lower, upper
