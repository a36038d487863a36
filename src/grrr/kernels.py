"""Numeric kernels: normal CDF/quantile, log-beta, fixed Gauss-Kronrod
quadrature, derivative-free minimisation, and a seeded random generator.

Everything above this module (variance engine, sampling distribution,
meta-analysis fitters) goes through these entry points, so their accuracy
contracts are tested here once:

* ``std_normal_cdf``        abs error < 1e-15 on |x| <= 8
* ``std_normal_quantile``   Phi(quantile(p)) = p to 1e-12
* ``log_beta``              error < 1e-13 of the largest log-gamma term;
                            on two shape vectors, element-wise and bitwise
                            equal to the scalar form
* ``integrate_vector``      one fixed composite Gauss-Kronrod (G7,K15)
                            rule per row on caller-given panels, in log
                            space, with each row's K15 - G7 error estimate
* ``minimize``              Nelder-Mead simplex (scipy), deterministic,
                            xatol 1e-8, fatol 1e-12, <= 10,000 evaluations
* ``make_rng``              PCG64-backed, reproducible per seed
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

from .errors import DomainError

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "log_beta",
    "integrate_vector",
    "OptimizerResult",
    "minimize",
    "make_rng",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# normal distribution
# ---------------------------------------------------------------------------

def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Monotone, Phi(-x) = 1 - Phi(x) to rounding, abs error < 1e-15 for
    |x| <= 8 (the stdlib erfc is a rational/asymptotic implementation
    accurate to ~1 ulp).
    """
    if math.isnan(x):
        raise DomainError("std_normal_cdf: NaN input")
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


# Acklam's rational approximation to the normal quantile: initialiser only,
# refined below by two Newton steps on std_normal_cdf.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def _acklam(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    if p > p_high:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
                 / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))


def std_normal_quantile(p: float) -> float:
    """Inverse of ``std_normal_cdf`` on (0, 1).

    Rational initial approximation refined by two Newton steps; round-trip
    |Phi(quantile(p)) - p| < 1e-12 over the tested range.
    """
    if math.isnan(p) or p <= 0.0 or p >= 1.0:
        raise DomainError(f"std_normal_quantile: p must be in (0, 1), got {p!r}")
    x = _acklam(p)
    for _ in range(2):
        dens = std_normal_pdf(x)
        if dens <= 0.0:  # deep tail: initialiser is already as good as it gets
            break
        err = std_normal_cdf(x) - p
        x -= err / dens
    return x


# ---------------------------------------------------------------------------
# log-beta
# ---------------------------------------------------------------------------

def log_beta(a, b):
    """ln B(a, b) for a, b > 0, via log-gamma: a float for scalar shapes, an
    array for two equal-length vectors of them, element by element with the
    same arithmetic as the scalar form.

    Accuracy is relative to the largest of the three log-gamma terms (the
    absolute error grows when they cancel, e.g. B(a, b) near 1)."""
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if (a_arr.shape != b_arr.shape or a_arr.ndim > 1
            or not np.all((a_arr > 0.0) & (b_arr > 0.0)
                          & (a_arr < math.inf) & (b_arr < math.inf))):
        raise DomainError(f"log_beta: parameters must be finite and > 0, got {(a, b)!r}")
    lgamma = math.lgamma
    out = [lgamma(x) + lgamma(y) - lgamma(x + y)
           for x, y in zip(np.atleast_1d(a_arr).tolist(), np.atleast_1d(b_arr).tolist())]
    return out[0] if a_arr.ndim == 0 else np.array(out)


# ---------------------------------------------------------------------------
# fixed composite Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# (G7, K15) nodes on [-1, 1], ascending; Gauss points sit at odd indices.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# G7 weights spread onto the 15 nodes (zero at the Kronrod-only ones), so
# the difference K15 - G7 is one weighted sum
_K_MINUS_G = _GK_WEIGHTS - np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])


def integrate_vector(
    log_f: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Integrate exp(log_f) row by row with one fixed composite (G7,K15)
    rule on given panels; nothing is refined.

    ``edges`` is an (m, p + 1) array whose row i holds the non-decreasing
    panel edges of integrand i; a panel of zero width contributes nothing,
    so rows with fewer panels are padded by repeating an edge. ``log_f``
    maps the (m, p * 15) array of abscissae (row i: the nodes of row i's
    panels) to the (m, p * 15) logarithms of the integrands. Rows with equal
    edges get equal nodes, so integrands that share panels may read one
    row's nodes. Each row is scaled by its largest value before ``exp``, so
    an integrand may lie at any magnitude.

    Returns (log_values, errors, converged, evaluations): the logarithms of
    the m integrals; each row's summed panel |K15 - G7| relative to its
    integral, which estimates the absolute error of its log value;
    whether every error is <= tol; and the m * p * 15 integrand values
    computed. Rows are reduced along their own axis in a fixed order, so a
    row's result does not depend on its position among the others.
    """
    if not (tol > 0.0) or math.isnan(tol):
        raise DomainError(f"integrate_vector: tol must be > 0, got {tol!r}")
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 2 or edges.shape[1] < 2 or not np.isfinite(edges).all()
            or (edges[:, 1:] < edges[:, :-1]).any()
            or not (edges[:, -1] > edges[:, 0]).all()):
        raise DomainError("integrate_vector: edges must be finite, non-decreasing "
                          "rows of at least two values spanning a positive width")
    m, p = edges.shape[0], edges.shape[1] - 1
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])[:, :, None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None]
    log_fx = np.asarray(log_f((mid + half * _GK_NODES).reshape(m, p * 15)), dtype=float)
    if log_fx.shape != (m, p * 15) or not np.isfinite(log_fx).all():
        raise DomainError("integrate_vector: log integrand must be finite, "
                          "one value per node")
    top = log_fx.max(axis=1)
    fx = np.exp(log_fx - top[:, None]).reshape(m, p, 15) * half
    kron = (fx * _GK_WEIGHTS).sum(axis=-1).sum(axis=-1)
    diff = np.abs((fx * _K_MINUS_G).sum(axis=-1)).sum(axis=-1)
    errors = diff / kron
    return top + np.log(kron), errors, bool((errors <= tol).all()), m * p * 15


# ---------------------------------------------------------------------------
# derivative-free minimisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerResult:
    argmin: tuple
    value: float
    converged: bool


def minimize(f: Callable[[np.ndarray], float], start: Sequence[float]) -> OptimizerResult:
    """Nelder-Mead simplex minimisation (deterministic for fixed inputs).

    The final simplex diameter is bounded by 1e-8 (xatol) and the spread
    of function values over it by 1e-12 (fatol), within 10,000 iterations
    and function evaluations. Non-convergence is reported via
    ``converged=False`` rather than raised, so callers can decide.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size == 0 or not np.all(np.isfinite(x0)):
        raise DomainError(f"minimize: bad starting point {start!r}")
    res = scipy.optimize.minimize(
        f, x0, method="Nelder-Mead",
        options={
            "xatol": 1e-8, "fatol": 1e-12, "maxiter": 10_000, "maxfev": 10_000,
        },
    )
    return OptimizerResult(
        argmin=tuple(float(v) for v in res.x),
        value=float(res.fun),
        converged=bool(res.success),
    )


# ---------------------------------------------------------------------------
# random numbers
# ---------------------------------------------------------------------------

def make_rng(seed: int) -> np.random.Generator:
    """A named, portable 64-bit generator (PCG64) seeded deterministically.

    The same seed produces the same stream on every platform for a fixed
    numpy version.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"make_rng: seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(int(seed)))
