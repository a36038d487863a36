"""Numeric kernels: normal CDF/quantile, log-beta, adaptive quadrature,
derivative-free minimisation, and a seeded random generator.

Everything above this module (variance engine, sampling distribution,
meta-analysis fitters) goes through these entry points, so their accuracy
contracts are tested here once:

* ``std_normal_cdf``        abs error < 1e-15 on |x| <= 8
* ``std_normal_quantile``   Phi(quantile(p)) = p to 1e-12
* ``log_beta``              error < 1e-13 of the largest log-gamma term
* ``integrate_vector``      adaptive Gauss-Kronrod (G7,K15) over shared
                            panels, conservative error estimates,
                            breakpoint support
* ``minimize``              Nelder-Mead simplex (scipy), deterministic
* ``make_rng``              PCG64-backed, reproducible per seed
"""

from __future__ import annotations

import heapq
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

def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0, via log-gamma.

    Accuracy is relative to the largest of the three log-gamma terms (the
    absolute error grows when they cancel, e.g. B(a, b) near 1)."""
    if not (a > 0.0 and b > 0.0) or math.isinf(a) or math.isinf(b):
        raise DomainError(f"log_beta: parameters must be finite and > 0, got {(a, b)!r}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
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
_G_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _eval_panel(f, a: float, b: float):
    """Evaluate one (G7,K15) panel; returns (kronrod_vec, err_vec, n_evals).

    ``f`` maps an array of abscissae to an (n, m) array (m components
    integrated simultaneously over identical panels).
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _GK_NODES
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim == 1:
        fx = fx[:, None]
    if not np.all(np.isfinite(fx)):
        raise DomainError(f"integrate_vector: non-finite integrand value on [{a}, {b}]")
    kron = half * (_GK_WEIGHTS @ fx)
    gauss = half * (_G_WEIGHTS @ fx[1::2])
    return kron, np.abs(kron - gauss), x.shape[0]


def integrate_vector(
    f: Callable[[np.ndarray], np.ndarray],
    n_components: int,
    tol: float = 1e-10,
    lower: float = 0.0,
    upper: float = 1.0,
    breakpoints: Sequence[float] = (),
    max_panels: int = 4096,
    stall_limit: int = 30,
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Adaptively integrate an (n, m)-valued integrand over [lower, upper].

    All components share the panel structure; refinement always splits the
    panel with the largest single-component error until every component's
    summed error estimate is <= tol (or the panel budget runs out). Returns
    (values, error_estimates, converged, evaluations); summation over panels
    is done in fixed left-to-right order, so results do not depend on the
    refinement schedule's internal ordering.

    When ``stall_limit`` consecutive splits fail to shrink the total error
    estimate, the integrand is roundoff-noise limited and refinement stops
    early (reported as non-convergence): further bisection would only burn
    the panel budget without gaining accuracy.
    """
    if not (tol > 0.0) or math.isnan(tol):
        raise DomainError(f"integrate_vector: tol must be > 0, got {tol!r}")
    if not (lower < upper) or math.isinf(lower) or math.isinf(upper):
        raise DomainError(f"integrate_vector: bad interval [{lower}, {upper}]")

    edges = [lower]
    for pt in sorted(set(float(p) for p in breakpoints)):
        if lower < pt < upper:
            edges.append(pt)
    edges.append(upper)

    heap = []  # (-max_component_err, tie_counter, a, b, kron_vec, err_vec)
    counter = 0
    evals = 0
    total_err = np.zeros(n_components)  # running sum; recomputed exactly at the end
    for a, b in zip(edges[:-1], edges[1:]):
        kron, err, n = _eval_panel(f, a, b)
        evals += n
        total_err += err
        heapq.heappush(heap, (-float(err.max()), counter, a, b, kron, err))
        counter += 1

    stuck = []  # panels too narrow to split further
    stalled = 0
    best_worst = math.inf
    while len(heap) + len(stuck) < max_panels and not np.all(total_err <= tol):
        neg_err, _, a, b, kron, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if not (a < mid < b) or neg_err == 0.0:
            stuck.append((neg_err, counter, a, b, kron, err))
            if not heap:
                break
            continue
        total_err -= err
        for lo, hi in ((a, mid), (mid, b)):
            kron_c, err_c, n = _eval_panel(f, lo, hi)
            evals += n
            total_err += err_c
            heapq.heappush(heap, (-float(err_c.max()), counter, lo, hi, kron_c, err_c))
            counter += 1
        worst = float(total_err.max())
        if worst < 0.999 * best_worst:
            best_worst = worst
            stalled = 0
        else:
            stalled += 1
            if stalled >= stall_limit:
                break

    panels = sorted(heap + stuck, key=lambda item: (item[2], item[3]))
    values = np.zeros(n_components)
    errors = np.zeros(n_components)
    for _, _, _, _, kron, err in panels:
        values += kron
        errors += err
    return values, errors, bool(np.all(errors <= tol)), evals


# ---------------------------------------------------------------------------
# derivative-free minimisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerResult:
    argmin: tuple
    value: float
    converged: bool
    iterations: int


def minimize(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
    tol: float = 1e-8,
    fatol: float = 1e-12,
    max_iterations: int = 10000,
) -> OptimizerResult:
    """Nelder-Mead simplex minimisation (deterministic for fixed inputs).

    ``tol`` bounds the final simplex diameter (xatol); ``fatol`` bounds the
    spread of function values over the simplex. Non-convergence is reported
    via ``converged=False`` rather than raised, so callers can decide.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size == 0 or not np.all(np.isfinite(x0)):
        raise DomainError(f"minimize: bad starting point {start!r}")
    res = scipy.optimize.minimize(
        f, x0, method="Nelder-Mead",
        options={
            "xatol": tol, "fatol": fatol,
            "maxiter": max_iterations, "maxfev": max_iterations,
        },
    )
    return OptimizerResult(
        argmin=tuple(float(v) for v in res.x),
        value=float(res.fun),
        converged=bool(res.success),
        iterations=int(res.nit),
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
