"""Within-study variance of the plug-in GRRR estimate, three ways.

* ``variance_exact``     — E(theta - E theta)^2 over Binomial(N1, p-hat) x
  Binomial(N2, q-hat), summed exactly. Binomial pmfs are built by the
  mode-anchored ratio recursion in linear space (values only decrease moving
  away from the mode, so there is no overflow), each side stopping at its
  first value below 1e-300, and renormalised to sum 1: a window of
  O(sqrt(N p (1-p))) counts plus its tail, built in time and memory of its
  own size. For each control count theta-hat is linear in the treatment
  count on either side of the tie, so the double sum reduces to prefix sums
  over the treatment window and one sum over the control window: time and
  memory O(sqrt(N1) + sqrt(N2)) for interior proportions, with no limit on
  arm size. Its arrays are built in place or in reused buffers, so one
  sigma^2 peaks at ~53 bytes a window count by tracemalloc: ~340 MiB for
  interior arms of 1e10, whose windows hold 3.4e6 counts each.
* ``variance_bootstrap`` — parametric bootstrap of the same two binomials,
  seedable and deterministic (PCG64; control arm drawn first).
* ``variance_analytic``  — closed-form approximation from the delta-method
  normal approximations of ln(q-hat/p-hat) and ln((1-q-hat)/(1-p-hat)),
  using exactly six normal-CDF evaluations. Requires interior proportions;
  callers fall back to the exact method at the boundary.

``delta_method_params`` exposes the (mu1, sigma1^2, mu2, sigma2^2) used by
the analytic method and by the split-lognormal sampling distribution
(``distribution.SplitLognormalApprox.from_table``, the one source of a
study's scales). A configurable additive constant (default 0.5) is
available for tables with a zero cell: one helper adds it to all four cells
of a table, and only when a marginal proportion is 0 or 1, for every
quantity computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StudyTable, theta_from_cells
from .errors import DomainError
from .kernels import make_rng, std_normal_cdf

__all__ = [
    "PMF_FLOOR",
    "VarianceSpec",
    "GrrrEstimate",
    "binomial_pmf_window",
    "variance_exact",
    "variance_bootstrap",
    "variance_analytic",
    "delta_method_params",
    "make_estimate",
]

PMF_FLOOR = 1e-300


@dataclass(frozen=True)
class VarianceSpec:
    """Which within-study variance method to use.

    kind: "exact" | "bootstrap" | "approx"
    replicates/seed apply to the bootstrap only.
    """

    KINDS = ("exact", "bootstrap", "approx")

    kind: str = "exact"
    replicates: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown variance method {self.kind!r}")
        if isinstance(self.replicates, bool) or not isinstance(self.replicates, int) \
                or self.replicates < 1000:
            raise DomainError(f"bootstrap replicates must be an integer >= 1000, "
                              f"got {self.replicates!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class GrrrEstimate:
    """Per-study estimate packet consumed by the meta-analysis fitters:
    theta-hat and its within-study variance. ``degenerate`` flags a raw
    table with p-hat = q-hat in {0, 1}; ``corrected`` records whether a
    zero-correction produced these numbers. The split-lognormal scales are
    not part of it: ``SplitLognormalApprox.from_table`` derives them."""

    study_id: str
    theta_hat: float
    sigma2: float
    degenerate: bool = False
    corrected: bool = False

    def __post_init__(self):
        if math.isnan(self.theta_hat) or not (-1.0 <= self.theta_hat <= 1.0):
            raise DomainError(f"{self.study_id}: theta_hat outside [-1, 1]")
        if math.isnan(self.sigma2) or math.isinf(self.sigma2) or self.sigma2 < 0.0:
            raise DomainError(f"{self.study_id}: sigma2 must be finite and >= 0")
        if not self.informative and (self.theta_hat != 0.0 or self.sigma2 != 0.0):
            raise DomainError(f"{self.study_id}: degenerate estimate must be (0, 0)")

    @property
    def informative(self) -> bool:
        """False for an uncorrected double-degenerate table, which carries
        no information about the effect."""
        return not (self.degenerate and not self.corrected)


# ---------------------------------------------------------------------------
# binomial pmf window
# ---------------------------------------------------------------------------

def _cut_at_floor(run: np.ndarray) -> np.ndarray:
    """``run`` up to, not including, its first value below PMF_FLOOR."""
    below = run < PMF_FLOOR
    return run[: int(np.argmax(below))] if below.any() else run


def binomial_pmf_window(n: int, p: float):
    """Binomial(n, p) pmf over its effective support.

    Returns (first_index, pmf) where pmf[k] = P(X = first_index + k). The
    pmf is built from the mode outwards with the ratio recursion
    P(i+1)/P(i) = ((n - i)/(i + 1)) (p/(1-p)), each side one cumprod cut
    before its first value below PMF_FLOOR, and renormalised to sum exactly
    1. A side spans at most 40 sd + 2L/3 + 2 counts (sd = sqrt(n p (1-p)),
    L = ln((n + 1) / PMF_FLOOR)), so the cost is O(sqrt(n p (1-p)) + L),
    not O(n).
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"binomial_pmf_window: n must be a non-negative integer, got {n!r}")
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise DomainError(f"binomial_pmf_window: p must be in [0, 1], got {p!r}")
    n = int(n)
    if p == 0.0:
        return 0, np.array([1.0])
    if p == 1.0:
        return n, np.array([1.0])

    mode = min(int(math.floor((n + 1) * p)), n)
    odds = p / (1.0 - p)
    # Bernstein's inequality bounds P(X = i) by exp(-t^2 / (2 sd^2 + 2t/3))
    # at |i - np| = t, and P(mode) >= 1/(n + 1), so every value relative to
    # the mode is below PMF_FLOOR once t >= 2L/3 + sqrt(2L) sd. sqrt(2L) < 40
    # for n below 1e47 and the mode is within 1 of np, so each side meets
    # the floor (or the support's edge) within ``width`` counts.
    L = math.log(n + 1) - math.log(PMF_FLOOR)
    width = int(40.0 * math.sqrt(n * p * (1.0 - p)) + 2.0 * L / 3.0) + 2
    # upward from the mode: f[i+1] = f[i] * ((n - i)/(i + 1)) * odds
    i = np.arange(mode, min(n, mode + width))
    up = _cut_at_floor(np.cumprod((n - i) / (i + 1.0) * odds))
    # downward: f[i-1] = f[i] * (i / (n - i + 1)) / odds
    i = np.arange(mode, max(0, mode - width), -1)
    dn = _cut_at_floor(np.cumprod(i / (n - i + 1.0) / odds))

    pmf = np.concatenate((dn[::-1], [1.0], up))
    pmf /= pmf.sum()
    return mode - len(dn), pmf


def _exact_mean_var(n1: int, p: float, n2: int, q: float):
    """E(theta-hat) and Var(theta-hat) over Binomial(n1, p) control counts i
    and Binomial(n2, q) treatment counts j.

    For fixed i, theta-hat = k (j - c) with tie point c = i n2 / n1 and slope
    k = n1 / (i n2) for j <= c, n1 / ((n1 - i) n2) for j > c. A tie gives
    k (j - c) = 0 = theta-hat, so it joins the lower branch, or the upper one
    at i = 0, where the lower slope is infinite. Each branch's sums of q_j (j - c)^r then
    expand into prefix sums of q_j (j - m)^r, r = 0, 1, 2, about the
    treatment mean m. Count products are taken in float64, exact below 2^53,
    so no arm size overflows. Every array is built in place or in a reused
    buffer, so the peak is 3 rows of the treatment window and 10 of the
    control window.
    """
    i_start, pv = binomial_pmf_window(n1, p)
    j_start, qv = binomial_pmf_window(n2, q)
    j = np.arange(j_start, j_start + len(qv))
    m = float((qv * j).sum())
    a = j - m
    prefix = np.zeros((3, len(qv) + 1))
    rows = prefix[:, 1:]
    rows[0] = qv
    np.multiply(qv, a, out=rows[1])
    np.multiply(rows[1], a, out=rows[2])
    del j, a, qv
    np.cumsum(rows, axis=1, out=rows)

    i = np.arange(i_start, i_start + len(pv), dtype=float)
    in2 = i * n2
    # first j above the tie, floor(c) + 1, by floor division (exact while
    # i n2 is below 2^53); at i = 0 every j is above it
    split = in2 // n1
    split += 1
    split -= j_start
    split = np.clip(split, 0, prefix.shape[1] - 1, out=split).astype(np.int64)
    if i_start == 0:
        split[0] = 0
    d = in2 / n1
    d -= m
    # the slopes; in2 and (n1 - i) n2 are 0 where a slope is left at 0
    k_lo = np.divide(n1, in2, out=in2, where=i > 0)
    k_hi = np.subtract(n1, i)
    k_hi *= n2
    np.divide(n1, k_hi, out=k_hi, where=i < n1)
    del i, in2

    # One buffer holds one branch's sums at a time: the lower branch's,
    # gathered from the prefix rows (mode "clip" writes into s without the
    # copy of it that "raise" takes; every index is in range), then the
    # upper's in place, then the lower's gathered again. Each term is formed
    # operation by operation in the order of its formula, so the bits do not
    # depend on the buffers.
    s = np.empty((3, len(pv)))
    s0, s1, s2 = s
    t, u = np.empty((2, len(pv)))
    np.take(prefix, split, axis=1, out=s, mode="clip")
    e1 = 0.0
    for k in (k_lo, k_hi):      # pv k (s1 - d s0)
        if k is k_hi:
            np.subtract(prefix[:, -1:], s, out=s)
        np.multiply(d, s0, out=u)
        np.subtract(s1, u, out=u)
        np.multiply(pv, k, out=t)
        t *= u
        e1 += float(t.sum())
    # Var = E(theta-hat - e1)^2, on each branch k^2 sum_j q_j (j - m - e)^2
    # with e = c - m + e1 / k. Unlike E(theta-hat^2) - e1^2, this loses no
    # digits when the spread is small next to e1. The terms overwrite s.
    var = 0.0
    e = u
    for k in (k_hi, k_lo):      # pv k k ((s2 - 2 e s1) + e e s0)
        if k is k_lo:
            np.take(prefix, split, axis=1, out=s, mode="clip")
        e.fill(0.0)
        np.divide(e1, k, out=e, where=k > 0)
        e += d
        np.multiply(2.0, e, out=t)
        s1 *= t
        s2 -= s1
        e *= e
        e *= s0
        s2 += e
        np.multiply(pv, k, out=t)
        t *= k
        t *= s2
        var += float(t.sum())
    return e1, max(0.0, var)


def variance_exact(table: StudyTable) -> float:
    """Exact variance of theta-hat under the plug-in product-binomial model:
    ``make_estimate``'s sigma^2 with the "exact" method."""
    return make_estimate(table, VarianceSpec("exact")).sigma2


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def _theta_of_draws(i: np.ndarray, n1: int, j: np.ndarray, n2: int) -> np.ndarray:
    """theta-hat of drawn counts; products in float64, as in the exact sum."""
    i, j = i.astype(float), j.astype(float)
    in2 = i * n2
    jn1 = j * n1
    lt = jn1 < in2
    gt = jn1 > in2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_lt = jn1 / in2
        ratio_gt = ((n2 - j) * n1) / ((n1 - i) * n2)
    return np.where(lt, ratio_lt - 1.0, np.where(gt, 1.0 - ratio_gt, 0.0))


def variance_bootstrap(table: StudyTable, replicates: int = 100_000, seed: int = 0) -> float:
    """Parametric bootstrap variance of theta-hat.

    Deterministic for a fixed (table, replicates, seed): the control arm is
    drawn first, then the treatment arm, from one PCG64 stream. This is
    ``make_estimate``'s sigma^2 with the "bootstrap" method.
    """
    return make_estimate(table, VarianceSpec("bootstrap", replicates, seed)).sigma2


# ---------------------------------------------------------------------------
# delta-method parameters and the analytic approximation
# ---------------------------------------------------------------------------

def _plugin_cells(table: StudyTable, zero_correction: float):
    """The cells (a, b, c, d) a study is computed from, and whether they are
    corrected: the table's own counts, or each count plus
    ``zero_correction`` when an arm proportion is 0 or 1 and the correction
    is positive. Arm sizes are a + b and c + d, proportions a/(a + b) and
    c/(c + d)."""
    if math.isnan(zero_correction) or zero_correction < 0.0 or math.isinf(zero_correction):
        raise DomainError(f"zero_correction must be finite and >= 0, got {zero_correction!r}")
    if table.has_boundary_margin and zero_correction > 0.0:
        return tuple(x + zero_correction for x in table.cells), True
    return table.cells, False


def _delta_params_probs(p: float, q: float, n1: float, n2: float):
    mu1 = math.log(q / p)
    s1sq = (1.0 - q) / (q * n2) + (1.0 - p) / (p * n1)
    mu2 = math.log((1.0 - q) / (1.0 - p))
    s2sq = q / ((1.0 - q) * n2) + p / ((1.0 - p) * n1)
    return mu1, s1sq, mu2, s2sq


def delta_method_params(table: StudyTable, zero_correction: float = 0.5):
    """(mu1, sigma1^2, mu2, sigma2^2) of the two log transforms.

    mu1 = ln(q/p), sigma1^2 = (1-q)/(q N2) + (1-p)/(p N1), and mu2, sigma2^2
    the same for the complements. When a marginal proportion is 0 or 1 the
    ``zero_correction`` constant is added to all four cells (and the arm
    sizes adjusted accordingly); with zero_correction = 0 such tables are a
    domain error. Interior tables are never corrected.
    """
    (a, b, c, d), corrected = _plugin_cells(table, zero_correction)
    if table.has_boundary_margin and not corrected:
        raise DomainError(
            f"{table.study_id}: boundary proportion with zero_correction=0; "
            f"delta-method parameters undefined")
    return _delta_params_probs(c / (c + d), a / (a + b), c + d, a + b)


def _analytic_probs(p: float, q: float, n1: float, n2: float) -> float:
    mu1, s1sq, mu2, s2sq = _delta_params_probs(p, q, n1, n2)
    s1, s2 = math.sqrt(s1sq), math.sqrt(s2sq)
    rq = q / p
    rc = (1.0 - q) / (1.0 - p)
    a = [rq ** k * math.exp(0.5 * k * k * s1sq) * std_normal_cdf(-mu1 / s1 - k * s1)
         for k in range(3)]
    b = [rc ** k * math.exp(0.5 * k * k * s2sq) * std_normal_cdf(-mu2 / s2 - k * s2)
         for k in range(3)]
    e1 = a[1] - a[0] + b[0] - b[1]
    e2 = a[2] - 2.0 * a[1] + a[0] + b[2] - 2.0 * b[1] + b[0]
    return max(0.0, e2 - e1 * e1)


def variance_analytic(table: StudyTable) -> float:
    """Closed-form approximate variance of theta-hat (six normal-CDF
    evaluations): ``make_estimate``'s sigma^2 with the "approx" method.
    Domain error when either proportion is 0 or 1, where ``make_estimate``
    falls back to the exact method."""
    if table.has_boundary_margin:
        raise DomainError(
            f"{table.study_id}: analytic variance needs interior proportions")
    return make_estimate(table, VarianceSpec("approx")).sigma2


# ---------------------------------------------------------------------------
# estimate assembly
# ---------------------------------------------------------------------------

def make_estimate(table: StudyTable,
                  spec: VarianceSpec = VarianceSpec(),
                  zero_correction: float = 0.0) -> GrrrEstimate:
    """Bundle theta-hat and its within-study variance for one study.

    With ``zero_correction = 0`` (the default) tables keep their raw
    plug-ins: double-degenerate tables come back as (0, 0) with the
    degenerate flag set, single-boundary tables keep theta-hat = +-1 with
    an exact variance, and the "approx" method falls back to the exact
    variance at the boundary. A positive ``zero_correction`` (the CLI
    passes ``--zero-correction``, 0.5 unless set, under every model and
    for ``estimate``) replaces boundary tables' cells with corrected ones
    (``_plugin_cells``) before anything else is computed; the exact and bootstrap variances then keep the
    original arm sizes with the corrected probabilities. A negative,
    infinite or NaN ``zero_correction`` is a domain error.
    """
    (a, b, c, d), corrected = _plugin_cells(table, zero_correction)
    degenerate = table.double_degenerate
    if degenerate and not corrected:
        return GrrrEstimate(study_id=table.study_id, theta_hat=0.0, sigma2=0.0,
                            degenerate=True)

    p, q = c / (c + d), a / (a + b)
    theta_hat = theta_from_cells(a, b, c, d)
    n1, n2 = table.n_control, table.n_treatment
    if spec.kind == "bootstrap":
        rng = make_rng(spec.seed)
        i = rng.binomial(n1, p, size=spec.replicates)
        j = rng.binomial(n2, q, size=spec.replicates)
        sigma2 = float(np.var(_theta_of_draws(i, n1, j, n2), ddof=1))
    elif spec.kind == "approx" and 0.0 < p < 1.0 and 0.0 < q < 1.0:
        sigma2 = _analytic_probs(p, q, c + d, a + b)
    else:   # exact, or approx at the boundary
        _, sigma2 = _exact_mean_var(n1, p, n2, q)
    return GrrrEstimate(study_id=table.study_id, theta_hat=theta_hat, sigma2=sigma2,
                        degenerate=degenerate, corrected=corrected)
