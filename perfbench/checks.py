"""Output checks made apart from the program.

Every check reads the emitted report (parsed JSON or CSV bytes) and the
input counts, recomputes what it checks with numpy, scipy or mpmath, and
raises ``CheckError`` on a mismatch. Nothing here calls into ``grrr``.

Zero-correction rule (README "Command line", default 0.5): a table with an
arm proportion of 0 or 1 gets 0.5 added to all four cells; the within-study
quantities then use p = (e_c + 0.5)/(n_c + 1), q = (e_t + 0.5)/(n_t + 1).
The exact variance keeps the original arm sizes; the approx variance and
the split-lognormal scales use the corrected ones (n + 1).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy import stats

ZERO_CORRECTION = 0.5
ALPHA = 0.05


class CheckError(AssertionError):
    """A program output disagrees with its independent recomputation."""


def _fail(check: str, detail: str):
    raise CheckError(f"{check}: {detail}")


def _close(check: str, what: str, got: float, want: float, atol: float, rtol: float = 0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        _fail(check, f"{what}: program {got!r}, oracle {want!r} "
                     f"(|diff| {abs(got - want):.3g})")


# ---------------------------------------------------------------------------
# per-study quantities from the counts
# ---------------------------------------------------------------------------

def parse_counts(csv_text: str) -> list[tuple]:
    """(study_id, events_t, n_t, events_c, n_c) rows of a benchmark input."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    return [(r[0], *map(int, r[1:])) for r in rows[1:]]


def _boundary(row) -> bool:
    _, et, nt, ec, nc = row
    return et in (0, nt) or ec in (0, nc)


def corrected(row):
    """(p, q, n_c', n_t') after the documented zero-correction rule; exact
    fractions for p and q."""
    _, et, nt, ec, nc = row
    if _boundary(row):
        c = Fraction(ZERO_CORRECTION)
        return (ec + c) / (nc + 2 * c), (et + c) / (nt + 2 * c), nc + 2 * c, nt + 2 * c
    return Fraction(ec, nc), Fraction(et, nt), Fraction(nc), Fraction(nt)


def theta_of(p: Fraction, q: Fraction) -> Fraction:
    if q == p:
        return Fraction(0)
    return q / p - 1 if q < p else 1 - (1 - q) / (1 - p)


def check_theta_hats(report: dict, rows) -> None:
    """theta-hat_i from the counts, in exact rational arithmetic."""
    studies = report["studies"]
    if [s["study_id"] for s in studies] != [r[0] for r in rows]:
        _fail("theta_hat", "study ids or their order differ from the input")
    for s, row in zip(studies, rows):
        p, q, _, _ = corrected(row)
        _close("theta_hat", s["study_id"], s["theta_hat"], float(theta_of(p, q)), 1e-15)
        if s["used"] is not True:
            _fail("theta_hat", f"{s['study_id']}: dropped although the "
                               f"zero-correction makes every table usable")


def check_study_cis(report: dict) -> None:
    """Every per-study CI contains theta-hat_i and lies in [-1, 1]."""
    for s in report["studies"]:
        lo, hi = s["ci_lower"], s["ci_upper"]
        if lo is None or hi is None:
            _fail("study_ci", f"{s['study_id']}: no interval ({s['ci_note']})")
        if not (-1.0 <= lo <= s["theta_hat"] <= hi <= 1.0):
            _fail("study_ci", f"{s['study_id']}: [{lo}, {hi}] vs theta-hat {s['theta_hat']}")


def check_pooled_ci(report: dict) -> None:
    """Pooled CI is theta +/- z se clipped to [-1, 1]."""
    z = stats.norm.ppf(1.0 - ALPHA / 2.0)
    pooled = report["pooled"]
    _close("pooled_ci", "ci_lower", pooled["ci_lower"],
           max(-1.0, pooled["theta"] - z * pooled["se"]), 1e-12)
    _close("pooled_ci", "ci_upper", pooled["ci_upper"],
           min(1.0, pooled["theta"] + z * pooled["se"]), 1e-12)


def check_csv_matches_json(csv_bytes: bytes, report: dict) -> None:
    """The CSV report carries the same numbers as the JSON report."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    if rows[0] != ["study_id", "theta", "se", "sigma2", "ci_lower", "ci_upper",
                   "used", "note", "tau", "i_squared"]:
        _fail("csv", f"header {rows[0]!r}")
    body, pooled = rows[1:-1], rows[-1]
    if len(body) != len(report["studies"]):
        _fail("csv", f"{len(body)} study rows, JSON has {len(report['studies'])}")
    for r, s in zip(body, report["studies"]):
        if (r[0] != s["study_id"] or float(r[1]) != s["theta_hat"]
                or float(r[3]) != s["sigma2"] or float(r[4]) != s["ci_lower"]
                or float(r[5]) != s["ci_upper"]):
            _fail("csv", f"row {r!r} differs from the JSON record")
        _close("csv", f"{s['study_id']} se", float(r[2]) ** 2, s["sigma2"], 0.0, 1e-15)
    p = report["pooled"]
    want = ["POOLED", p["theta"], p["se"], p["ci_lower"], p["ci_upper"],
            report["tau"]["estimate"]]
    got = [pooled[0], float(pooled[1]), float(pooled[2]), float(pooled[4]),
           float(pooled[5]), float(pooled[8])]
    if got != want:
        _fail("csv", f"pooled row {pooled!r} differs from the JSON report")


# ---------------------------------------------------------------------------
# within-study variance
# ---------------------------------------------------------------------------

def exact_mean_var(n1: int, p: float, n2: int, q: float) -> tuple[float, float]:
    """E and Var of theta-hat under Binomial(n1, p) x Binomial(n2, q), with
    scipy.stats.binom weights over the full supports and prefix moments:
    for a fixed control count i, theta-hat is linear in the treatment
    count j on each side of the tie point c = i n2 / n1, namely
    n1 (j - c) / (i n2) below it and n1 (j - c) / ((n1 - i) n2) above it.
    O(n1 + n2) work and memory."""
    i = np.arange(n1 + 1)
    j = np.arange(n2 + 1)
    pi = stats.binom.pmf(i, n1, p)
    qj = stats.binom.pmf(j, n2, q)
    m = float(qj @ j)
    d = j - m
    zero = np.zeros(1)
    s0 = np.concatenate((zero, np.cumsum(qj)))
    s1 = np.concatenate((zero, np.cumsum(qj * d)))
    s2 = np.concatenate((zero, np.cumsum(qj * d * d)))
    in2 = i.astype(np.int64) * n2          # exact integer cross products
    lt_end = -(-in2 // n1)                  # j < c  <=>  j n1 < i n2
    gt_start = in2 // n1 + 1                # j > c
    c = i * (n2 / n1)
    e = m - c                               # so that j - c = d + e
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(i > 0, n1 / (i * float(n2)), 0.0)
        b = np.where(i < n1, n1 / ((n1 - i) * float(n2)), 0.0)
    # lower branch: sum over j < c of q_j (j - c)^k
    l0, l1, l2 = s0[lt_end], s1[lt_end], s2[lt_end]
    m1_lt = l1 + e * l0
    m2_lt = l2 + 2 * e * l1 + e * e * l0
    # upper branch: sum over j > c
    u0 = s0[-1] - s0[np.minimum(gt_start, n2 + 1)]
    u1 = s1[-1] - s1[np.minimum(gt_start, n2 + 1)]
    u2 = s2[-1] - s2[np.minimum(gt_start, n2 + 1)]
    m1_gt = u1 + e * u0
    m2_gt = u2 + 2 * e * u1 + e * e * u0
    e1 = float(pi @ (a * m1_lt + b * m1_gt))
    e2 = float(pi @ (a * a * m2_lt + b * b * m2_gt))
    return e1, e2 - e1 * e1


def check_exact_sigma2(report: dict, rows) -> None:
    """sigma2_i of the exact engine against the prefix-moment enumeration."""
    for s, row in zip(report["studies"], rows):
        _, _, nt, _, nc = row
        p, q, _, _ = corrected(row)
        _, var = exact_mean_var(nc, float(p), nt, float(q))
        _close("exact_sigma2", s["study_id"], s["sigma2"], var, 1e-15, 1e-8)


def approx_var(p: float, q: float, n1: float, n2: float) -> float:
    """Variance of theta-hat when R = q-hat/p-hat and
    C = (1 - q-hat)/(1 - p-hat) are taken as lognormal with delta-method
    parameters: theta-hat = R - 1 on {R < 1} and 1 - C on {C < 1}, so its
    moments are partial moments E[X^k 1{X < 1}] =
    exp(k mu + k^2 s^2 / 2) Phi((-mu - k s^2) / s) of the two lognormals."""
    mu_r = math.log(q / p)
    s2_r = (1 - q) / (q * n2) + (1 - p) / (p * n1)
    mu_c = math.log((1 - q) / (1 - p))
    s2_c = q / ((1 - q) * n2) + p / ((1 - p) * n1)

    def partial(mu, s2, k):
        s = math.sqrt(s2)
        return math.exp(k * mu + 0.5 * k * k * s2) * float(stats.norm.cdf((-mu - k * s2) / s))

    r = [partial(mu_r, s2_r, k) for k in range(3)]
    c = [partial(mu_c, s2_c, k) for k in range(3)]
    e1 = (r[1] - r[0]) + (c[0] - c[1])
    e2 = (r[2] - 2 * r[1] + r[0]) + (c[0] - 2 * c[1] + c[2])
    return e2 - e1 * e1


def check_approx_sigma2(report: dict, rows) -> None:
    """sigma2_i of the approx engine against the six-normal-cdf closed form."""
    for s, row in zip(report["studies"], rows):
        p, q, n1, n2 = corrected(row)
        want = approx_var(float(p), float(q), float(n1), float(n2))
        _close("approx_sigma2", s["study_id"], s["sigma2"], want, 1e-15, 1e-9)


# ---------------------------------------------------------------------------
# pooled fits
# ---------------------------------------------------------------------------

def _theta_sigma2(report: dict):
    used = [s for s in report["studies"] if s["used"]]
    return (np.array([s["theta_hat"] for s in used]),
            np.array([s["sigma2"] for s in used]))


def check_ml(report: dict) -> None:
    """Normal ML: the reported (theta-hat, tau-hat) solves the score
    equations of sum_i log N(theta-hat_i; theta, sigma2_i + tau^2), and
    the reported loglik is that log-density there. With w_i = 1/(sigma2_i +
    tau-hat^2) and r_i = theta-hat_i - theta-hat: theta-hat = sum w_i
    theta-hat_i / sum w_i, and d loglik / d tau^2 = sum (w_i^2 r_i^2 - w_i)/2
    is 0 at an interior tau-hat (checked as d/d tau = 2 tau-hat times it)
    and <= 0 at a boundary tau-hat = 0. This shows a local maximum only:
    the profile over tau can have a second one."""
    th, s2 = _theta_sigma2(report)
    theta, tau = report["pooled"]["theta"], report["tau"]["estimate"]
    w = 1.0 / (s2 + tau * tau)
    _close("ml_score", "pooled theta", theta, float(w @ th / w.sum()), 1e-6)
    score_tau2 = 0.5 * float(w @ (w * (th - theta) ** 2) - w.sum())
    if tau > 0.0:
        _close("ml_score", "d loglik / d tau", 2.0 * tau * score_tau2, 0.0, 1e-3)
    elif not score_tau2 <= 0.0:
        _fail("ml_score", f"d loglik / d tau^2 = {score_tau2:.3g} > 0 at the boundary tau = 0")
    _close("ml_loglik", "loglik", report["loglik"],
           float(stats.norm.logpdf(th, theta, np.sqrt(s2 + tau * tau)).sum()), 1e-9)


def check_dl(report: dict) -> None:
    """DerSimonian-Laird theta, se, tau and I^2 recomputed with numpy."""
    th, s2 = _theta_sigma2(report)
    w = 1.0 / s2
    fe = w @ th / w.sum()
    q = w @ (th - fe) ** 2
    df = len(th) - 1
    tau2 = max(0.0, (q - df) / (w.sum() - (w @ w) / w.sum()))
    ws = 1.0 / (s2 + tau2)
    _close("dl", "pooled theta", report["pooled"]["theta"], float(ws @ th / ws.sum()), 0.0, 1e-12)
    _close("dl", "pooled se", report["pooled"]["se"], float(1 / math.sqrt(ws.sum())), 0.0, 1e-12)
    _close("dl", "tau", report["tau"]["estimate"], math.sqrt(tau2), 1e-15, 1e-12)
    _close("dl", "I^2", report["i_squared"], max(0.0, 100.0 * (q - df) / q), 1e-9)


def beta_loglik(report: dict, theta: float, tau: float) -> float:
    """Sum of scipy.stats.beta.logpdf at psi-hat_i = (1 + theta-hat_i)/2,
    Beta of mean (1 + theta)/2 and variance (sigma2_i + tau^2)/4."""
    th, s2 = _theta_sigma2(report)
    m = 0.5 * (1.0 + theta)
    common = m * (1.0 - m) / (0.25 * (s2 + tau * tau)) - 1.0
    return float(stats.beta.logpdf(0.5 * (1.0 + th), m * common, (1.0 - m) * common).sum())


def check_beta(report: dict) -> None:
    """Beta model: the reported loglik is the beta log-density at the
    reported (theta, tau), and steps of 1e-3 in either lower it."""
    theta, tau = report["pooled"]["theta"], report["tau"]["estimate"]
    at = beta_loglik(report, theta, tau)
    _close("beta_loglik", "loglik", report["loglik"], at, 1e-9)
    steps = [(theta + 1e-3, tau), (theta - 1e-3, tau), (theta, tau + 1e-3)]
    if tau >= 1e-3:
        steps.append((theta, tau - 1e-3))
    for t, u in steps:
        if not beta_loglik(report, t, u) < at:
            _fail("beta_loglik", f"loglik at ({t}, {u}) is not below the optimum")


# ---------------------------------------------------------------------------
# split-lognormal marginal likelihood
# ---------------------------------------------------------------------------

def _split_scales(row):
    p, q, n1, n2 = (float(v) for v in corrected(row))
    s1 = math.sqrt((1 - q) / (q * n2) + (1 - p) / (p * n1))
    s2 = math.sqrt(q / ((1 - q) * n2) + p / ((1 - p) * n1))
    return float(theta_of(*corrected(row)[:2])), s1, s2


def _split_logpdf(x, theta, s1, s2):
    """Log density of theta-hat = x at a true theta: ln(1 + theta-hat) is
    normal on the negative branch, ln(1 - theta-hat) on the other, with
    means tied so that mu1/s1 = -mu2/s2 (module ``distribution``'s
    documented mean substitution). Works on floats or mpmath numbers."""
    lib = mpmath if isinstance(theta, mpmath.mpf) else math
    if theta < 0:
        mu1 = lib.log(1 + theta)
        mu2 = -(s2 / s1) * mu1
    else:
        mu2 = lib.log(1 - theta)
        mu1 = -(s1 / s2) * mu2
    if x < 0:
        y, mu, s = lib.log(1 + x), mu1, s1
    else:
        y, mu, s = lib.log(1 - x), mu2, s2
    z = (y - mu) / s
    return -z * z / 2 - lib.log(s * lib.sqrt(2 * lib.pi)) - y


def point_mass_loglik(rows, theta: float) -> float:
    """Common-effect (tau = 0) split-lognormal log-likelihood."""
    return math.fsum(_split_logpdf(x, theta, s1, s2)
                     for x, s1, s2 in map(_split_scales, rows))


def marginal_loglik(rows, theta: float, tau: float) -> float:
    """Split-lognormal log-likelihood with psi_i = (1 + theta_i)/2 drawn
    from a Beta of mean (1 + theta)/2 and variance tau^2/4, by mpmath.quad
    with breakpoints at theta = 0, at each study's peak and at multiples of
    both branch scales about it, and about the Beta mode."""
    m = mpmath.mpf(1 + theta) / 2
    common = m * (1 - m) / (mpmath.mpf(tau) ** 2 / 4) - 1
    a, b = m * common, (1 - m) * common
    log_b = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
    sd = mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    centre = (a - 1) / (a + b - 2) if a > 1 and b > 1 else m
    beta_pts = [centre + k * sd for k in (-6, -3, -1, 0, 1, 3, 6)]
    total = mpmath.mpf(0)
    for x, s1, s2 in map(_split_scales, rows):
        x, s1, s2 = mpmath.mpf(x), mpmath.mpf(s1), mpmath.mpf(s2)
        peak = (1 + x) / 2
        study_pts = [peak + k * w for w in ((1 + x) * s1 / 2, (1 - x) * s2 / 2)
                     for k in (-8, -3, -1, 1, 3, 8)]
        pts = sorted({float(v) for v in [0.5, peak, *study_pts, *beta_pts]
                      if 0 < v < 1})

        def f(psi):
            return mpmath.exp(_split_logpdf(x, 2 * psi - 1, s1, s2)
                              + (a - 1) * mpmath.log(psi)
                              + (b - 1) * mpmath.log(1 - psi) - log_b)

        total += mpmath.log(mpmath.quad(f, [0, *pts, 1]))
    return float(total)


def check_split_loglik(report: dict, rows) -> None:
    """The reported loglik is the marginal likelihood at the reported
    (theta, tau); at tau = 0 it is the common-effect likelihood."""
    theta, tau = report["pooled"]["theta"], report["tau"]["estimate"]
    if tau > 0.0:
        _close("split_loglik", "loglik", report["loglik"], marginal_loglik(rows, theta, tau), 1e-9)
    else:
        _close("split_loglik", "loglik at tau = 0", report["loglik"],
               point_mass_loglik(rows, theta), 1e-9)


def check_split_boundary(report: dict, rows) -> None:
    """A boundary fit (tau = 0) is a one-sided optimum: the marginal
    likelihood at tau = 0.01 is lower."""
    if report["tau"]["estimate"] == 0.0:
        inside = marginal_loglik(rows, report["pooled"]["theta"], 0.01)
        if not inside < report["loglik"]:
            _fail("split_boundary", f"loglik {inside} at tau = 0.01 is not below "
                                    f"the boundary optimum {report['loglik']}")


def check_restart_spread(restart_thetas) -> None:
    """The Nelder-Mead restarts end within 1e-5 of each other."""
    spread = max(restart_thetas) - min(restart_thetas)
    if not spread <= 1e-5:
        _fail("restart_spread", f"restart thetas spread by {spread:.3g}")


# ---------------------------------------------------------------------------
# one analysis
# ---------------------------------------------------------------------------

MODEL_CHECKS = {
    "direct-ml": (check_ml,),
    "direct-dl": (check_dl,),
    "beta": (check_beta,),
    "split-lognormal": (),
}
VARIANCE_CHECKS = {"exact": check_exact_sigma2, "approx": check_approx_sigma2}


def check_outputs(analysis, outputs: dict, restart_thetas: dict) -> int:
    """Run every check on the outputs of one operation; ``outputs`` maps
    (model, format) to report bytes. Returns the number of checks run."""
    rows = parse_counts(analysis.csv)
    n = 0
    for model in analysis.models:
        report = json.loads(outputs[model, "json"])
        if report["model"] != model or report["dataset_sha256"] != analysis.sha256:
            _fail("header", f"model {report['model']!r} / dataset hash mismatch")
        check_theta_hats(report, rows)
        check_study_cis(report)
        check_pooled_ci(report)
        n += 3
        VARIANCE_CHECKS[analysis.variance](report, rows)
        n += 1
        if model == "split-lognormal":
            check_split_loglik(report, rows)
            check_split_boundary(report, rows)
            check_restart_spread(restart_thetas[model])
            n += 3
        for check in MODEL_CHECKS[model]:
            check(report)
            n += 1
        if (model, "csv") in outputs:
            check_csv_matches_json(outputs[model, "csv"], report)
            n += 1
    return n
