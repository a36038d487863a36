"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Pooled-estimate targets are checked on the bundled reconstructions of the
cited source tables.  The BCG reconstruction follows the 13-trial table of
Colditz et al. (1994) row for row; its pooled point estimates miss the
published analysis by more than the stated tolerances, and why is not
settled (see README, "Dataset provenance").  A one-row slip in the
reference's extraction is one hypothesis: duplicating Hart-Sutherland-1977
over any of three rows meets most targets, but none of the 169 one-row drops
or duplications meets the DerSimonian-Laird theta and tau targets together.
Those sub-checks fail honestly here; tolerances are not widened and the data
are not adjusted.
The lamotrigine dataset is not reconstructable offline (network fetching is
out of scope), so its sub-checks are reported as skipped.
"""

import functools
import math
import time
from importlib import resources

import numpy as np
import pytest
import scipy.integrate

from grrr.cli import parse_dataset
from grrr.core import StudyTable, estimate_theta, q_from_p_theta
from grrr.distribution import (
    SplitLognormalApprox,
    cdf,
    confidence_interval,
    p_value,
    pdf,
)
from grrr.errors import DomainError
from grrr.kernels import make_rng
from grrr.meta import (
    fit_beta_model,
    fit_direct_dl,
    fit_direct_ml,
    fit_split_lognormal_model,
)
from grrr.variance import (
    VarianceSpec,
    binomial_pmf_window,
    delta_method_params,
    make_estimate,
    variance_bootstrap,
    variance_exact,
)

_DISCREPANCY_NOTE = ("pooled centres differ from the published values; cause "
                     "unsettled: a one-row extraction slip (Comstock-1974, "
                     "Frimodt-Moller-1973 or Coetzee-Berjak-1968 duplicating "
                     "Hart-Sutherland-1977) is one hypothesis "
                     "(README, 'Dataset provenance')")


def _report(num, checks, skips=(), note=""):
    """Emit the criterion's single PASS/FAIL line and assert it."""
    failed = [f"{name} [{detail}]" for name, ok, detail in checks if not ok]
    line = f"CRITERION {num}: " + ("PASS" if not failed else "FAIL")
    if failed:
        line += " -- failed: " + "; ".join(failed)
    if skips:
        line += " -- skipped: " + "; ".join(skips)
    if note:
        line += f" -- {note}"
    print(line)
    assert not failed, line


def _load(name):
    return parse_dataset(str(resources.files("grrr.data") / name))


def _estimates(tables):
    return [make_estimate(t, VarianceSpec("exact", seed=i), zero_correction=0.5)
            for i, t in enumerate(tables)]


@pytest.fixture(scope="module")
def bcg_tables():
    return _load("bcg.csv")


@pytest.fixture(scope="module")
def strept_tables():
    return _load("streptokinase.csv")


@pytest.fixture(scope="module")
def bcg_fits(bcg_tables):
    """The three Table-2 fits on BCG, with wall-clock fit times."""
    estimates = _estimates(bcg_tables)
    out = {}
    for name, runner in (
        ("direct-ml", lambda: fit_direct_ml(estimates)),
        ("beta", lambda: fit_beta_model(estimates)),
        ("split-lognormal", lambda: fit_split_lognormal_model(bcg_tables)),
    ):
        start = time.perf_counter()
        fit = runner()
        out[name] = (fit, time.perf_counter() - start)
    return out


@pytest.fixture(scope="module")
def strept_fits(strept_tables):
    estimates = _estimates(strept_tables)
    return {
        "direct-ml": fit_direct_ml(estimates),
        "beta": fit_beta_model(estimates),
        "split-lognormal": fit_split_lognormal_model(strept_tables),
    }


def _within(value, target, tol):
    return abs(value - target) <= tol, f"got {value:.4f}, want {target}±{tol}"


class TestCriterion1:
    def test_table2_reproduction_bcg(self, bcg_fits):
        ml, t_ml = bcg_fits["direct-ml"]
        beta, t_beta = bcg_fits["beta"]
        sln, t_sln = bcg_fits["split-lognormal"]
        checks = []
        for name, got, target, tol in [
            ("direct-ML theta", ml.theta_hat, -0.496, 0.01),
            ("direct-ML se", ml.se_theta, 0.088, 0.005),
            ("direct-ML tau", ml.tau_hat, 0.292, 0.01),
            ("beta theta", beta.theta_hat, -0.489, 0.01),
            ("split-lognormal theta", sln.theta_hat, -0.505, 0.01),
            ("split-lognormal tau", sln.tau_hat, 0.239, 0.015),
        ]:
            ok, detail = _within(got, target, tol)
            checks.append((name, ok, detail))
        slowest = max(t_ml, t_beta, t_sln)
        checks.append(("runtime < 10 s each", slowest < 10.0,
                       f"slowest fit {slowest:.2f} s"))
        checks.append(("all fits converged",
                       ml.converged and beta.converged and sln.converged,
                       "converged flags"))
        _report(1, checks, note=_DISCREPANCY_NOTE)


class TestCriterion2:
    def test_table3_reproduction(self, bcg_tables):
        dl = fit_direct_dl(_estimates(bcg_tables))
        checks = []
        for name, got, target, tol in [
            ("direct-DL theta", dl.theta_hat, -0.493, 0.005),
            ("direct-DL se", dl.se_theta, 0.102, 0.005),
            ("direct-DL tau", dl.tau_hat, 0.345, 0.01),
            ("direct-DL I2", dl.i_squared, 97.6, 0.5),
        ]:
            ok, detail = _within(got, target, tol)
            checks.append((name, ok, detail))
        skips = ["lamotrigine tau=0, I2=0: source table not reconstructable "
                 "offline (network fetching is out of scope)"]
        _report(2, checks, skips=skips,
                note="cause unsettled: each of the three candidate one-row "
                     "slips meets three of these four targets, and none of "
                     "the 169 one-row drops or duplications meets theta and "
                     "tau together (README, 'Dataset provenance')")


class TestCriterion3:
    def test_streptokinase_boundary(self, strept_fits):
        sln = strept_fits["split-lognormal"]
        ok_theta, detail = _within(sln.theta_hat, -0.200, 0.01)
        checks = [
            ("tau-hat == 0", sln.tau_hat == 0.0, f"got {sln.tau_hat!r}"),
            ("se(tau) reported 0", sln.se_tau == 0.0, f"got {sln.se_tau!r}"),
            ("theta", ok_theta, detail),
            ("converged", sln.converged, "converged flag"),
        ]
        _report(3, checks)


def _brute_force_var(table):
    """Independent O(N^2) double summation over both binomial supports."""
    n_t, n_c = table.n_treatment, table.n_control
    q, p = table.q_hat, table.p_hat
    w_t = [math.comb(n_t, k) * q**k * (1.0 - q) ** (n_t - k)
           for k in range(n_t + 1)]
    w_c = [math.comb(n_c, k) * p**k * (1.0 - p) ** (n_c - k)
           for k in range(n_c + 1)]
    m1 = m2 = 0.0
    for i, wc in enumerate(w_c):
        for j, wt in enumerate(w_t):
            th = estimate_theta(StudyTable("b", j, n_t, i, n_c))
            m1 += wc * wt * th
            m2 += wc * wt * th * th
    return m2 - m1 * m1


def _exact_moments(table):
    """Mean, variance and fourth central moment of the plug-in estimator."""
    first_c, w_c = binomial_pmf_window(table.n_control, table.p_hat)
    first_t, w_t = binomial_pmf_window(table.n_treatment, table.q_hat)
    thetas = np.array([
        [estimate_theta(StudyTable("m", first_t + j, table.n_treatment,
                                   first_c + i, table.n_control))
         for j in range(len(w_t))]
        for i in range(len(w_c))])
    w = np.outer(w_c, w_t)
    mean = float((w * thetas).sum())
    centred = thetas - mean
    var = float((w * centred**2).sum())
    m4 = float((w * centred**4).sum())
    return mean, var, m4


class TestCriterion4:
    def test_variance_oracle_suite(self):
        start = time.perf_counter()
        rng = make_rng(40404)
        checks = []

        worst = 0.0
        for _ in range(50):
            n_t, n_c = int(rng.integers(2, 61)), int(rng.integers(2, 61))
            table = StudyTable("r", int(rng.integers(0, n_t + 1)), n_t,
                               int(rng.integers(0, n_c + 1)), n_c)
            worst = max(worst, abs(variance_exact(table)
                                   - _brute_force_var(table)))
        checks.append(("exact vs brute force (50 tables, 1e-10)",
                       worst <= 1e-10, f"worst |diff| {worst:.2e}"))

        worst_z = 0.0
        for seed, table in enumerate([
            StudyTable("b1", 12, 40, 20, 50),
            StudyTable("b2", 3, 25, 8, 30),
            StudyTable("b3", 45, 120, 33, 110),
        ]):
            _, var, m4 = _exact_moments(table)
            mc_se = math.sqrt((m4 - var * var) / 1_000_000)
            boot = variance_bootstrap(table, replicates=1_000_000, seed=seed)
            worst_z = max(worst_z, abs(boot - var) / mc_se)
        checks.append(("bootstrap 1e6 reps within 4 MC se",
                       worst_z <= 4.0, f"worst |z| {worst_z:.2f}"))

        from grrr.variance import variance_analytic
        worst_rel = 0.0
        worst_balanced = 0.0
        for _ in range(20):
            n_t, n_c = int(rng.integers(120, 401)), int(rng.integers(120, 401))
            e_t = int(rng.integers(math.ceil(0.15 * n_t),
                                   math.floor(0.85 * n_t)))
            e_c = int(rng.integers(math.ceil(0.15 * n_c),
                                   math.floor(0.85 * n_c)))
            table = StudyTable("a", e_t, n_t, e_c, n_c)
            exact = variance_exact(table)
            worst_rel = max(worst_rel,
                            abs(variance_analytic(table) - exact) / exact)
            # same proportions with both arms at the larger size: the
            # approximation degrades only under arm imbalance near ties
            n_b = max(n_t, n_c)
            balanced = StudyTable("a", round(table.q_hat * n_b), n_b,
                                  round(table.p_hat * n_b), n_b)
            worst_balanced = max(
                worst_balanced,
                abs(variance_analytic(balanced) - variance_exact(balanced))
                / variance_exact(balanced))
        checks.append(("analytic within 5% (interior, N>100)",
                       worst_rel <= 0.05,
                       f"worst rel {worst_rel:.4f} (unbalanced near-tie "
                       f"arms; same proportions balanced: "
                       f"{worst_balanced:.4f})"))

        elapsed = time.perf_counter() - start
        checks.append(("runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f} s"))
        _report(4, checks,
                note="the approx formula's first-order lognormal for "
                     "ln(q/p) ignores the skew of the smaller arm's "
                     "log-proportion (README, 'Numerical notes')")


class TestCriterion5:
    def test_distribution_suite(self):
        rng = make_rng(50505)
        checks = []

        worst_norm = 0.0
        worst_fd = 0.0
        worst_ci = 0.0
        configs = [(float(rng.uniform(-0.9, 0.9)),
                    float(rng.uniform(0.05, 0.8)),
                    float(rng.uniform(0.05, 0.8))) for _ in range(18)]
        configs += [(-0.05, 0.6, 0.45), (0.05, 0.45, 0.6)]  # sign-crossing CIs
        for theta_hat, s1, s2 in configs:
            approx = SplitLognormalApprox(s1, s2)
            mass, _ = scipy.integrate.quad(lambda t: pdf(t, theta_hat, approx),
                                           -1.0, 1.0, points=[0.0, theta_hat],
                                           epsabs=1e-10, epsrel=0.0, limit=200)
            worst_norm = max(worst_norm, abs(mass - 1.0))

            # differentiate where the distribution carries mass: relative
            # fd consistency is meaningless below the cancellation floor
            candidates = [t for t in np.linspace(-0.9, 0.9, 25)
                          if abs(t) > 1e-3 and pdf(float(t), theta_hat,
                                                   approx) >= 1e-3]
            assert len(candidates) >= 3
            for t in candidates:
                h = 1e-5
                fd = (cdf(t + h, theta_hat, approx)
                      - cdf(t - h, theta_hat, approx)) / (2 * h)
                dens = pdf(t, theta_hat, approx)
                worst_fd = max(worst_fd, abs(fd - dens) / dens)

            lo, hi = confidence_interval(theta_hat, approx, alpha=0.05)
            worst_ci = max(worst_ci,
                           abs(cdf(theta_hat, lo, approx) - 0.975),
                           abs(cdf(theta_hat, hi, approx) - 0.025))

        checks.append(("pdf normalizes to 1 (20 configs, 1e-8)",
                       worst_norm <= 1e-8, f"worst {worst_norm:.2e}"))
        checks.append(("cdf/pdf finite-difference (1e-6)",
                       worst_fd <= 1e-6, f"worst rel {worst_fd:.2e}"))
        checks.append(("CI-cdf quantile consistency incl. sign crossing (1e-6)",
                       worst_ci <= 1e-6, f"worst {worst_ci:.2e}"))
        exact_one = p_value(0.0, SplitLognormalApprox(0.3, 0.4)) == 1.0
        checks.append(("two-sided p == 1 at theta-hat 0 exactly", exact_one,
                       "exact equality"))
        _report(5, checks)


class TestCriterion6:
    def test_measure_property_suite(self):
        from grrr.core import (
            odds_ratio_to_theta,
            phi_to_theta,
            probs_to_phi,
            theta_from_probs,
        )
        grid = np.linspace(0.005, 0.995, 100)
        worst_flip = worst_round = worst_or = 0.0
        for p in grid:
            for q in grid:
                th = theta_from_probs(p, q)
                worst_flip = max(worst_flip,
                                 abs(th + theta_from_probs(1 - p, 1 - q)))
                worst_round = max(worst_round,
                                  abs(q_from_p_theta(p, th) - q))
                odds_ratio = (q / (1 - q)) / (p / (1 - p))
                via_phi = phi_to_theta(probs_to_phi(p, q), p)
                worst_or = max(worst_or,
                               abs(odds_ratio_to_theta(odds_ratio, p) - th),
                               abs(via_phi - th))
        checks = [
            ("label-flip antisymmetry (1e4 grid, 1e-10)",
             worst_flip <= 1e-10, f"worst {worst_flip:.2e}"),
            ("forward/inverse round trip (1e-10)",
             worst_round <= 1e-10, f"worst {worst_round:.2e}"),
            ("OR -> phi -> theta consistency (1e-10)",
             worst_or <= 1e-10, f"worst {worst_or:.2e}"),
        ]
        _report(6, checks)


_CAL_N = 200     # subjects per arm in the calibration study
_CAL_P = 0.4     # control-arm event probability


def _calibration_model(theta):
    """The split-lognormal law of theta-hat at the true (p, q) of criterion
    7: delta-method scales from the true proportions, centred at theta."""
    q = q_from_p_theta(_CAL_P, theta)
    s1sq = (1 - q) / (q * _CAL_N) + (1 - _CAL_P) / (_CAL_P * _CAL_N)
    s2sq = q / ((1 - q) * _CAL_N) + _CAL_P / ((1 - _CAL_P) * _CAL_N)
    return SplitLognormalApprox(math.sqrt(s1sq), math.sqrt(s2sq))


@functools.lru_cache(maxsize=None)
def _exact_theta_law(theta):
    """Exact sampling law of theta-hat in the criterion-7 study: its distinct
    values (ascending) and their probabilities.

    Enumerates the (N+1) x (N+1) product-binomial grid with weights from
    ``math.comb``, independently of ``grrr.variance``. Equal rationals give
    the same float from ``estimate_theta`` (one correctly rounded integer
    division on each branch), so grouping by float value is exact.
    """
    n, p, q = _CAL_N, _CAL_P, q_from_p_theta(_CAL_P, theta)
    w_c = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    w_t = [math.comb(n, k) * q**k * (1.0 - q) ** (n - k) for k in range(n + 1)]
    thetas = np.array([[estimate_theta(StudyTable("x", j, n, i, n))
                        for j in range(n + 1)] for i in range(n + 1)])
    values, index = np.unique(thetas, return_inverse=True)
    probs = np.bincount(index.ravel(), weights=np.outer(w_c, w_t).ravel())
    return values, probs


def _mid_cdf_distance(values, probs, theta, model):
    """max over the atoms v of |F_model(v) - F_mid(v)|, where
    F_mid(v) = P(theta-hat < v) + P(theta-hat = v)/2 is Parzen's
    mid-distribution function of the lattice law."""
    mid = np.cumsum(probs) - 0.5 * probs
    model_cdf = np.array([cdf(float(v), theta, model) for v in values])
    return float(np.abs(model_cdf - mid).max())


class TestCriterion7:
    def test_calibration(self):
        start = time.perf_counter()
        reps = 100_000
        rng = make_rng(70707)
        checks = []
        for theta_true in (-0.4, 0.0, 0.3):
            q_true = q_from_p_theta(_CAL_P, theta_true)
            x_c = rng.binomial(_CAL_N, _CAL_P, size=reps)
            x_t = rng.binomial(_CAL_N, q_true, size=reps)

            covered = 0
            for i in range(reps):
                table = StudyTable("sim", int(x_t[i]), _CAL_N,
                                   int(x_c[i]), _CAL_N)
                lo, hi = confidence_interval(
                    estimate_theta(table),
                    SplitLognormalApprox.from_table(table))
                covered += lo <= theta_true <= hi
            coverage = covered / reps

            # With equal arms theta-hat has a lattice atom at exact ties
            # (P(theta-hat = 0) = 0.041 at theta = 0), and the usual KS
            # distance of a step cdf from ANY continuous cdf is at least half
            # the largest atom. So the model cdf is compared with the exact
            # law's mid-distribution function at every atom.
            values, probs = _exact_theta_law(theta_true)
            dist = _mid_cdf_distance(values, probs, theta_true,
                                     _calibration_model(theta_true))

            checks.append((f"coverage in [.94, .96] at theta={theta_true}",
                           0.94 <= coverage <= 0.96, f"got {coverage:.4f}"))
            checks.append((f"KS < 0.02 at theta={theta_true}",
                           dist < 0.02,
                           f"got {dist:.4f} (exact law, mid-distribution; "
                           f"largest lattice atom {probs.max():.4f})"))
        elapsed = time.perf_counter() - start
        checks.append(("runtime < 5 min", elapsed < 300.0, f"{elapsed:.0f} s"))
        _report(7, checks)

    @pytest.mark.parametrize("scale, shift", [
        (1.15, 0.0), (0.85, 0.0), (1.0, 0.02), (1.0, -0.02),
    ], ids=["sigmas-x1.15", "sigmas-x0.85", "centre+0.02", "centre-0.02"])
    def test_calibration_distance_rejects_wrong_models(self, scale, shift):
        """The criterion-7 distance can fail: deliberately wrong models at
        theta = 0 all sit above its 0.02 bound."""
        right = _calibration_model(0.0)
        wrong = SplitLognormalApprox(scale * right.sigma1,
                                     scale * right.sigma2)
        values, probs = _exact_theta_law(0.0)
        dist = _mid_cdf_distance(values, probs, shift, wrong)
        assert dist > 0.02, f"wrong model within the bound: {dist:.4f}"


def _ml_negll(theta, tau, estimates):
    total = 0.0
    for e in estimates:
        v = e.sigma2 + tau * tau
        total += 0.5 * (math.log(2 * math.pi * v)
                        + (e.theta_hat - theta) ** 2 / v)
    return total


def _beta_shapes(mean, var):
    """Beta shapes from mean = a/(a+b) and var = mean(1-mean)/(a+b+1)."""
    total = mean * (1 - mean) / var - 1
    return mean * total, (1 - mean) * total


def _beta_negll(theta, tau, estimates):
    total = 0.0
    for e in estimates:
        a, b = _beta_shapes((1 + theta) / 2, (e.sigma2 + tau * tau) / 4)
        psi = (1 + e.theta_hat) / 2
        log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        total -= ((a - 1) * math.log(psi) + (b - 1) * math.log1p(-psi) - log_b)
    return total


def _sln_negll(theta, tau, tables):
    from grrr.distribution import loglik
    total = 0.0
    a, b = _beta_shapes((1 + theta) / 2, tau * tau / 4)
    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    mode = (a - 1) / (a + b - 2) if min(a, b) > 1 else 0.5
    for t in tables:
        approx = SplitLognormalApprox.from_table(t)
        th_i = estimate_theta(t)

        def integrand(psi):
            log_beta_pdf = ((a - 1) * math.log(psi)
                            + (b - 1) * math.log1p(-psi) - log_b)
            return math.exp(loglik(th_i, 2 * psi - 1, approx) + log_beta_pdf)

        # psi = 0.5 is a derivative kink of the split density (the two
        # branches of the mean substitution meet there); declaring it keeps
        # the quadrature error smooth in (theta, tau) so it cancels in the
        # central differences below
        pts = sorted({mode, (1 + th_i) / 2, 0.5})
        val, _ = scipy.integrate.quad(integrand, 0.0, 1.0, points=pts,
                                      epsabs=1e-11, epsrel=1e-11, limit=500)
        total -= math.log(val)
    return total


def _fd_gradient_norm(negll, theta, tau, h=1e-5):
    g_theta = (negll(theta + h, tau) - negll(theta - h, tau)) / (2 * h)
    g_tau = (negll(theta, tau + h) - negll(theta, tau - h)) / (2 * h)
    return math.hypot(g_theta, g_tau)


class TestCriterion8:
    def test_optimizer_quality(self, bcg_tables, strept_tables,
                               bcg_fits, strept_fits):
        checks = []
        all_fits = {("bcg", name): fit for name, (fit, _) in bcg_fits.items()}
        all_fits.update({("strept", name): fit
                         for name, fit in strept_fits.items()})

        estimates = {"bcg": _estimates(bcg_tables),
                     "strept": _estimates(strept_tables)}
        tables = {"bcg": bcg_tables, "strept": strept_tables}
        neglls = {}
        for (ds, name) in all_fits:
            if name == "direct-ml":
                neglls[ds, name] = lambda th, ta, e=estimates[ds]: _ml_negll(th, ta, e)
            elif name == "beta":
                neglls[ds, name] = lambda th, ta, e=estimates[ds]: _beta_negll(th, ta, e)
            else:
                neglls[ds, name] = lambda th, ta, t=tables[ds]: _sln_negll(th, ta, t)

        # each fit's loglik is at least the oracle's at every point of a
        # (theta, tau) grid about it; infeasible Beta points are skipped
        worst_margin = math.inf
        for key, fit in all_fits.items():
            n = 11 if key[1] == "split-lognormal" else 41
            for th in np.linspace(fit.theta_hat - 0.3, fit.theta_hat + 0.3, n):
                for ta in np.linspace(0.01, fit.tau_hat + 0.5, n):
                    try:
                        value = neglls[key](float(th), float(ta))
                    except DomainError:
                        continue
                    worst_margin = min(worst_margin, fit.loglik + value)
        checks.append(("loglik at least the oracle's on a 41 x 41 (split: "
                       "11 x 11) grid about each fit (all fits)",
                       worst_margin >= 0.0, f"least margin {worst_margin:.2e}"))

        worst_grad = 0.0
        interior = []
        for (ds, name), fit in all_fits.items():
            if fit.tau_hat <= 1e-6:
                continue  # boundary optimum: no interior gradient condition
            grad = _fd_gradient_norm(neglls[ds, name], fit.theta_hat, fit.tau_hat)
            interior.append(f"{ds}/{name}")
            worst_grad = max(worst_grad, grad)
        checks.append((f"gradient norm < 1e-4 at interior optima "
                       f"({', '.join(interior)})",
                       worst_grad < 1e-4, f"worst {worst_grad:.2e}"))

        skips = ["third example dataset (lamotrigine) not reconstructable "
                 "offline"]
        _report(8, checks, skips=skips)
