"""Within-study variance: exact enumeration, bootstrap, analytic form.

The enumeration oracle is an independent brute-force double summation over
the full product-binomial support using ``math.comb`` (no shared code with
the implementation). Selected oracle values are frozen below; the randomised
comparison re-runs the brute force live.
"""

import math
import tracemalloc
from math import comb

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import grrr.variance as variance_module
from grrr.core import StudyTable, estimate_theta
from grrr.distribution import SplitLognormalApprox
from grrr.errors import DomainError
from grrr.kernels import std_normal_pdf
from grrr.variance import (
    GrrrEstimate,
    VarianceSpec,
    binomial_pmf_window,
    delta_method_params,
    make_estimate,
    variance_analytic,
    variance_bootstrap,
    variance_exact,
)

# ((events_t, n_t, events_c, n_c), E[theta-hat], Var[theta-hat]) from the
# math.comb brute force over the full support
_BRUTE_ORACLE = [
    ((2, 10, 5, 10), -0.5628927083333334, 0.0961166233685849),
    ((1, 7, 6, 9), -0.7713413329836452, 0.05214543732669552),
    ((13, 40, 22, 35), -0.4737037885062994, 0.019929553338426914),
    ((0, 12, 4, 15), -0.9904605927116678, 0.009448406996919512),
    ((8, 25, 8, 25), -0.06464040315568002, 0.06326905121901891),
]


def _table(e_t, n_t, e_c, n_c, sid="s"):
    return StudyTable(study_id=sid, events_treatment=e_t, n_treatment=n_t,
                      events_control=e_c, n_control=n_c)


def _theta_plug(i, n1, j, n2):
    lhs, rhs = j * n1, i * n2
    if lhs == rhs:
        return 0.0
    if lhs < rhs:
        return lhs / rhs - 1.0
    return 1.0 - ((n2 - j) * n1) / ((n1 - i) * n2)


def _brute_force_var(table):
    p, q = table.p_hat, table.q_hat
    n1, n2 = table.n_control, table.n_treatment
    e1 = e2 = 0.0
    for i in range(n1 + 1):
        pi = comb(n1, i) * p ** i * (1 - p) ** (n1 - i)
        for j in range(n2 + 1):
            pj = comb(n2, j) * q ** j * (1 - q) ** (n2 - j)
            th = _theta_plug(i, n1, j, n2)
            e1 += pi * pj * th
            e2 += pi * pj * th * th
    return e2 - e1 * e1


def _full_length_window(n, p):
    """The window built from the ratio product over all n counts, then cut
    below PMF_FLOOR: the O(n) construction the bounded one must reproduce
    bit for bit."""
    if p == 0.0:
        return 0, np.array([1.0])
    if p == 1.0:
        return n, np.array([1.0])

    mode = min(int(math.floor((n + 1) * p)), n)
    odds = p / (1.0 - p)

    # upward from the mode: f[i+1] = f[i] * ((n - i)/(i + 1)) * odds
    i_up = np.arange(mode, n)
    up = np.cumprod((n - i_up) / (i_up + 1.0) * odds) if i_up.size else np.array([])
    # downward: f[i-1] = f[i] * (i / (n - i + 1)) / odds
    i_dn = np.arange(mode, 0, -1)
    dn = np.cumprod(i_dn / (n - i_dn + 1.0) / odds) if i_dn.size else np.array([])

    keep_up = up >= variance_module.PMF_FLOOR
    if not keep_up.all():
        up = up[: int(np.argmin(keep_up))]
    keep_dn = dn >= variance_module.PMF_FLOOR
    if not keep_dn.all():
        dn = dn[: int(np.argmin(keep_dn))]

    pmf = np.concatenate((dn[::-1], [1.0], up))
    pmf /= pmf.sum()
    return mode - len(dn), pmf


def _window_grid():
    fixed = [(n, p) for n in (0, 1, 2, 37, 10_000)
             for p in (0.0, 1e-12, 1e-6, 0.5, 1.0 - 1e-9, 1.0)]
    # the two arms of the mega-trial, and Poisson-like tails longer than
    # 40 standard deviations
    fixed += [(500_000, 0.27), (500_000, 0.3), (100_000, 1e-6), (100_000, 1.0 - 1e-6)]
    rng = np.random.default_rng(20261020)
    drawn = [(int(rng.integers(0, 200_000)), float(rng.random())) for _ in range(40)]
    drawn += [(int(rng.integers(0, 200_000)), float(10.0 ** rng.uniform(-12, 0)))
              for _ in range(40)]
    return fixed + drawn


class TestBinomialPmfWindow:
    def test_small_n_full_support(self):
        start, pmf = binomial_pmf_window(6, 0.4)
        assert start == 0
        expected = [comb(6, k) * 0.4 ** k * 0.6 ** (6 - k) for k in range(7)]
        assert pmf == pytest.approx(expected, abs=1e-14)

    def test_sums_to_one(self):
        for n, p in [(10, 0.5), (500, 0.01), (10_000, 0.37), (3, 0.999)]:
            _, pmf = binomial_pmf_window(n, p)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-14)

    def test_degenerate(self):
        assert binomial_pmf_window(9, 0.0) == (0, pytest.approx([1.0]))
        start, pmf = binomial_pmf_window(9, 1.0)
        assert start == 9
        assert pmf == pytest.approx([1.0])

    def test_window_truncates_large_n(self):
        start, pmf = binomial_pmf_window(1_000_000, 0.5)
        # effective support is O(sqrt(n) * sqrt(2 * 300 ln 10)) wide
        assert len(pmf) < 40_000
        assert start > 450_000
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mode_within_window(self):
        start, pmf = binomial_pmf_window(87, 0.23)
        mode = start + int(np.argmax(pmf))
        assert mode == math.floor(88 * 0.23)

    def test_bitwise_equal_to_full_length_product(self):
        for n, p in _window_grid():
            start, pmf = binomial_pmf_window(n, p)
            want_start, want = _full_length_window(n, p)
            assert start == want_start, (n, p)
            assert pmf.dtype == want.dtype and pmf.shape == want.shape, (n, p)
            assert np.array_equal(pmf.view(np.int64), want.view(np.int64)), (n, p)

    def test_poisson_tails_in_one_pass(self, monkeypatch):
        # Poisson-like tails outgrow any width set by the standard deviation
        # alone; the window's 2L/3 term covers them, so each side is one
        # cumprod and still ends where the full-length product does
        calls = []
        cumprod = np.cumprod
        monkeypatch.setattr(variance_module.np, "cumprod",
                            lambda a: calls.append(len(a)) or cumprod(a))
        for n, p in [(100_000, 1e-6), (100_000, 1.0 - 1e-6),
                     (100_000, 1e-4), (100_000, 1.0 - 1e-4)]:
            calls.clear()
            start, pmf = binomial_pmf_window(n, p)
            assert len(calls) == 2, (n, p)
            assert len(pmf) > 40.0 * math.sqrt(n * p * (1.0 - p)) + 64, (n, p)
            want_start, want = _full_length_window(n, p)
            assert start == want_start and np.array_equal(pmf, want), (n, p)

    def test_floor_or_edge_ends_each_side(self):
        # n up to 1e12 with p within 1e-13 of 0 or of 1 and sd <= 1e4: one
        # more ratio step past either end of the window falls below
        # PMF_FLOOR relative to the mode, unless that end is the support's
        # edge, so the floor or the edge cut each side, never its width
        rng = np.random.default_rng(20261021)
        floor = variance_module.PMF_FLOOR * (1.0 + 1e-9)   # rounding slack
        for _ in range(1000):
            n = int(10.0 ** rng.uniform(0.0, 12.0))
            small = 10.0 ** rng.uniform(-13.0, math.log10(min(0.5, 1e8 / n)))
            for p in (small, 1.0 - small):
                start, pmf = binomial_pmf_window(n, p)
                top = pmf[min(math.floor((n + 1) * p), n) - start]
                odds = p / (1.0 - p)
                end = start + len(pmf) - 1
                if end < n:
                    assert pmf[-1] / top * ((n - end) / (end + 1.0) * odds) < floor, (n, p)
                if start > 0:
                    assert pmf[0] / top * (start / (n - start + 1.0) / odds) < floor, (n, p)

    def test_hundred_million_trial(self):
        n, p = 10**8, 0.3
        start, pmf = binomial_pmf_window(n, p)
        assert len(pmf) < 40 * math.sqrt(n)
        assert abs(pmf.sum() - 1.0) < 1e-12
        assert start <= math.floor((n + 1) * p) < start + len(pmf)

    def test_invalid(self):
        with pytest.raises(DomainError):
            binomial_pmf_window(-1, 0.5)
        with pytest.raises(DomainError):
            binomial_pmf_window(5, 1.0001)


class TestVarianceExact:
    def test_frozen_oracle_values(self):
        for (e_t, n_t, e_c, n_c), _, var in _BRUTE_ORACLE:
            got = variance_exact(_table(e_t, n_t, e_c, n_c))
            assert abs(got - var) < 1e-10

    def test_random_tables_against_brute_force(self):
        # 50 random tables with arm sizes <= 60, matched to 1e-10
        rng = np.random.default_rng(314159)
        for _ in range(50):
            n_t = int(rng.integers(1, 61))
            n_c = int(rng.integers(1, 61))
            t = _table(int(rng.integers(0, n_t + 1)), n_t,
                       int(rng.integers(0, n_c + 1)), n_c)
            assert abs(variance_exact(t) - _brute_force_var(t)) < 1e-10

    def test_double_degenerate_zero(self):
        assert variance_exact(_table(0, 10, 0, 10)) == 0.0
        assert variance_exact(_table(10, 10, 7, 7)) == 0.0

    def test_single_boundary_margin(self):
        # q-hat = 0: theta is -1 unless the control draw is also 0
        t = _table(0, 12, 4, 15)
        p0 = (11.0 / 15.0) ** 15
        assert variance_exact(t) == pytest.approx(p0 * (1 - p0), rel=1e-12)

    def test_large_table_runs(self):
        var = variance_exact(_table(505, 88391, 499, 88391))
        assert 0.0 < var < 0.02


def _grid_mean_var(table, dtype=np.float64):
    """E and Var of theta-hat over the outer product of the two binomial
    supports, with scipy.stats.binom weights. Weights below 1e-40 are
    dropped; together they cannot move the result at rel 1e-9."""
    def support(n, p):
        k = np.arange(n + 1)
        w = scipy.stats.binom.pmf(k, n, p)
        keep = w >= 1e-40
        return k[keep], w[keep].astype(dtype)

    n1, n2 = table.n_control, table.n_treatment
    i, wi = support(n1, table.p_hat)
    j, wj = support(n2, table.q_hat)
    i, j = i[:, None], j[None, :]
    lhs, rhs = (j * n1).astype(dtype), (i * n2).astype(dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(lhs < rhs, lhs / rhs - 1,
                         np.where(lhs > rhs,
                                  1 - ((n2 - j) * n1).astype(dtype)
                                  / ((n1 - i) * n2).astype(dtype),
                                  dtype(0)))
    w = wi[:, None] * wj[None, :]
    w /= w.sum()
    mean = (w * theta).sum()
    return float(mean), float((w * (theta - mean) ** 2).sum())


# 135,000/500,000 treated vs 150,000/500,000 control: 24,083 x 23,330
# support points, past the reach of any outer-product grid
_MEGA = _table(135_000, 500_000, 150_000, 500_000)


def _stacked_exact_mean_var(n1, p, n2, q):
    """The exact mean and variance with every row kept: the (3, W) stack of
    q_j (j - m)^r and its prefix sums, and both branches' gathered sums at
    once. The buffer-reusing one must reproduce it bit for bit."""
    i_start, pv = binomial_pmf_window(n1, p)
    j_start, qv = binomial_pmf_window(n2, q)
    j = np.arange(j_start, j_start + len(qv))
    m = float((qv * j).sum())
    a = j - m
    prefix = np.zeros((3, len(qv) + 1))
    np.cumsum(np.stack((qv, qv * a, qv * a * a)), axis=1, out=prefix[:, 1:])

    i = np.arange(i_start, i_start + len(pv), dtype=float)
    in2 = i * n2
    split = np.clip(np.where(i > 0, in2 // n1 + 1, 0) - j_start, 0,
                    len(qv)).astype(np.int64)
    lower = prefix[:, split]
    branches = ((lower, np.divide(n1, in2, out=np.zeros(len(i)), where=i > 0)),
                (prefix[:, -1:] - lower,
                 np.divide(n1, (n1 - i) * n2, out=np.zeros(len(i)), where=i < n1)))
    d = in2 / n1 - m
    e1 = float(sum((pv * k * (s[1] - d * s[0])).sum() for s, k in branches))
    var = 0.0
    for s, k in branches:
        e = d + np.divide(e1, k, out=np.zeros(len(i)), where=k > 0)
        var += float((pv * k * k * (s[2] - 2.0 * e * s[1] + e * e * s[0])).sum())
    return e1, max(0.0, var)


def _exact_grid():
    """(n1, p, n2, q): every table of arms up to 6 and 9, p or q in {0, 1}
    among them; ties between i n2 / n1 and a treatment count; seeded
    unequal arms up to 1e4; arms of 1e4 to 1e8; and the 1e10 table of
    ``test_exact_beyond_int64_count_products``."""
    grid = [(n1, i / n1, n2, j / n2) for n1 in (1, 2, 3, 6) for n2 in (1, 2, 4, 9)
            for i in range(n1 + 1) for j in range(n2 + 1)]
    grid += [(40, 0.25, 40, 0.25), (60, 0.5, 30, 0.5), (7, 3 / 7, 14, 6 / 14),
             (1000, 0.3, 500, 0.3), (300, 0.1, 900, 0.1)]
    rng = np.random.default_rng(20261021)
    for _ in range(60):
        n1, n2 = (int(10.0 ** rng.uniform(0.0, 4.0)) for _ in range(2))
        grid.append((n1, int(rng.integers(0, n1 + 1)) / n1,
                     n2, int(rng.integers(0, n2 + 1)) / n2))
    grid += [(n, 0.3, n, 0.27) for n in (10**4, 10**5, 500_000, 10**6, 10**7, 10**8)]
    grid += [(10**5, 0.02, 3 * 10**5, 0.6), (10**7, 0.97, 10**6, 1e-4)]
    n = 10**10
    grid.append((n, (n - 30_000) / n, n, (n - 27_000) / n))
    return grid


def _bits(mean_var):
    return np.array(mean_var, dtype=float).view(np.int64).tolist()


class TestExactMeanVar:
    def test_bitwise_equal_to_stacked_reference(self):
        for n1, p, n2, q in _exact_grid():
            got = variance_module._exact_mean_var(n1, p, n2, q)
            assert _bits(got) == _bits(_stacked_exact_mean_var(n1, p, n2, q)), (n1, p, n2, q)

    def test_peak_memory_per_window_count(self):
        # ~2e6 per arm: windows of ~5e4 counts, so the peak is the per-count
        # rows; the stacked reference takes ~93 bytes a count
        n1, p, n2, q = 2_000_000, 0.3, 2_000_000, 0.27
        counts = len(binomial_pmf_window(n1, p)[1]) + len(binomial_pmf_window(n2, q)[1])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            variance_module._exact_mean_var(n1, p, n2, q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 64 * counts, peak / counts


class TestVarianceExactLargeArms:
    def test_mega_trial_against_bootstrap(self):
        exact = variance_exact(_MEGA)
        assert math.isfinite(exact) and exact > 0.0
        boot = variance_bootstrap(_MEGA, replicates=100_000, seed=0)
        assert abs(boot - exact) < 6.0 * exact * math.sqrt(2.0 / 100_000)

    def test_mega_trial_value_is_unchanged(self):
        # the figure of the full-length pmf construction, to the last bit
        assert variance_exact(_MEGA) == 8.160182284974451e-06

    def test_mega_trial_against_analytic(self):
        # the delta-method normals are accurate at this size
        assert variance_exact(_MEGA) == pytest.approx(variance_analytic(_MEGA),
                                                      rel=1e-4)

    @pytest.mark.parametrize("tab", [(600, 2000, 700, 3000),
                                     (250, 5000, 6000, 20_000),
                                     (9100, 12_000, 2300, 8000)])
    def test_matches_outer_product_grid(self, tab):
        t = _table(*tab)
        mean, var = variance_module._exact_mean_var(
            t.n_control, t.p_hat, t.n_treatment, t.q_hat)
        grid_mean, grid_var = _grid_mean_var(t)
        assert mean == pytest.approx(grid_mean, rel=1e-9)
        assert var == pytest.approx(grid_var, rel=1e-9)

    def test_exact_beyond_int64_count_products(self):
        # 1e10 per arm: i n2 ~ 1e20 is past 2^63; event rates near 1 keep
        # the pmf windows ~13k counts wide
        n = 10**10
        t = _table(n - 27_000, n, n - 30_000, n)
        exact = make_estimate(t, VarianceSpec("exact")).sigma2
        approx = make_estimate(t, VarianceSpec("approx")).sigma2
        assert exact < 1.0
        assert exact == pytest.approx(approx, rel=1e-3)

    def test_bootstrap_beyond_int64_count_products(self):
        n = 10**10
        t = _table(2_700_000_000, n, 3_000_000_000, n)
        boot = make_estimate(t, VarianceSpec("bootstrap", replicates=20_000)).sigma2
        approx = make_estimate(t, VarianceSpec("approx")).sigma2
        assert boot < 1.0
        assert boot == pytest.approx(approx, rel=0.05)

    def test_near_boundary_high_theta_against_extended_precision(self):
        # theta-hat ~ 0.99 with variance ~ 7e-6: forming the variance as
        # E(theta^2) - E(theta)^2 would cancel about five digits
        t = _table(1310, 1317, 689, 2591)
        assert t.q_hat > 0.99
        _, ref = _grid_mean_var(t, np.longdouble)
        assert variance_exact(t) == pytest.approx(ref, rel=1e-9)


_ARM = st.integers(1, 80).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n)))


class TestVarianceExactProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(treatment=_ARM, control=_ARM)
    def test_matches_brute_force(self, treatment, control):
        t = _table(*treatment, *control)
        assert abs(variance_exact(t) - _brute_force_var(t)) < 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(treatment=_ARM, control=_ARM)
    def test_complement_negates_mean_keeps_variance(self, treatment, control):
        t = _table(*treatment, *control)
        c = t.complemented()
        mean, var = variance_module._exact_mean_var(
            t.n_control, t.p_hat, t.n_treatment, t.q_hat)
        c_mean, c_var = variance_module._exact_mean_var(
            c.n_control, c.p_hat, c.n_treatment, c.q_hat)
        assert abs(c_mean + mean) < 1e-12
        assert abs(c_var - var) < 1e-12


class TestVarianceBootstrap:
    def test_deterministic_per_seed(self):
        t = _table(2, 10, 5, 10)
        a = variance_bootstrap(t, replicates=20_000, seed=5)
        b = variance_bootstrap(t, replicates=20_000, seed=5)
        c = variance_bootstrap(t, replicates=20_000, seed=6)
        assert a == b
        assert a != c

    def test_close_to_exact(self):
        t = _table(2, 10, 5, 10)
        exact = variance_exact(t)
        boot = variance_bootstrap(t, replicates=200_000, seed=0)
        # MC standard error of a sample variance ~ var * sqrt(2 / R)
        assert abs(boot - exact) < 6.0 * exact * math.sqrt(2.0 / 200_000)

    def test_replicate_floor(self):
        with pytest.raises(DomainError):
            variance_bootstrap(_table(2, 10, 5, 10), replicates=500)


class TestDeltaMethodParams:
    def test_interior_formulas(self):
        t = _table(2, 10, 5, 10)
        mu1, s1sq, mu2, s2sq = delta_method_params(t)
        assert mu1 == pytest.approx(math.log(0.2 / 0.5), rel=1e-15)
        assert s1sq == pytest.approx(0.8 / (0.2 * 10) + 0.5 / (0.5 * 10), rel=1e-15)
        assert mu2 == pytest.approx(math.log(0.8 / 0.5), rel=1e-15)
        assert s2sq == pytest.approx(0.2 / (0.8 * 10) + 0.5 / (0.5 * 10), rel=1e-15)

    def test_interior_never_corrected(self):
        t = _table(2, 10, 5, 10)
        assert delta_method_params(t, 0.5) == delta_method_params(t, 0.0)

    def test_boundary_needs_correction(self):
        t = _table(0, 12, 4, 15)
        with pytest.raises(DomainError):
            delta_method_params(t, zero_correction=0.0)
        mu1, s1sq, _, _ = delta_method_params(t, zero_correction=0.5)
        q_c = 0.5 / 13.0
        p_c = 4.5 / 16.0
        assert mu1 == pytest.approx(math.log(q_c / p_c), rel=1e-14)
        assert s1sq == pytest.approx((1 - q_c) / (q_c * 13) + (1 - p_c) / (p_c * 16),
                                     rel=1e-14)

    def test_invalid_correction(self):
        with pytest.raises(DomainError):
            delta_method_params(_table(0, 12, 4, 15), zero_correction=-0.5)


class TestVarianceAnalytic:
    def test_against_lognormal_moment_quadrature(self):
        # independent oracle: the same split approximation's first two
        # moments by direct numerical integration over the two branches
        def quad(f, lower, upper):
            return scipy.integrate.quad(f, lower, upper, epsabs=1e-13,
                                        epsrel=0.0, limit=200)[0]

        for tab in [(20, 100, 35, 120), (8, 60, 12, 55), (40, 90, 30, 100)]:
            t = _table(*tab)
            mu1, s1sq, mu2, s2sq = delta_method_params(t)
            s1, s2 = math.sqrt(s1sq), math.sqrt(s2sq)

            def moments(power):
                # theta = e^x - 1 on x < 0 with x ~ N(mu1, s1^2);
                # theta = 1 - e^y on y < 0 with y ~ N(mu2, s2^2)
                neg = quad(
                    lambda x: (math.exp(x) - 1.0) ** power
                    * math.exp(-0.5 * ((x - mu1) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi)),
                    mu1 - 10 * s1, 0.0)
                pos = quad(
                    lambda y: (1.0 - math.exp(y)) ** power
                    * math.exp(-0.5 * ((y - mu2) / s2) ** 2) / (s2 * math.sqrt(2 * math.pi)),
                    mu2 - 10 * s2, 0.0)
                return neg + pos

            e1, e2 = moments(1), moments(2)
            assert variance_analytic(t) == pytest.approx(e2 - e1 * e1, abs=1e-10)

    def test_within_five_percent_of_exact_central(self):
        for tab in [(30, 150, 60, 160), (90, 200, 50, 120), (45, 110, 70, 140)]:
            t = _table(*tab)
            assert 0.1 < t.p_hat < 0.9 and 0.1 < t.q_hat < 0.9
            exact = variance_exact(t)
            assert variance_analytic(t) == pytest.approx(exact, rel=0.05)

    def test_uses_exactly_six_cdf_calls(self, monkeypatch):
        calls = []
        original = variance_module.std_normal_cdf

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(variance_module, "std_normal_cdf", counting)
        variance_analytic(_table(20, 100, 35, 120))
        assert len(calls) == 6

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            variance_analytic(_table(0, 12, 4, 15))


class TestMakeEstimate:
    def test_default_exact(self):
        t = _table(2, 10, 5, 10)
        est = make_estimate(t)
        assert est.theta_hat == pytest.approx(-0.6, abs=1e-15)
        assert est.sigma2 == pytest.approx(variance_exact(t), abs=1e-15)
        assert not est.degenerate and not est.corrected
        approx = SplitLognormalApprox.from_table(t, 0.0)
        _, s1sq, _, s2sq = delta_method_params(t, 0.0)
        assert (approx.sigma1, approx.sigma2) == (math.sqrt(s1sq), math.sqrt(s2sq))

    def test_degenerate_packet(self):
        est = make_estimate(_table(0, 10, 0, 20))
        assert est.theta_hat == 0.0
        assert est.sigma2 == 0.0
        assert est.degenerate and not est.informative
        corrected = make_estimate(_table(0, 10, 0, 20), zero_correction=0.5)
        assert corrected.degenerate and corrected.informative
        assert make_estimate(_table(0, 12, 4, 15)).informative

    def test_boundary_without_correction_keeps_plugin(self):
        t = _table(0, 12, 4, 15)
        est = make_estimate(t)
        assert est.theta_hat == -1.0
        assert est.sigma2 > 0.0
        # log-scale variances undefined at -1
        for scales in (delta_method_params, SplitLognormalApprox.from_table):
            with pytest.raises(DomainError, match="^s: boundary proportion with zero_correction=0"):
                scales(t, 0.0)

    def test_zero_correction_moves_interior(self):
        t = _table(0, 12, 4, 15)
        est = make_estimate(t, zero_correction=0.5)
        assert est.corrected
        assert -1.0 < est.theta_hat < 0.0
        _, s1sq, _, s2sq = delta_method_params(t, zero_correction=0.5)
        assert s1sq > 0.0 and s2sq > 0.0
        approx = SplitLognormalApprox.from_table(t, 0.5)
        assert (approx.sigma1, approx.sigma2) == (math.sqrt(s1sq), math.sqrt(s2sq))

    def test_correction_only_touches_boundary_tables(self):
        t = _table(2, 10, 5, 10)
        assert make_estimate(t, zero_correction=0.5) == make_estimate(t)

    def test_bootstrap_spec_threaded_through(self):
        t = _table(2, 10, 5, 10)
        est = make_estimate(t, VarianceSpec("bootstrap", replicates=20_000, seed=9))
        assert est.sigma2 == variance_bootstrap(t, replicates=20_000, seed=9)

    def test_approx_falls_back_to_exact_at_boundary(self):
        t = _table(0, 12, 4, 15)
        est = make_estimate(t, VarianceSpec("approx"))
        assert est.sigma2 == pytest.approx(variance_exact(t), abs=1e-15)

    @pytest.mark.parametrize("correction", [-0.5, float("nan"), math.inf])
    def test_invalid_correction(self, correction):
        # interior tables too: nothing is corrected there, but the value is
        # still outside input
        for t in (_table(0, 12, 4, 15), _table(2, 10, 5, 10)):
            with pytest.raises(DomainError, match="zero_correction must be finite"):
                make_estimate(t, zero_correction=correction)

    def test_estimate_validation(self):
        with pytest.raises(DomainError):
            GrrrEstimate(study_id="x", theta_hat=1.5, sigma2=0.1)
        with pytest.raises(DomainError):
            GrrrEstimate(study_id="x", theta_hat=0.2, sigma2=-0.1)
        with pytest.raises(DomainError):
            GrrrEstimate(study_id="x", theta_hat=0.2, sigma2=0.1, degenerate=True)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            VarianceSpec("jackknife")
        with pytest.raises(DomainError):
            VarianceSpec("bootstrap", seed=-1)
