"""Random-effects pooling: moment, normal-ML, beta, and split-lognormal fits.

Oracles used here: a hand-rolled moment estimator written out term by term,
a brute-force grid search of the normal likelihood, and scipy and mpmath
quadrature of the random-effects integrand in psi. None share code with the
implementation.
"""

import dataclasses
import importlib.util
import io
import math
import random
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import grrr.meta
from grrr.cli import parse_dataset
from grrr.core import StudyTable
from grrr.distribution import SplitLognormalApprox, pdf
from grrr.errors import ConvergenceError, DomainError
from grrr.kernels import log_beta
from grrr.meta import (
    MetaFit,
    _beta_negll,
    _hessian_se,
    _log_weight,
    _SplitMarginal,
    fit_beta_model,
    fit_direct_dl,
    fit_direct_ml,
    fit_split_lognormal_model,
)
from grrr.variance import GrrrEstimate, VarianceSpec, make_estimate


def _est(theta, sigma2, sid):
    return GrrrEstimate(study_id=sid, theta_hat=theta, sigma2=sigma2)


_THREE = [_est(-0.5, 0.010, "a"), _est(-0.2, 0.020, "b"), _est(-0.35, 0.008, "c")]


def _tables(rows):
    return [StudyTable(f"t{i}", *r) for i, r in enumerate(rows)]


# (theta-hat_i, sigma_i^2) of streptokinase plus eight seeded large trials,
# whose normal profile likelihood has two maxima in tau
_TWO_MAXIMA = [
    (-0.7708333333333334, 0.0853614255133974),
    (-0.4285714285714286, 0.08662477782161256),
    (0.07595599790466212, 0.012465605421401633),
    (-0.29744452683817235, 0.009924241311863816),
    (0.019971160778659014, 0.011299656775549095),
    (0.0013598876995963849, 0.024079405922735976),
    (-0.22135416666666663, 0.02731655000522345),
    (-0.5429344151453686, 0.021144186684606936),
    (0.08102108768035521, 0.014530769511165928),
    (-0.036363636363636376, 0.06437845122602215),
    (0.012987012987012991, 0.042103096698667214),
    (0.1964285714285714, 0.06229633884204258),
    (-0.10443199184921037, 0.015525228737915536),
    (-0.39195804195804196, 0.014240656001400964),
    (-0.15034562211981561, 0.026002515413612724),
    (-0.717948717948718, 0.12309084822637598),
    (0.04483507801698594, 0.00493665188699721),
    (-0.1875, 0.08581084979390567),
    (-0.3884615384615384, 0.028716330447004664),
    (-0.11990686845168796, 0.014668292774207912),
    (-0.17263501040100138, 0.0017680563787488266),
    (-0.23102411355603691, 0.0011890784792604092),
    (-0.2818791946308725, 0.0038463609461052294),
    (-0.2222222222222222, 0.004311919760396402),
    (-0.1901840490797546, 0.0071791224582046335),
    (-0.18590831918505946, 0.0010359680328674483),
    (-0.20576017723622264, 0.0002897668024631691),
    (-0.224400871459695, 0.0022136607365768855),
    (-0.1709401709401709, 0.0031923283175805113),
    (-0.22627737226277367, 0.0010687231148471148),
]

_SIX_TABLES = _tables([
    (12, 120, 30, 115), (8, 96, 20, 101), (25, 210, 40, 190),
    (5, 49, 11, 52), (31, 300, 41, 296), (18, 150, 26, 140),
])


def _beta_shapes(mean, var):
    """Beta shapes from mean = a/(a+b) and var = mean(1-mean)/(a+b+1)."""
    total = mean * (1.0 - mean) / var - 1.0
    return mean * total, (1.0 - mean) * total


class TestBetaNegll:
    def test_round_trip_moments(self):
        for mean, var in [(0.5, 0.01), (0.2, 0.02), (0.87, 0.001), (0.04, 0.0003)]:
            seen = []

            def log_terms(a, b):
                seen.append((a, b))
                return np.array([-1.5, 0.25]), False

            value, accurate = _beta_negll(2.0 * mean - 1.0, var, log_terms)
            assert (value, accurate) == (1.25, False)
            (alpha, beta), = seen
            s = alpha + beta
            assert alpha / s == pytest.approx(mean, rel=1e-12)
            got_var = alpha * beta / (s * s * (s + 1.0))
            assert got_var == pytest.approx(var, rel=1e-12)

    @pytest.mark.parametrize("others", [(), (0.01, 0.02)], ids=["scalar", "per-study"])
    def test_infeasible_variance_gives_a_graded_penalty(self, others):
        # the variance cap is mean(1 - mean) = 0.25 at theta = 0; with
        # ``others`` the variances are per study, the last one not under it
        def log_terms(a, b):
            raise AssertionError("log_terms called for an infeasible variance")

        values = []
        for v in (0.25, 0.3, 0.9):
            value, accurate = _beta_negll(0.0, np.array([*others, v]) if others else v,
                                          log_terms)
            assert math.isfinite(value) and value >= 1e10 and accurate
            values.append(value)
        assert values[0] < values[1] < values[2]


class TestDirectDL:
    def test_hand_rolled_oracle(self):
        thetas = [-0.5, -0.2, -0.35]
        sig2 = [0.010, 0.020, 0.008]
        w = [1.0 / s for s in sig2]
        sw = sum(w)
        fixed = sum(wi * t for wi, t in zip(w, thetas)) / sw
        q = sum(wi * (t - fixed) ** 2 for wi, t in zip(w, thetas))
        c = sw - sum(wi * wi for wi in w) / sw
        tau2 = max(0.0, (q - 2.0) / c)
        w_re = [1.0 / (s + tau2) for s in sig2]
        pooled = sum(wi * t for wi, t in zip(w_re, thetas)) / sum(w_re)

        fit = fit_direct_dl(_THREE)
        assert fit.theta_hat == pytest.approx(pooled, abs=1e-14)
        assert fit.se_theta == pytest.approx(1.0 / math.sqrt(sum(w_re)), abs=1e-14)
        assert fit.tau_hat == pytest.approx(math.sqrt(tau2), abs=1e-14)
        assert fit.i_squared == pytest.approx(max(0.0, 100.0 * (q - 2.0) / q),
                                              abs=1e-12)
        assert fit.method == "direct-dl"
        assert fit.se_tau is None and fit.loglik is None
        assert fit.converged and fit.n_studies_used == 3

    def test_homogeneous_studies_zero_tau(self):
        same = [_est(-0.3, 0.01, s) for s in "abcd"]
        fit = fit_direct_dl(same)
        assert fit.tau_hat == 0.0
        assert fit.i_squared == 0.0
        assert fit.theta_hat == pytest.approx(-0.3, abs=1e-14)

    def test_degenerate_studies_discarded(self):
        with_degen = list(_THREE) + [
            GrrrEstimate(study_id="d", theta_hat=0.0, sigma2=0.0, degenerate=True)]
        fit = fit_direct_dl(with_degen)
        assert fit.n_studies_used == 3
        assert fit.theta_hat == fit_direct_dl(_THREE).theta_hat

    def test_zero_variance_rejected(self):
        bad = list(_THREE) + [_est(0.1, 0.0, "z")]
        with pytest.raises(DomainError):
            fit_direct_dl(bad)

    def test_needs_two_studies(self):
        with pytest.raises(DomainError):
            fit_direct_dl(_THREE[:1])

    @pytest.mark.parametrize("fit", [fit_direct_dl, fit_direct_ml])
    def test_swamping_weight_raises_domain_error(self, fit):
        # uncorrected 0/156 vs 149/154 next to two ordinary tables: its
        # sigma^2 ~ 2e-45 makes C = sum w - sum w^2 / sum w round to 0
        swamped = [_est(-1.0, 1.988498127511514e-45, "a"),
                   _est(-0.6166666666666667, 0.016214789652820853, "b"),
                   _est(-0.5791666666666666, 0.03114647004170179, "c")]
        with pytest.raises(DomainError, match="Cochran's C = 0.0"):
            fit(swamped)


class TestDirectML:
    def test_against_grid_search(self):
        # brute-force the profile surface on a fine grid
        thetas = np.array([-0.5, -0.2, -0.35])
        sig2 = np.array([0.010, 0.020, 0.008])

        def negll(theta, tau):
            s = sig2 + tau * tau
            return 0.5 * float(np.sum(np.log(s) + (thetas - theta) ** 2 / s)
                               + 3 * math.log(2 * math.pi))

        t_grid = np.linspace(-0.6, -0.1, 501)
        u_grid = np.linspace(0.0, 0.4, 401)
        surface = np.array([[negll(t, u) for u in u_grid] for t in t_grid])
        i, j = np.unravel_index(np.argmin(surface), surface.shape)

        fit = fit_direct_ml(_THREE)
        assert fit.method == "direct-ml"
        assert fit.theta_hat == pytest.approx(t_grid[i], abs=2e-3)
        assert fit.tau_hat == pytest.approx(u_grid[j], abs=2e-3)
        assert -fit.loglik <= surface[i, j] + 1e-9  # at least as good
        assert fit.converged

    def test_boundary_solution_reported_as_zero(self):
        tight = [_est(-0.30, 0.01, "a"), _est(-0.31, 0.01, "b"),
                 _est(-0.29, 0.01, "c"), _est(-0.30, 0.01, "d")]
        fit = fit_direct_ml(tight)
        assert fit.tau_hat == 0.0
        assert fit.se_tau == 0.0
        assert fit.se_theta == pytest.approx(math.sqrt(0.01 / 4), rel=1e-3)

    def test_label_flip_equivariance(self):
        flipped = [_est(-e.theta_hat, e.sigma2, e.study_id) for e in _THREE]
        a = fit_direct_ml(_THREE)
        b = fit_direct_ml(flipped)
        assert a.theta_hat == pytest.approx(-b.theta_hat, abs=1e-8)
        assert a.se_theta == pytest.approx(b.se_theta, abs=1e-8)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-8)
        assert a.i_squared == pytest.approx(b.i_squared, abs=1e-8)

    def test_finds_the_boundary_maximum_past_a_local_one(self):
        # streptokinase plus eight seeded large trials (the benchmark's
        # large-trials seed 13, cumulative-1, exact variance): the profile
        # has a local maximum at tau ~ 0.053, a local minimum near 0.0245
        # and its global maximum at tau = 0
        fit = fit_direct_ml([_est(t, s, f"s{i}") for i, (t, s) in enumerate(_TWO_MAXIMA)])
        assert fit.tau_hat == 0.0
        assert fit.loglik == pytest.approx(11.741281011859, abs=1e-9)
        assert fit.converged

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(st.floats(-0.95, 0.95, exclude_min=True,
                                              exclude_max=True),
                                    st.floats(1e-4, 0.2)),
                          min_size=2, max_size=40))
    def test_global_profile_maximum_and_label_flip(self, pairs):
        fit = fit_direct_ml([_est(t, s, f"s{i}") for i, (t, s) in enumerate(pairs)])
        thetas = np.array([t for t, _ in pairs])
        v = np.array([s for _, s in pairs]) + np.linspace(0.0, 2.0, 2001)[:, None] ** 2
        w = 1.0 / v
        centre = (w * thetas).sum(axis=1, keepdims=True) / w.sum(axis=1, keepdims=True)
        profile = -0.5 * (np.log(2.0 * math.pi * v) + (thetas - centre) ** 2 / v).sum(axis=1)
        assert fit.loglik >= profile.max() - 1e-12

        flipped = fit_direct_ml([_est(-t, s, f"s{i}") for i, (t, s) in enumerate(pairs)])
        assert flipped.theta_hat == -fit.theta_hat
        assert flipped.tau_hat == fit.tau_hat

    def test_recovers_simulated_effect(self):
        rng = np.random.default_rng(99)
        theta, tau = -0.3, 0.15
        sig = 0.05
        ests = [_est(float(np.clip(rng.normal(theta, math.hypot(sig, tau)), -1, 1)),
                     sig * sig, f"s{i}") for i in range(120)]
        fit = fit_direct_ml(ests)
        assert fit.theta_hat == pytest.approx(theta, abs=0.04)
        assert fit.tau_hat == pytest.approx(tau, abs=0.04)


class TestBetaModel:
    def test_near_normal_limit(self):
        # tiny within-study variances: the beta likelihood concentrates and
        # its pooled centre approaches the normal-model one
        ests = [_est(-0.32, 4e-4, "a"), _est(-0.25, 5e-4, "b"),
                _est(-0.29, 3e-4, "c"), _est(-0.35, 4e-4, "d")]
        beta_fit = fit_beta_model(ests)
        ml_fit = fit_direct_ml(ests)
        assert beta_fit.method == "beta"
        assert beta_fit.theta_hat == pytest.approx(ml_fit.theta_hat, abs=5e-3)
        assert beta_fit.tau_hat == pytest.approx(ml_fit.tau_hat, abs=2e-2)

    def test_requires_interior_estimates(self):
        bad = list(_THREE) + [_est(-1.0, 0.01, "edge")]
        with pytest.raises(DomainError):
            fit_beta_model(bad)

    def test_degenerate_raises_instead_of_silent_discard(self):
        bad = list(_THREE) + [
            GrrrEstimate(study_id="d", theta_hat=0.0, sigma2=0.0, degenerate=True)]
        with pytest.raises(DomainError, match="zero-correction"):
            fit_beta_model(bad)

    def test_label_flip_equivariance(self):
        flipped = [_est(-e.theta_hat, e.sigma2, e.study_id) for e in _THREE]
        a = fit_beta_model(_THREE)
        b = fit_beta_model(flipped)
        assert a.theta_hat == pytest.approx(-b.theta_hat, abs=1e-6)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-6)
        assert a.se_theta == pytest.approx(b.se_theta, abs=1e-6)

    def test_loglik_reported(self):
        fit = fit_beta_model(_THREE)
        assert fit.loglik is not None and math.isfinite(fit.loglik)
        assert fit.i_squared is None


def _split_inputs(tables):
    approxes = [SplitLognormalApprox.from_table(t) for t in tables]
    theta_hats = [make_estimate(t, VarianceSpec("approx"), zero_correction=0.5).theta_hat
                  for t in tables]
    return theta_hats, approxes


def _bcg(rows=None):
    tables = parse_dataset(str(resources.files("grrr.data").joinpath("bcg.csv")))
    return tables if rows is None else [tables[i] for i in rows]


# Comstock-1974, Comstock-Webster-1969, Comstock-1976: the bcg studies with
# the most extreme scale ratios sigma2/sigma1 (0.0046, 628 mirrored, 0.0016)
_BCG_EXTREMES = (10, 11, 12)


def _theta_psi_jacobian(u, mirrored, r):
    """The true effect at coordinate u, psi = (1 + theta)/2 and |dpsi/du|,
    from the mean substitution of ``distribution``: u = mu1(theta) for
    theta-hat < 0, u = mu2(theta) otherwise."""
    if not mirrored:
        theta = math.expm1(u) if u <= 0.0 else -math.expm1(-r * u)
    else:
        theta = -math.expm1(u) if u <= 0.0 else math.expm1(-r * u)
    psi = 0.5 * (1.0 + theta)
    if u <= 0.0:
        jac = 1.0 - psi if mirrored else psi
    else:
        jac = r * psi if mirrored else r * (1.0 - psi)
    return theta, psi, jac


class TestSplitIntegrand:
    """The likelihood's per-study integrand in the Gaussian coordinate u is
    the split-lognormal density at theta(u) times the Beta density of
    psi(u) times |dpsi/du|, with the Beta density from scipy."""

    def _points(self, marginal, rng):
        # both sides of the kink, out to 4 normal sds
        for i in range(len(marginal.x)):
            x = float(marginal.x[i, 0])
            s = 1.0 / math.sqrt(float(marginal.precision[i, 0]))
            yield i, np.concatenate([rng.uniform(x - 4 * s, x + 4 * s, 12),
                                     rng.uniform(-4 * s, 0.0, 4),
                                     rng.uniform(0.0, 4 * s, 4)])

    def test_integrand_is_pdf_times_beta_times_jacobian(self):
        import scipy.stats

        tables = list(_SIX_TABLES) + _bcg(_BCG_EXTREMES + (7,))
        theta_hats, approxes = _split_inputs(tables)
        marginal = _SplitMarginal(theta_hats, approxes)
        rng = np.random.default_rng(5)
        for theta, tau in [(-0.3, 0.3), (0.2, 0.5), (-0.46, 0.05)]:
            alpha, beta = _beta_shapes(0.5 * (1.0 + theta), 0.25 * tau * tau)
            ln_b = log_beta(alpha, beta)
            for i, us in self._points(marginal, rng):
                mirrored = bool(marginal.mirrored[i, 0])
                a, b = (beta, alpha) if mirrored else (alpha, beta)
                r = float(marginal.r[i, 0])
                got = np.exp(marginal.log_normal(us[None, :])[i]
                             + _log_weight(a, b, r)(us) - ln_b)
                for u, value in zip(us, got):
                    th, psi, jac = _theta_psi_jacobian(float(u), mirrored, r)
                    want = (pdf(theta_hats[i], th, approxes[i])
                            * scipy.stats.beta.pdf(psi, alpha, beta) * jac)
                    assert value == pytest.approx(want, rel=1e-12), (i, u, theta, tau)

    def test_anchored_weight_differs_by_a_constant(self):
        # a narrow Beta with its mode on the kink: the mode-anchored weight
        # is ln[Beta(psi) |dpsi/du|] less a constant (the shapes are equal,
        # so mirrored studies see the same ones)
        import scipy.stats

        theta_hats, approxes = _split_inputs(_bcg(_BCG_EXTREMES))
        marginal = _SplitMarginal(theta_hats, approxes)
        sd = 0.002   # tau / 2
        alpha, beta = _beta_shapes(0.5, sd * sd)
        mode = (alpha - 1.0) / (alpha + beta - 2.0)
        for i in range(3):
            mirrored = bool(marginal.mirrored[i, 0])
            r = float(marginal.r[i, 0])
            psis = mode + sd * np.linspace(-8.0, 8.0, 33)
            phis = 1.0 - psis if mirrored else psis
            us = np.where(phis <= 0.5, np.log(2 * phis), -np.log(2 * (1 - phis)) / r)
            got = _log_weight(alpha, beta, r, mode)(us)
            want = []
            for u in us:
                _, psi, jac = _theta_psi_jacobian(float(u), mirrored, r)
                want.append(scipy.stats.beta.logpdf(psi, alpha, beta)
                            + math.log(jac))
            shift = got - np.array(want)
            assert np.ptp(shift) < 1e-9, i


def _mp_study_loglik(theta_hat, s1, s2, theta, tau):
    """ln of one study's marginal likelihood, the split-lognormal density of
    theta-hat integrated over psi against the Beta law, by mpmath
    Gauss-Legendre at 30 digits with breakpoints at the kink psi = 1/2, at
    multiples of both branch scales about the study's peak and about the
    kink, and at multiples of the Beta sd about its mode."""
    import mpmath

    with mpmath.workdps(30):
        th, s1, s2 = mpmath.mpf(theta_hat), mpmath.mpf(s1), mpmath.mpf(s2)
        m = (1 + mpmath.mpf(theta)) / 2
        common = m * (1 - m) / (mpmath.mpf(tau) ** 2 / 4) - 1
        a, b = m * common, (1 - m) * common
        log_b = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
        sd = mpmath.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
        mode = (a - 1) / (a + b - 2) if a > 1 and b > 1 else m
        y, s = (mpmath.log1p(th), s1) if th < 0 else (mpmath.log1p(-th), s2)

        def f(psi):
            t = 2 * psi - 1
            if t < 0:
                mu1 = mpmath.log1p(t)
                mu2 = -(s2 / s1) * mu1
            else:
                mu2 = mpmath.log1p(-t)
                mu1 = -(s1 / s2) * mu2
            z = (y - (mu1 if th < 0 else mu2)) / s
            return mpmath.exp(-z * z / 2 - mpmath.log(s * mpmath.sqrt(2 * mpmath.pi)) - y
                              + (a - 1) * mpmath.log(psi) + (b - 1) * mpmath.log1p(-psi)
                              - log_b)

        peak = (1 + th) / 2
        half = mpmath.mpf(1) / 2
        pts = {half, peak, mode}
        for w in ((1 + th) * s1 / 2, (1 - th) * s2 / 2):
            for k in (1, 3, 8, 20):
                pts.update((peak - k * w, peak + k * w, half - k * w, half + k * w))
        for k in (1, 2, 3, 4, 6, 8, 11, 15, 20, 28, 40):
            pts.update((mode - k * sd, mode + k * sd))
        pts = [0, *sorted(p for p in pts if 0 < p < 1), 1]
        total = 0
        for i, (lo, hi) in enumerate(zip(pts[:-1], pts[1:])):
            # tanh-sinh at the ends, where a shape < 1 is singular
            method = "tanh-sinh" if i in (0, len(pts) - 2) else "gauss-legendre"
            total += mpmath.quad(f, [lo, hi], method=method)
        return float(mpmath.log(total))


def _doubling_ends(log_f, u, scale):
    """The window ends as the split-lognormal panels took them before the
    ladder, one call of ``log_f`` a doubling: the reference for
    ``grrr.meta._window_ends``."""
    _SIDES, _TAIL_DROP, _STEPS = np.array([-1.0, 1.0]), 40.0, 60
    peak = log_f(u)
    floor = peak.max(axis=1, keepdims=True) - _TAIL_DROP
    ends = u + 10.0 * scale * _SIDES
    for _ in range(_STEPS):
        short = log_f(ends) > floor
        if not short.any():
            break
        ends = np.where(short, u + 2.0 * (ends - u), ends)
    # a side whose peak is below the floor is left out: the window ends at 0
    return np.where(peak < floor, 0.0, ends)


class TestWindowEnds:
    @staticmethod
    def _edges_and_terms(monkeypatch, marginal, shapes, window_ends):
        edges = []
        panel_edges = grrr.meta._panel_edges

        def recorded(*args):
            edges.append(panel_edges(*args))
            return edges[-1]

        monkeypatch.setattr(grrr.meta, "_panel_edges", recorded)
        monkeypatch.setattr(grrr.meta, "_window_ends", window_ends)
        terms = marginal.log_terms(*shapes)
        return edges[0], terms

    @pytest.mark.parametrize("dataset", ["six", "bcg", "streptokinase"])
    def test_ladder_gives_the_doubling_loops_edges(self, monkeypatch, dataset):
        # wide, narrow and U-shaped Beta laws, from tau = 1e-5 to 0.9
        if dataset == "six":
            tables = _SIX_TABLES
        else:
            tables = parse_dataset(str(resources.files("grrr.data").joinpath(dataset + ".csv")))
        marginal = _SplitMarginal(*_split_inputs(tables))
        ladder = grrr.meta._window_ends
        rng = np.random.default_rng(19)
        grid = [(theta, tau) for theta in (-0.46, 0.0, 0.3)
                for tau in (1e-5, 1e-3, 0.01, 0.05, 0.24, 0.9)]
        grid += zip(rng.uniform(-0.9, 0.9, 30), np.exp(rng.uniform(math.log(1e-5),
                                                                   math.log(0.9), 30)))
        kinds = set()
        for theta, tau in grid:
            if tau * tau >= 1.0 - theta * theta:
                continue   # infeasible Beta variance
            alpha, beta = _beta_shapes(0.5 * (1.0 + theta), 0.25 * tau * tau)
            psi = 0.5 * (1.0 + theta)
            kinds.add("U" if alpha < 1.0 and beta < 1.0 else
                      "narrow" if 40.5 * 0.5 * tau < min(psi, 1.0 - psi) else "wide")
            got = self._edges_and_terms(monkeypatch, marginal, (alpha, beta), ladder)
            want = self._edges_and_terms(monkeypatch, marginal, (alpha, beta),
                                         _doubling_ends)
            assert np.array_equal(got[0], want[0]), (theta, tau)
            assert np.array_equal(got[1][0], want[1][0]) and got[1][1] == want[1][1]
        assert kinds == {"U", "narrow", "wide"}

    def test_more_doublings_than_rungs_and_a_tail_that_rises(self):
        u = np.array([[-1.0, 2.0], [-3.0, 0.5], [-0.5, 0.1]])
        scale = np.array([[1.0, 1.0], [5.0, 5.0], [0.2, 0.3]])
        rate = np.array([[0.01], [1.0], [1.0]])
        bump = np.array([[0.0], [100.0], [0.0]])
        lift = np.array([[0.0], [0.0], [80.0]])

        def log_f(v):
            # row 0: 40 below its peaks only ~4,000 away; row 1: short again
            # past the first end that is not short; row 2: its left peak is
            # below the floor, its right end needs five doublings
            return (-rate * np.abs(v) + bump * ((80.0 < np.abs(v)) & (np.abs(v) < 150.0))
                    + lift * (v > 0.0))

        got = grrr.meta._window_ends(log_f, u, scale)
        assert np.array_equal(got, _doubling_ends(log_f, u, scale))
        assert got[0, 0] < -4000.0 and got[1, 0] == -53.0 and got[2, 0] == 0.0
        assert got[2, 1] == 0.1 + 3.0 * 2 ** 4


class TestSplitLikelihoodOracle:
    """The marginal likelihood against mpmath at 30 digits, from a point-
    mass-like Beta (tau = 1e-5) to a U-shaped one (tau = 0.9)."""

    @pytest.mark.parametrize("case", [
        ("six", None, -0.3), ("bcg", _BCG_EXTREMES, -0.46), ("bcg", _BCG_EXTREMES, 0.0)])
    def test_accuracy_grid(self, case):
        name, rows, theta = case
        tables = _SIX_TABLES if name == "six" else _bcg(rows)
        theta_hats, approxes = _split_inputs(tables)
        marginal = _SplitMarginal(theta_hats, approxes)
        for tau in (1e-5, 1e-3, 0.01, 0.05, 0.24, 0.9):
            if tau * tau >= 1.0 - theta * theta:
                continue   # infeasible Beta variance
            terms, converged = marginal.log_terms(
                *_beta_shapes(0.5 * (1.0 + theta), 0.25 * tau * tau))
            oracle = [_mp_study_loglik(th, ap.sigma1, ap.sigma2, theta, tau)
                      for th, ap in zip(theta_hats, approxes)]
            assert converged, tau
            assert abs(math.fsum(terms) - math.fsum(oracle)) <= 1e-9, tau


class TestSplitLognormalModel:
    def test_likelihood_matches_quad_oracle(self):
        # reproduce bcg's fitted maximum, at an interior tau-hat, against
        # scipy.integrate.quad on the same integrand definition
        import scipy.stats

        tables = _bcg()
        fit = fit_split_lognormal_model(tables)
        assert fit.tau_hat > 0.0
        theta_hats, approxes = _split_inputs(tables)

        def negll(theta, tau):
            a, b = _beta_shapes(0.5 * (1.0 + theta), 0.25 * tau * tau)
            mode = (a - 1.0) / (a + b - 2.0) if min(a, b) > 1.0 else 0.5
            total = 0.0
            for th, ap in zip(theta_hats, approxes):
                def f(psi):
                    dens = pdf(th, 2 * psi - 1, ap)
                    return dens * scipy.stats.beta.pdf(psi, a, b)

                # the kink psi = 1/2, the study's peak and the Beta mode
                points = sorted({0.5, (1 + th) / 2, mode})
                val, _ = scipy.integrate.quad(f, 0.0, 1.0, points=points, limit=400,
                                              epsabs=1e-12, epsrel=1e-10)
                total -= math.log(val)
            return total

        assert -fit.loglik == pytest.approx(negll(fit.theta_hat, fit.tau_hat), rel=1e-6)
        # the reported optimum beats nearby points of the oracle surface
        for dt, du in [(2e-3, 0.0), (-2e-3, 0.0), (0.0, 2e-3)]:
            assert negll(fit.theta_hat + dt, fit.tau_hat + du) >= -fit.loglik - 1e-7

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_point_mass_continuity_near_boundary(self):
        # just above the reporting boundary the integrated likelihood equals
        # the common-effect one to high accuracy (the shortcut's premise;
        # scipy's roundoff warning is the same noise floor the adaptive
        # integrator detects)
        import scipy.stats

        tables = _SIX_TABLES[:3]
        approxes = [SplitLognormalApprox.from_table(t) for t in tables]
        theta_hats = [make_estimate(t, VarianceSpec("approx"),
                                    zero_correction=0.5).theta_hat
                      for t in tables]
        theta, tau = -0.3, 1e-5
        psi_bar = 0.5 * (1.0 + theta)
        alpha, beta = _beta_shapes(psi_bar, 0.25 * tau * tau)
        for th, ap in zip(theta_hats, approxes):
            point = pdf(th, theta, ap)

            def f(psi):
                dens = pdf(th, 2 * psi - 1, ap)
                return dens * scipy.stats.beta.pdf(psi, alpha, beta)

            val, _ = scipy.integrate.quad(
                f, psi_bar - 6e-5, psi_bar + 6e-5, limit=200, epsabs=0.0,
                epsrel=1e-11)
            assert val == pytest.approx(point, rel=1e-6)

    def test_boundary_fit_reports_zero(self):
        # nearly identical tables leave nothing for the between-study law
        rows = [(20, 100, 30, 100), (21, 100, 30, 100), (20, 100, 31, 100),
                (19, 100, 29, 100)]
        fit = fit_split_lognormal_model(_tables(rows))
        assert fit.method == "split-lognormal"
        assert fit.tau_hat == 0.0
        assert fit.se_tau == 0.0
        assert fit.converged

    def test_label_flip_equivariance(self):
        tables = _SIX_TABLES
        flipped = [t.complemented() for t in tables]
        a = fit_split_lognormal_model(tables)
        b = fit_split_lognormal_model(flipped)
        assert a.theta_hat == pytest.approx(-b.theta_hat, abs=1e-6)
        assert a.tau_hat == pytest.approx(b.tau_hat, abs=1e-6)
        assert a.se_theta == pytest.approx(b.se_theta, abs=1e-5)

    def test_zero_cells_handled_by_correction(self):
        rows = [(0, 40, 8, 45), (3, 50, 10, 48), (2, 60, 12, 55)]
        fit = fit_split_lognormal_model(_tables(rows))
        assert fit.converged
        assert -1.0 < fit.theta_hat < 0.0

    def test_needs_two_studies(self):
        with pytest.raises(DomainError):
            fit_split_lognormal_model(_tables([(2, 10, 5, 10)]))

    def test_missing_scales_raise_domain_error(self):
        # a zero arm has no scales when no zero-correction is granted
        rows = [(3, 50, 10, 48), (0, 40, 8, 45), (2, 60, 12, 55)]
        with pytest.raises(DomainError, match="^t1: boundary proportion with zero_correction=0"):
            fit_split_lognormal_model(_tables(rows), zero_correction=0.0)
        with pytest.raises(DomainError, match="^zero_correction must be finite"):
            fit_split_lognormal_model(_tables(rows[:1] + rows[2:]), zero_correction=-0.5)

    def test_converged_needs_the_rule_within_tolerance(self, monkeypatch):
        # the same optimum, but every integral reported over tolerance
        tables = _bcg()
        honest = fit_split_lognormal_model(tables)
        assert honest.converged and honest.tau_hat > 0.0

        def unconverged(*args, **kw):
            values, errors, _, evals = integrate_vector(*args, **kw)
            return values, errors, False, evals

        integrate_vector = grrr.meta.integrate_vector
        monkeypatch.setattr(grrr.meta, "integrate_vector", unconverged)
        flagged = fit_split_lognormal_model(tables)
        assert not flagged.converged
        assert flagged.theta_hat == honest.theta_hat
        # a boundary fit never reaches the quadrature at its stencil
        rows = [(20, 100, 30, 100), (21, 100, 30, 100), (20, 100, 31, 100),
                (19, 100, 29, 100)]
        assert fit_split_lognormal_model(_tables(rows)).converged

    @staticmethod
    def _after_search(monkeypatch):
        """Patch the search so that ``state["after"]`` is True once it has
        returned; the likelihood evaluations from then on are the tail's."""
        state = {"after": False}
        minimize = grrr.meta.minimize

        def search(f, start):
            res = minimize(f, start)
            state["after"] = True
            return res

        monkeypatch.setattr(grrr.meta, "minimize", search)
        return state

    def test_each_stencil_point_is_evaluated_once(self, monkeypatch):
        # bcg's optimum is interior: nine stencil points, each one quadrature
        # whose accuracy flag the converged test reads (not a second pass)
        state = self._after_search(monkeypatch)
        quad, loglik = [], []
        integrate_vector = grrr.meta.integrate_vector
        split_loglik = grrr.meta.split_loglik

        def counted_quad(*args, **kw):
            quad.append(state["after"])
            return integrate_vector(*args, **kw)

        def counted_loglik(*args):
            loglik.append(state["after"])
            return split_loglik(*args)

        monkeypatch.setattr(grrr.meta, "integrate_vector", counted_quad)
        monkeypatch.setattr(grrr.meta, "split_loglik", counted_loglik)
        fit = fit_split_lognormal_model(_bcg())
        assert fit.tau_hat > 0.0 and fit.converged
        assert sum(quad) == 9 and sum(loglik) == 0
        # a boundary optimum: three point-mass stencil points, one call each
        # for all four studies
        quad.clear()
        rows = [(20, 100, 30, 100), (21, 100, 30, 100), (20, 100, 31, 100),
                (19, 100, 29, 100)]
        state["after"] = False
        fit = fit_split_lognormal_model(_tables(rows))
        assert fit.tau_hat == 0.0
        assert sum(quad) == 0 and sum(loglik) == 3

    def test_converged_reads_the_stencils_own_evaluations(self, monkeypatch):
        # only the evaluations after the search miss the rule's tolerance
        state = self._after_search(monkeypatch)
        integrate_vector = grrr.meta.integrate_vector

        def late(*args, **kw):
            values, errors, converged, evals = integrate_vector(*args, **kw)
            return values, errors, converged and not state["after"], evals

        monkeypatch.setattr(grrr.meta, "integrate_vector", late)
        fit = fit_split_lognormal_model(_bcg())
        assert fit.tau_hat > 0.0 and not fit.converged

    def test_benchmark_registry_fit_converges(self, monkeypatch):
        # registry-0 of the benchmark's registry workload (seed 1): 208
        # studies with zero and one-event arms, a negll of magnitude ~38
        # summed over 208 quadratures
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        registry = workloads.registry_round(1)[0]
        assert registry.name == "registry-0"
        fit = fit_split_lognormal_model(parse_dataset(io.StringIO(registry.csv)))
        assert fit.converged
        assert fit.loglik == pytest.approx(38.0916290681, abs=1e-9)


class TestOneSearch:
    def _bcg_estimates(self):
        return [make_estimate(t, VarianceSpec("exact"), zero_correction=0.5)
                for t in _bcg()]

    def test_restart_thetas_hold_the_one_search(self):
        bcg = self._bcg_estimates()
        fits = [fit_direct_ml(_THREE), fit_beta_model(_THREE), fit_direct_ml(bcg),
                fit_beta_model(bcg), fit_split_lognormal_model(_bcg())]
        for fit in fits:
            assert fit.restart_thetas == (fit.theta_hat,), fit.method
        assert fit_direct_dl(bcg).restart_thetas == ()
        # derived from the fit, not stored with it
        assert "restart_thetas" not in {f.name for f in dataclasses.fields(MetaFit)}

    def test_minimize_runs_once_and_never_for_direct_ml(self, monkeypatch):
        runs = []

        def counted(f, start):
            runs.append(start)
            return minimize(f, start)

        minimize = grrr.meta.minimize
        monkeypatch.setattr(grrr.meta, "minimize", counted)
        fit_direct_ml(self._bcg_estimates())
        assert len(runs) == 0
        fit_beta_model(self._bcg_estimates())
        assert len(runs) == 1
        fit_split_lognormal_model(_bcg())
        assert len(runs) == 2


class TestHessianSE:
    """``_hessian_se`` on quadratic negative log likelihoods, whose central
    differences are exact to rounding: the observed information is
    [[a, c], [c, b]]."""

    @staticmethod
    def _quadratic(a, b, c, theta0, tau0, calls):
        def negll(theta, tau):
            calls.append(tau)
            dt, du = theta - theta0, tau - tau0
            return 0.5 * (a * dt * dt + 2.0 * c * dt * du + b * du * du), True
        return negll

    def test_small_tau_halves_its_step(self):
        a, b, c, tau0, calls = 40.0, 900.0, 30.0, 5e-5, []
        se_theta, se_tau, accurate = _hessian_se(
            self._quadratic(a, b, c, -0.3, tau0, calls), -0.3, tau0, boundary=False)
        det = a * b - c * c
        assert se_theta == pytest.approx(math.sqrt(b / det), rel=1e-6)
        assert se_tau == pytest.approx(math.sqrt(a / det), rel=1e-6)
        assert accurate
        # the tau step is tau-hat / 2, not 1e-4: the stencil stays at tau >= 0
        assert min(calls) == pytest.approx(0.5 * tau0, rel=1e-12)
        assert max(calls) == pytest.approx(1.5 * tau0, rel=1e-12)

    def test_boundary_needs_positive_theta_curvature(self):
        def negll(theta, tau):
            return -(theta + 0.3) ** 2, True
        with pytest.raises(ConvergenceError, match="theta curvature"):
            _hessian_se(negll, -0.3, 0.0, boundary=True)

    def test_indefinite_information_raises(self):
        negll = self._quadratic(1.0, 1.0, 2.0, -0.3, 0.2, [])
        with pytest.raises(ConvergenceError, match="not positive definite"):
            _hessian_se(negll, -0.3, 0.2, boundary=False)


class TestRowOrder:
    @pytest.mark.parametrize("dataset", ["bcg", "streptokinase"])
    @pytest.mark.parametrize("model", ["direct-dl", "direct-ml", "beta", "split-lognormal"])
    def test_row_order_does_not_matter(self, model, dataset):
        # every MetaFit field, bit for bit; each of these shuffles changed
        # the DL, ML and beta fits on both datasets while their per-study
        # terms were summed in row order
        tables = parse_dataset(str(resources.files("grrr.data").joinpath(dataset + ".csv")))
        if model == "split-lognormal":
            inputs, fit = tables, fit_split_lognormal_model
        else:
            inputs = [make_estimate(t, VarianceSpec("exact"), zero_correction=0.5)
                      for t in tables]
            fit = {"direct-dl": fit_direct_dl, "direct-ml": fit_direct_ml,
                   "beta": fit_beta_model}[model]
        base = fit(inputs)
        for seed in (4, 5, 7):
            shuffled = list(inputs)
            random.Random(seed).shuffle(shuffled)
            assert fit(shuffled) == base, seed


class TestMetaFitInvariants:
    def test_validation(self):
        with pytest.raises(DomainError):
            MetaFit(method="x", theta_hat=2.0, se_theta=0.1, tau_hat=0.0,
                    se_tau=None, i_squared=None, loglik=None,
                    n_studies_used=2, converged=True)
        with pytest.raises(DomainError):
            MetaFit(method="x", theta_hat=0.0, se_theta=0.0, tau_hat=0.0,
                    se_tau=None, i_squared=None, loglik=None,
                    n_studies_used=2, converged=True)
        with pytest.raises(DomainError):
            MetaFit(method="x", theta_hat=0.0, se_theta=0.1, tau_hat=-0.2,
                    se_tau=None, i_squared=None, loglik=None,
                    n_studies_used=2, converged=True)
