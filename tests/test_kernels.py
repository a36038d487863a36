"""Accuracy contracts of the numeric kernels.

Reference values were frozen from mpmath at 50 decimal digits
(``mpmath.ncdf``, ``erfinv``, ``loggamma``); the quadrature and optimizer
tests use closed-form targets.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from grrr.errors import DomainError
from grrr.kernels import (
    OptimizerResult,
    integrate_vector,
    log_beta,
    make_rng,
    minimize,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

# (x, Phi(x)) from mpmath.ncdf at 50 dps
_CDF_ORACLE = [
    (-8.0, 6.220960574271784e-16),
    (-3.0, 0.0013498980316300946),
    (-1.0, 0.15865525393145705),
    (-0.5, 0.3085375387259869),
    (0.0, 0.5),
    (0.3, 0.6179114221889527),
    (1.0, 0.8413447460685429),
    (2.5, 0.9937903346742238),
    (6.0, 0.9999999990134123),
]

# (p, quantile(p), abs tol) from sqrt(2) * erfinv(2p - 1) evaluated at the
# double-rounded p. The loose upper-tail tolerance reflects the inherent
# 1 - p cancellation of any double-precision implementation.
_QUANTILE_ORACLE = [
    (1e-10, -6.361340902404057, 1e-12),
    (0.0001, -3.7190164854556804, 1e-13),
    (0.025, -1.9599639845400543, 1e-13),
    (0.31, -0.4958503473474533, 1e-14),
    (0.84, 0.994457883209753, 1e-14),
    (0.975, 1.9599639845400538, 1e-13),
    (0.9999, 3.7190164854557084, 1e-12),
    (0.9999999999, 6.361340889697422, 1e-8),
]

# ((a, b), ln B(a, b)) from mpmath.loggamma at 50 dps
_LOG_BETA_ORACLE = [
    ((0.5, 0.5), 1.1447298858494002),
    ((1.0, 1.0), 0.0),
    ((2.0, 3.0), -2.4849066497880004),
    ((120.5, 0.25), 0.0908886311256941),
    ((1000000.0, 0.001), 6.893363374669188),
    ((3.5, 5000.0), -28.61007739266078),
    ((100000000.0, 100000000.0), -138629444.05681732),
]


class TestNormalCdf:
    def test_against_mpmath(self):
        for x, expected in _CDF_ORACLE:
            assert abs(std_normal_cdf(x) - expected) < 1e-15

    def test_symmetry(self):
        for x in np.linspace(0.0, 7.0, 71):
            assert std_normal_cdf(-x) == pytest.approx(
                1.0 - std_normal_cdf(x), abs=1e-15)

    def test_monotone(self):
        xs = np.linspace(-10.0, 10.0, 401)
        vals = [std_normal_cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))


class TestNormalPdf:
    def test_peak(self):
        assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                                    rel=1e-15)

    def test_matches_cdf_derivative(self):
        h = 1e-6
        for x in (-2.5, -0.7, 0.0, 1.1, 3.0):
            fd = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
            assert fd == pytest.approx(std_normal_pdf(x), rel=1e-8)


class TestNormalQuantile:
    def test_against_mpmath(self):
        for p, expected, tol in _QUANTILE_ORACLE:
            assert abs(std_normal_quantile(p) - expected) < tol

    def test_median_exact(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_round_trip(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert abs(std_normal_cdf(std_normal_quantile(float(p))) - p) < 1e-12

    def test_rejects_boundary(self):
        for p in (0.0, 1.0, -0.2, 1.3, float("nan")):
            with pytest.raises(DomainError):
                std_normal_quantile(p)


class TestLogBeta:
    def test_against_mpmath(self):
        # error scales with the largest log-gamma term when they cancel
        for (a, b), expected in _LOG_BETA_ORACLE:
            scale = (abs(math.lgamma(a)) + abs(math.lgamma(b))
                     + abs(math.lgamma(a + b)) + 1.0)
            assert abs(log_beta(a, b) - expected) < 1e-13 * scale

    def test_symmetry(self):
        assert log_beta(3.7, 0.4) == pytest.approx(log_beta(0.4, 3.7), abs=1e-14)

    def test_rejects_nonpositive(self):
        for a, b in [(0.0, 1.0), (1.0, -2.0), (float("inf"), 1.0)]:
            with pytest.raises(DomainError):
                log_beta(a, b)

    def test_vectors_match_scalar_calls_bitwise(self):
        rng = np.random.default_rng(7)
        a = 10.0 ** rng.uniform(-3, 6, 200)
        b = 10.0 ** rng.uniform(-3, 6, 200)
        got = log_beta(a, b)
        # the scalar form's arithmetic, one element at a time
        want = np.array([math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
                         for x, y in zip(a.tolist(), b.tolist())])
        scalar = np.array([log_beta(x, y) for x, y in zip(a.tolist(), b.tolist())])
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(scalar.view(np.int64), want.view(np.int64))
        assert isinstance(log_beta(2.5, 0.7), float)

    def test_vectors_reject_any_bad_element(self):
        for bad in (0.0, -1.5, float("inf"), float("nan")):
            for pos in (0, 2):
                a = np.array([1.0, 2.0, 3.0])
                a[pos] = bad
                with pytest.raises(DomainError):
                    log_beta(a, np.ones(3))
                with pytest.raises(DomainError):
                    log_beta(np.ones(3), a)


def _quad(log_f, edges, **kw):
    """One-row ``integrate_vector``: (value, error, converged, evals)."""
    log_values, errs, converged, evals = integrate_vector(log_f, [edges], **kw)
    return math.exp(log_values[0]), float(errs[0]), converged, evals


def _spike(centre, width):
    return lambda x: -(((x - centre) / width) ** 2)


class TestIntegrate:
    def test_linear(self):
        value, _, converged, _ = _quad(np.log, [0.0, 1.0], tol=1e-12)
        assert converged
        assert value == pytest.approx(0.5, abs=1e-13)

    def test_polynomial_single_panel(self):
        # K15 is exact through degree 22: one panel, 15 evaluations
        value, _, converged, evals = _quad(lambda x: 10.0 * np.log(x), [0.0, 1.0],
                                           tol=1e-13)
        assert evals == 15
        assert converged
        assert value == pytest.approx(1.0 / 11.0, abs=1e-14)

    def test_beta_2_2_density(self):
        value, _, _, _ = _quad(lambda x: np.log(6.0 * x * (1.0 - x)), [0.0, 1.0],
                               tol=1e-12)
        assert value == pytest.approx(1.0, abs=1e-13)

    def test_oscillatory_with_error_estimate(self):
        # exp(sin 50x) over 25 periods is pi I0(1); K15 - G7 is a cautious
        # estimate: at half a period a panel it reads ~1e-6 for a 5e-14 error
        truth = math.pi * scipy.special.i0(1.0)
        value, error, converged, evals = _quad(lambda x: np.sin(50.0 * x),
                                               np.linspace(0.0, math.pi, 51), tol=1e-5)
        assert converged
        assert evals == 50 * 15
        assert value == pytest.approx(truth, rel=1e-12)
        _, finer, _, _ = _quad(lambda x: np.sin(50.0 * x), np.linspace(0.0, math.pi, 101))
        assert finer < error / 1000.0

    def test_any_magnitude_in_log_space(self):
        log_values, _, converged, _ = integrate_vector(
            lambda x: np.log(x) + np.array([[1500.0], [-1500.0]]),
            [[0.0, 1.0], [0.0, 1.0]])
        assert converged
        assert log_values == pytest.approx([1500.0 + math.log(0.5),
                                            -1500.0 + math.log(0.5)], abs=1e-12)

    def test_breakpoints_expose_narrow_spike(self):
        # a 1e-6-wide Gaussian spike: every node of one panel misses it, and
        # the K15 - G7 estimate says so; edges about it resolve it
        f = _spike(0.37, 1e-6)
        truth = math.sqrt(math.pi) * 1e-6
        no_edges, _, converged, _ = _quad(f, [0.0, 1.0], tol=1e-5)
        assert abs(no_edges) < truth / 2 and not converged
        edges = [0.0] + [0.37 + d * 1e-6 for d in (-5, -1.5, -0.5, 0.5, 1.5, 5)] + [1.0]
        with_edges, _, converged, _ = _quad(f, edges, tol=1e-5)
        assert converged
        assert with_edges == pytest.approx(truth, rel=1e-9)

    def test_nonconvergence_reported_not_raised(self):
        # a spike narrower than its panel that only the node at 0.5 samples:
        # the value is wrong, and the rule reports it
        truth = math.sqrt(math.pi) * 0.01
        value, error, converged, _ = _quad(_spike(0.5, 0.01), [0.0, 1.0], tol=1e-5)
        assert not converged and error > 0.5
        assert value == pytest.approx(0.5 * 0.209482141084728, rel=1e-9)
        assert abs(value - truth) > truth
        value, _, converged, _ = _quad(_spike(0.5, 0.01), np.linspace(0.0, 1.0, 41),
                                       tol=1e-5)
        assert converged
        assert value == pytest.approx(truth, rel=1e-9)

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(DomainError):
            _quad(lambda x: np.where(x < 0.3, np.inf, 1.0), [0.0, 1.0])
        with pytest.raises(DomainError):
            _quad(lambda x: float("nan") * x, [0.0, 1.0])
        with pytest.raises(DomainError):
            _quad(lambda x: np.full(x.shape[1], 0.0), [0.0, 1.0])

    def test_invalid_interval(self):
        for edges in ([1.0, 0.0], [0.0, float("inf")], [0.5, 0.5], [0.0, 0.6, 0.4, 1.0]):
            with pytest.raises(DomainError):
                _quad(np.log, edges)
        for edges in ([0.0, 1.0], [[0.0]], [[[0.0, 1.0]]]):
            with pytest.raises(DomainError):
                integrate_vector(np.log, edges)
        with pytest.raises(DomainError):
            _quad(np.log, [0.0, 1.0], tol=0.0)


class TestIntegrateVector:
    def _rows(self):
        # row 1 is padded with an empty panel
        edges = [[0.0, 0.5, 1.0], [0.0, 2.0, 2.0], [0.0, 0.7, math.pi / 2]]

        def log_f(x):
            return np.stack([np.log(x[0]), 2.0 * np.log(x[1]), np.log(np.cos(x[2]))])

        return log_f, edges

    def test_components_share_panels(self):
        # rows on the same edges are integrated on the same nodes
        edges = np.linspace(0.0, 1.0, 4)

        def log_f(x):
            return np.stack([np.log(x[0]), 2.0 * np.log(x[1]), np.sin(x[2])])

        log_values, errs, converged, evals = integrate_vector(log_f, [edges] * 3)
        assert converged
        assert np.exp(log_values[:2]) == pytest.approx([0.5, 1.0 / 3.0], abs=1e-13)
        truth = scipy.integrate.quad(lambda x: math.exp(math.sin(x)), 0.0, 1.0,
                                     epsabs=0.0, epsrel=1e-13)[0]
        assert math.exp(log_values[2]) == pytest.approx(truth, rel=1e-13)
        assert evals == 3 * 3 * 15

    def test_rows_at_once(self):
        log_f, edges = self._rows()
        log_values, errs, converged, evals = integrate_vector(log_f, edges, tol=1e-12)
        assert converged
        assert np.exp(log_values) == pytest.approx([0.5, 8.0 / 3.0, 1.0], abs=1e-13)
        assert errs.shape == (3,)
        assert evals == 3 * 2 * 15

    def test_repeated_edges_repeat_the_nodes(self):
        # rows with equal edges get equal nodes, so a second block on the
        # repeated edges may read the first block's: bit for bit the two
        # single-block calls, as the narrow Beta's mass rows rely on
        log_f, edges = self._rows()

        def second(x):
            return 0.5 * log_f(x) - 3.0

        got = integrate_vector(lambda x: np.concatenate([log_f(x[:3]), second(x[:3])]),
                               edges + edges)
        wants = [integrate_vector(f, edges) for f in (log_f, second)]
        for block, want in enumerate(wants):
            rows = slice(3 * block, 3 * block + 3)
            assert np.array_equal(got[0][rows], want[0])
            assert np.array_equal(got[1][rows], want[1])
        assert got[2] == (wants[0][2] and wants[1][2])
        assert got[3] == wants[0][3] + wants[1][3] == 2 * 3 * 2 * 15

    def test_log_f_returns_one_row_per_edge_row(self):
        log_f, edges = self._rows()
        for rows in (2, 4, 5, 6):   # three edge rows
            with pytest.raises(DomainError):
                integrate_vector(lambda x, n=rows: np.concatenate([log_f(x)] * 2)[:n], edges)

    def test_row_results_do_not_depend_on_position(self):
        log_f, edges = self._rows()
        base = integrate_vector(log_f, edges)
        order = [2, 0, 1]
        moved = integrate_vector(lambda x: log_f(x[np.argsort(order)])[order],
                                 [edges[i] for i in order])
        assert np.array_equal(moved[0], base[0][order])
        assert np.array_equal(moved[1], base[1][order])


class TestMinimize:
    def test_quadratic(self):
        res = minimize(lambda x: (x[0] - 3.0) ** 2 + (x[1] + 1.0) ** 2, (0.0, 0.0))
        assert isinstance(res, OptimizerResult)
        assert res.converged
        assert res.argmin[0] == pytest.approx(3.0, abs=1e-6)
        assert res.argmin[1] == pytest.approx(-1.0, abs=1e-6)

    def test_rosenbrock(self):
        def rosen(x):
            return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        res = minimize(rosen, (-1.2, 1.0))
        assert res.converged
        assert res.argmin[0] == pytest.approx(1.0, abs=1e-5)
        assert res.argmin[1] == pytest.approx(1.0, abs=1e-5)

    def test_nonsmooth_objective(self):
        res = minimize(lambda x: abs(x[0] - 0.7), (5.0,))
        assert res.argmin[0] == pytest.approx(0.7, abs=1e-6)

    def test_deterministic(self):
        f = lambda x: math.cos(x[0]) + 0.1 * x[0] ** 2
        a = minimize(f, (2.0,))
        b = minimize(f, (2.0,))
        assert a == b

    def test_bad_start_rejected(self):
        with pytest.raises(DomainError):
            minimize(lambda x: x[0] ** 2, (float("nan"),))
        with pytest.raises(DomainError):
            minimize(lambda x: 0.0, ())


class TestRng:
    def test_streams_reproducible(self):
        a = make_rng(42).standard_normal(8)
        b = make_rng(42).standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ_across_seeds(self):
        a = make_rng(1).standard_normal(8)
        b = make_rng(2).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_invalid_args(self):
        with pytest.raises(DomainError):
            make_rng(-1)
        with pytest.raises(DomainError):
            make_rng(1.5)
