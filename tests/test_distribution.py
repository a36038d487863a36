"""Sampling distribution of the estimate: the two-branch lognormal glue."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from grrr.core import StudyTable, phi_to_theta, q_from_p_theta, theta_from_probs
from grrr.distribution import (
    SplitLognormalApprox,
    cdf,
    confidence_interval,
    loglik,
    p_value,
    pdf,
)
from grrr.errors import DomainError
from grrr.kernels import std_normal_cdf

_APPROX = SplitLognormalApprox(0.2, 0.3)


@pytest.mark.parametrize("call, message", [
    (lambda: theta_from_probs(1.5, 0.2), "p must be in [0, 1], got 1.5"),
    (lambda: theta_from_probs(0.2, True), "q must be a real number, got True"),
    (lambda: q_from_p_theta(0.3, float("nan")), "theta must be in [-1, 1], got nan"),
    (lambda: phi_to_theta(-1.0, 0.3), "phi must be in (-1, 1), got -1.0"),
    (lambda: phi_to_theta("0.1", 0.3), "phi must be a real number, got '0.1'"),
    (lambda: loglik(1, 0.0, _APPROX), "theta_hat must be in (-1, 1), got 1.0"),
    (lambda: cdf(0.2, float("nan"), _APPROX), "theta must be in (-1, 1), got nan"),
    (lambda: cdf(1.5, 0.0, _APPROX), "theta_hat must be in [-1, 1], got 1.5"),
    (lambda: p_value(False, _APPROX), "theta_hat must be a real number, got False"),
    (lambda: confidence_interval(0.2, _APPROX, alpha=1), "alpha must be in (0, 1), got 1.0"),
])
def test_argument_checks_name_the_argument_and_its_interval(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message

# (theta, sigma1, sigma2) configurations spanning both branches and a wide
# scale range
_CONFIGS = [
    (-0.5, 0.2, 0.3),
    (-0.5, 0.3, 0.2),
    (-0.05, 0.6, 0.45),
    (0.0, 0.25, 0.4),
    (0.3, 0.15, 0.1),
    (0.85, 0.5, 0.35),
    (-0.92, 0.08, 0.6),
    (0.4, 1.2, 0.9),
]


def _mass(theta, approx, lower, upper, breakpoints=()):
    """Oracle: scipy's adaptive quadrature of the scalar pdf over theta-hat
    on [lower, upper], split at the breakpoints inside it."""
    points = [p for p in breakpoints if lower < p < upper] or None
    value, _ = scipy.integrate.quad(lambda th: pdf(th, theta, approx),
                                    lower, upper, points=points,
                                    epsabs=1e-11, epsrel=0.0, limit=200)
    return value


class TestPdf:
    def test_peak_value_on_negative_branch(self):
        # at theta-hat = theta < 0 the z-score is 0, so the density is
        # phi(0) / (sigma1 (1 + theta-hat))
        approx = SplitLognormalApprox(sigma1=0.2, sigma2=0.3)
        expected = (1.0 / math.sqrt(2 * math.pi)) / (0.2 * 0.5)
        assert pdf(-0.5, -0.5, approx) == pytest.approx(expected, rel=1e-12)

    def test_peak_value_on_positive_branch(self):
        approx = SplitLognormalApprox(sigma1=0.2, sigma2=0.3)
        expected = (1.0 / math.sqrt(2 * math.pi)) / (0.3 * 0.7)
        assert pdf(0.3, 0.3, approx) == pytest.approx(expected, rel=1e-12)

    def test_normalises_to_one(self):
        for theta, s1, s2 in _CONFIGS:
            approx = SplitLognormalApprox(s1, s2)
            value = _mass(theta, approx, -1.0, 1.0, breakpoints=[0.0, theta])
            assert value == pytest.approx(1.0, abs=1e-8), (theta, s1, s2)

    def test_branch_mass_split(self):
        # P(theta-hat < 0) = Phi(-mu1/sigma1) by construction
        for theta, s1, s2 in _CONFIGS:
            approx = SplitLognormalApprox(s1, s2)
            mu1 = math.log1p(theta) if theta < 0 else -(s1 / s2) * math.log1p(-theta)
            value = _mass(theta, approx, -1.0, 0.0, breakpoints=[theta])
            assert value == pytest.approx(std_normal_cdf(-mu1 / s1), abs=1e-8)

    def test_loglik_is_log_pdf(self):
        approx = SplitLognormalApprox(0.3, 0.25)
        assert loglik(-0.2, 0.1, approx) == pytest.approx(
            math.log(pdf(-0.2, 0.1, approx)), rel=1e-13)

    def test_loglik_maximised_at_observation(self):
        approx = SplitLognormalApprox(0.25, 0.35)
        for th_hat in (-0.45, 0.3):
            ll_at_obs = loglik(th_hat, th_hat, approx)
            for t in np.linspace(-0.95, 0.95, 77):
                if abs(t - th_hat) > 1e-9:
                    assert loglik(th_hat, float(t), approx) <= ll_at_obs

    def test_domain_checks(self):
        approx = SplitLognormalApprox(0.2, 0.3)
        with pytest.raises(DomainError):
            pdf(-1.0, 0.0, approx)  # open interval for the density
        with pytest.raises(DomainError):
            pdf(0.2, 1.0, approx)
        with pytest.raises(DomainError):
            SplitLognormalApprox(0.0, 0.3)


def _reference_loglik(theta_hat, theta, s1, s2):
    """The one-study log density written out as the scalar formula it was
    before the array form existed: the reference for the array form."""
    if theta < 0.0:
        mu1 = math.log1p(theta)
        mu2 = -(s2 / s1) * mu1
    else:
        mu2 = math.log1p(-theta)
        mu1 = -(s1 / s2) * mu2
    if theta_hat < 0.0:
        x = math.log1p(theta_hat)
        z = (x - mu1) / s1
        return -0.5 * z * z - math.log(s1) - math.log(math.sqrt(2.0 * math.pi)) - x
    x = math.log1p(-theta_hat)
    z = (x - mu2) / s2
    return -0.5 * z * z - math.log(s2) - math.log(math.sqrt(2.0 * math.pi)) - x


_OPEN_UNIT = st.one_of(st.just(0.0), st.floats(-0.999999, 0.999999))
_SCALE = st.floats(1e-3, 5.0)


class TestLoglikArrayForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(studies=st.lists(st.tuples(_OPEN_UNIT, _SCALE, _SCALE), min_size=1, max_size=30),
           theta=_OPEN_UNIT)
    def test_equals_the_scalar_formula_bit_for_bit(self, studies, theta):
        theta_hats = [th for th, _, _ in studies]
        approxes = [SplitLognormalApprox(s1, s2) for _, s1, s2 in studies]
        want = [_reference_loglik(th, theta, s1, s2) for th, s1, s2 in studies]
        got = loglik(theta_hats, theta, approxes)
        assert got == want
        assert math.fsum(got) == math.fsum(want)
        assert [loglik(th, theta, ap) for th, ap in zip(theta_hats, approxes)] == want

    @pytest.mark.parametrize("theta", [-1.0, 1.0, 1.5, float("nan")])
    def test_theta_outside_the_open_interval_is_refused(self, theta):
        with pytest.raises(DomainError, match="theta must be in"):
            loglik([-0.2, 0.3], theta, [_APPROX, _APPROX])

    def test_each_estimate_is_checked(self):
        with pytest.raises(DomainError, match="theta_hat must be in"):
            loglik([-0.2, 1.0], 0.1, [_APPROX, _APPROX])


class TestCdf:
    def test_endpoints_exact(self):
        approx = SplitLognormalApprox(0.3, 0.4)
        assert cdf(-1.0, 0.2, approx) == 0.0
        assert cdf(1.0, 0.2, approx) == 1.0

    def test_monotone_and_continuous_at_zero(self):
        for theta, s1, s2 in _CONFIGS:
            approx = SplitLognormalApprox(s1, s2)
            grid = np.linspace(-0.999, 0.999, 401)
            vals = [cdf(float(t), theta, approx) for t in grid]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
            # the branch masses were glued to make the cdf continuous
            assert cdf(-1e-12, theta, approx) == pytest.approx(
                cdf(1e-12, theta, approx), abs=1e-9)

    def test_finite_difference_matches_pdf(self):
        # d/d theta-hat cdf = pdf to 1e-6, both branches
        h = 1e-7
        for theta, s1, s2 in _CONFIGS:
            approx = SplitLognormalApprox(s1, s2)
            for th_hat in (-0.7, -0.2, 0.1, 0.45, 0.9):
                fd = (cdf(th_hat + h, theta, approx)
                      - cdf(th_hat - h, theta, approx)) / (2 * h)
                assert fd == pytest.approx(pdf(th_hat, theta, approx),
                                           rel=1e-6, abs=1e-9)

    def test_matches_numeric_mass(self):
        approx = SplitLognormalApprox(0.35, 0.2)
        theta = -0.3
        for cut in (-0.55, -0.1, 0.2):
            value = _mass(theta, approx, -1.0, cut, breakpoints=[theta, 0.0])
            assert value == pytest.approx(cdf(cut, theta, approx), abs=1e-9)


class TestPValue:
    def test_two_sided_at_zero_is_exactly_one(self):
        approx = SplitLognormalApprox(0.3, 0.4)
        assert p_value(0.0, approx, sided="two") == 1.0

    def test_one_sided_is_tail_beyond_observation(self):
        approx = SplitLognormalApprox(0.3, 0.4)
        # under theta = 0 the one-sided value is the null cdf (or survival)
        # at the observation
        assert p_value(-0.4, approx, sided="one") == pytest.approx(
            cdf(-0.4, 0.0, approx), rel=1e-12)
        assert p_value(0.25, approx, sided="one") == pytest.approx(
            1.0 - cdf(0.25, 0.0, approx), rel=1e-12)

    def test_two_sided_symmetric_under_label_flip(self):
        approx = SplitLognormalApprox(0.3, 0.3)
        flipped = SplitLognormalApprox(0.3, 0.3)
        assert p_value(0.37, approx) == pytest.approx(
            p_value(-0.37, flipped), rel=1e-12)

    def test_extremes(self):
        approx = SplitLognormalApprox(0.3, 0.4)
        assert p_value(1.0, approx) == 0.0
        assert p_value(-1.0, approx) == 0.0

    def test_decreasing_in_magnitude(self):
        approx = SplitLognormalApprox(0.25, 0.35)
        grid = np.linspace(0.0, 0.99, 50)
        vals = [p_value(float(t), approx) for t in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_invalid_sided(self):
        with pytest.raises(DomainError):
            p_value(0.2, SplitLognormalApprox(0.3, 0.4), sided="three")


class TestConfidenceInterval:
    def test_contains_estimate(self):
        for theta, s1, s2 in _CONFIGS:
            approx = SplitLognormalApprox(s1, s2)
            lo, hi = confidence_interval(theta, approx)
            assert -1.0 <= lo < theta < hi <= 1.0 or lo <= theta <= hi

    def test_quantile_equating_round_trip(self):
        # cdf of the observation is alpha/2 at the upper limit and
        # 1 - alpha/2 at the lower, including recomputed (sign-crossing)
        # limits; 1e-6 everywhere
        for theta_hat, s1, s2 in _CONFIGS:
            approx = SplitLognormalApprox(s1, s2)
            for alpha in (0.05, 0.2):
                lo, hi = confidence_interval(theta_hat, approx, alpha=alpha)
                if -1.0 < lo < 1.0:
                    assert cdf(theta_hat, lo, approx) == pytest.approx(
                        1.0 - alpha / 2.0, abs=1e-6), (theta_hat, s1, s2)
                if -1.0 < hi < 1.0:
                    assert cdf(theta_hat, hi, approx) == pytest.approx(
                        alpha / 2.0, abs=1e-6), (theta_hat, s1, s2)

    def test_sign_crossing_upper_limit(self):
        # small negative estimate with a wide scale: the naive upper limit
        # would cross zero and must be recomputed on the other branch
        approx = SplitLognormalApprox(0.6, 0.45)
        lo, hi = confidence_interval(-0.05, approx)
        assert hi > 0.0
        assert cdf(-0.05, hi, approx) == pytest.approx(0.025, abs=1e-9)

    def test_sign_crossing_lower_limit(self):
        approx = SplitLognormalApprox(0.45, 0.6)
        lo, hi = confidence_interval(0.05, approx)
        assert lo < 0.0
        assert cdf(0.05, lo, approx) == pytest.approx(0.975, abs=1e-9)

    def test_narrower_at_higher_alpha(self):
        approx = SplitLognormalApprox(0.3, 0.25)
        lo95, hi95 = confidence_interval(0.2, approx, alpha=0.05)
        lo80, hi80 = confidence_interval(0.2, approx, alpha=0.2)
        assert lo95 < lo80 and hi80 < hi95

    def test_from_table_constructor(self):
        t = StudyTable("s", 2, 10, 5, 10)
        approx = SplitLognormalApprox.from_table(t)
        from grrr.variance import delta_method_params

        _, s1sq, _, s2sq = delta_method_params(t)
        assert approx.sigma1 == pytest.approx(math.sqrt(s1sq), rel=1e-14)
        assert approx.sigma2 == pytest.approx(math.sqrt(s2sq), rel=1e-14)

    def test_invalid_alpha(self):
        approx = SplitLognormalApprox(0.3, 0.4)
        with pytest.raises(DomainError):
            confidence_interval(0.2, approx, alpha=0.0)
        with pytest.raises(DomainError):
            confidence_interval(0.2, approx, alpha=1.0)
