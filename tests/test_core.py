"""Properties and identities of the effect measure itself."""

import math

import numpy as np
import pytest

from grrr.core import (
    StudyTable,
    estimate_theta,
    odds_ratio_to_theta,
    phi_to_theta,
    probs_to_phi,
    q_from_p_theta,
    theta_from_probs,
)
from grrr.errors import DatasetError, DomainError

# deterministic interior grids shared by the identity tests
_P_GRID = np.linspace(0.01, 0.99, 100)
_Q_GRID = np.linspace(0.015, 0.985, 100)
_THETA_GRID = np.linspace(-0.999, 0.999, 100)


def _theta_heaviside(p, q):
    """The single-formula form (q - p)/(p + (1 - 2p) H(q - p)) with
    H(0) = 1/2: an oracle written independently of the piecewise one."""
    d = q - p
    h = 1.0 if d > 0.0 else (0.0 if d < 0.0 else 0.5)
    return d / (p + (1.0 - 2.0 * p) * h)


def _table(e_t, n_t, e_c, n_c, sid="s"):
    return StudyTable(study_id=sid, events_treatment=e_t, n_treatment=n_t,
                      events_control=e_c, n_control=n_c)


class TestThetaFromProbs:
    def test_known_values(self):
        # risk 0.5 -> 0.2 is a 60% relative risk reduction
        assert theta_from_probs(0.5, 0.2) == pytest.approx(-0.6, abs=1e-15)
        # risk 0.5 -> 0.75 halves the complement
        assert theta_from_probs(0.5, 0.75) == pytest.approx(0.5, abs=1e-15)
        assert theta_from_probs(0.3, 0.3) == 0.0
        assert theta_from_probs(0.4, 0.0) == -1.0
        assert theta_from_probs(0.4, 1.0) == 1.0

    def test_corner_points_are_zero(self):
        assert theta_from_probs(0.0, 0.0) == 0.0
        assert theta_from_probs(1.0, 1.0) == 0.0

    def test_range(self):
        for p in _P_GRID:
            for q in _Q_GRID:
                assert -1.0 <= theta_from_probs(float(p), float(q)) <= 1.0

    def test_matches_heaviside_form_on_grid(self):
        # 10^4 point grid, both formulas agree to 1e-10
        for p in _P_GRID:
            for q in _Q_GRID:
                a = theta_from_probs(float(p), float(q))
                b = _theta_heaviside(float(p), float(q))
                assert abs(a - b) < 1e-10

    def test_label_flip_antisymmetry_on_grid(self):
        # swapping event and non-event in both arms negates theta (10^4 pts)
        for p in _P_GRID:
            for q in _Q_GRID:
                a = theta_from_probs(float(p), float(q))
                b = theta_from_probs(1.0 - float(p), 1.0 - float(q))
                assert abs(a + b) < 1e-10

    def test_monotone_in_q(self):
        for p in (0.05, 0.3, 0.5, 0.8):
            thetas = [theta_from_probs(p, float(q)) for q in _Q_GRID]
            assert all(x < y for x, y in zip(thetas, thetas[1:]))

    def test_not_symmetric_in_p_q(self):
        # exchanging the arms is not simple negation (unlike label flipping)
        assert theta_from_probs(0.5, 0.2) != pytest.approx(
            -theta_from_probs(0.2, 0.5), abs=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            theta_from_probs(-0.1, 0.5)
        with pytest.raises(DomainError):
            theta_from_probs(0.5, 1.5)
        with pytest.raises(DomainError):
            theta_from_probs(float("nan"), 0.5)
        with pytest.raises(DomainError):
            theta_from_probs(True, 0.5)


class TestRoundTrip:
    def test_forward_inverse_grid(self):
        # q -> theta -> q and theta -> q -> theta, 10^4 points, 1e-10
        for p in _P_GRID:
            for theta in _THETA_GRID:
                q = q_from_p_theta(float(p), float(theta))
                assert abs(theta_from_probs(float(p), q) - theta) < 1e-10

    def test_inverse_endpoints(self):
        assert q_from_p_theta(0.3, -1.0) == 0.0
        assert q_from_p_theta(0.3, 1.0) == 1.0
        assert q_from_p_theta(0.3, 0.0) == 0.3

    def test_inverse_monotone_in_theta(self):
        for p in (0.1, 0.5, 0.9):
            qs = [q_from_p_theta(p, float(t)) for t in _THETA_GRID]
            assert all(x < y for x, y in zip(qs, qs[1:]))


class TestEstimateTheta:
    def test_documented_example(self):
        # 2 events of 10 treated vs 5 of 10 controls
        assert estimate_theta(_table(2, 10, 5, 10)) == pytest.approx(-0.6, abs=1e-15)

    def test_agrees_with_probability_form(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n_t = int(rng.integers(1, 80))
            n_c = int(rng.integers(1, 80))
            e_t = int(rng.integers(0, n_t + 1))
            e_c = int(rng.integers(0, n_c + 1))
            t = _table(e_t, n_t, e_c, n_c)
            assert estimate_theta(t) == pytest.approx(
                theta_from_probs(t.p_hat, t.q_hat), abs=1e-12)

    def test_exact_tie_detection(self):
        # 3/9 vs 5/15 are equal proportions only under exact arithmetic
        assert estimate_theta(_table(3, 9, 5, 15)) == 0.0
        assert estimate_theta(_table(7, 21, 9, 27)) == 0.0

    def test_double_degenerate_is_zero(self):
        assert estimate_theta(_table(0, 10, 0, 20)) == 0.0
        assert estimate_theta(_table(10, 10, 20, 20)) == 0.0

    def test_complement_negates(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_t = int(rng.integers(1, 60))
            n_c = int(rng.integers(1, 60))
            t = _table(int(rng.integers(0, n_t + 1)), n_t,
                       int(rng.integers(0, n_c + 1)), n_c)
            assert estimate_theta(t.complemented()) == pytest.approx(
                -estimate_theta(t), abs=1e-12)


class TestStudyTable:
    def test_proportions(self):
        t = _table(2, 10, 5, 10)
        assert t.q_hat == 0.2
        assert t.p_hat == 0.5

    def test_flags(self):
        assert _table(0, 10, 0, 5).double_degenerate
        assert _table(10, 10, 5, 5).double_degenerate
        assert not _table(0, 10, 3, 5).double_degenerate
        assert _table(0, 10, 3, 5).has_boundary_margin
        assert _table(2, 10, 5, 5).has_boundary_margin
        assert not _table(2, 10, 3, 5).has_boundary_margin

    def test_complement_involution(self):
        t = _table(3, 11, 7, 13)
        assert t.complemented().complemented() == t

    def test_validation(self):
        with pytest.raises(DatasetError):
            _table(11, 10, 5, 10)  # events exceed arm size
        with pytest.raises(DatasetError):
            _table(2, 0, 5, 10)  # empty arm
        with pytest.raises(DatasetError):
            _table(-1, 10, 5, 10)
        with pytest.raises(DatasetError):
            StudyTable("", 2, 10, 5, 10)
        with pytest.raises(DatasetError):
            StudyTable("s", 2.0, 10, 5, 10)  # non-integer count


class TestOddsRatioConversion:
    def test_documented_example(self):
        # OR = 3 at baseline risk 0.5 maps to theta = 0.5
        assert odds_ratio_to_theta(3.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_null_or(self):
        assert odds_ratio_to_theta(1.0, 0.37) == 0.0

    def test_phi_of_equal_probs_is_zero(self):
        assert probs_to_phi(0.25, 0.25) == 0.0

    def test_composition_matches_direct_on_grid(self):
        # p,q -> phi -> theta must equal theta(p, q); 10^4 points, 1e-10.
        # This exercises both branches of phi_to_theta against the measure.
        for p in _P_GRID:
            for q in _Q_GRID:
                phi = probs_to_phi(float(p), float(q))
                direct = theta_from_probs(float(p), float(q))
                assert abs(phi_to_theta(phi, float(p)) - direct) < 1e-10

    def test_or_composition_via_probabilities(self):
        # independent path: recover q from the odds ratio, then apply the
        # measure directly
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = float(rng.uniform(0.02, 0.98))
            odds_ratio = float(math.exp(rng.uniform(-3.0, 3.0)))
            odds_q = odds_ratio * p / (1.0 - p)
            q = odds_q / (1.0 + odds_q)
            expected = theta_from_probs(p, q)
            assert odds_ratio_to_theta(odds_ratio, p) == pytest.approx(
                expected, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            odds_ratio_to_theta(0.0, 0.5)
        with pytest.raises(DomainError):
            odds_ratio_to_theta(-2.0, 0.5)
        with pytest.raises(DomainError):
            odds_ratio_to_theta(2.0, 0.0)  # baseline must be interior
        with pytest.raises(DomainError):
            phi_to_theta(1.0, 0.5)

