"""The generalised relative risk reduction (GRRR) measure for 2x2 tables.

For control-arm event probability p and treatment-arm event probability q,
the measure is

    theta = q/p - 1                 if q < p    (relative risk reduction,
                                                 negated: theta in [-1, 0))
    theta = 1 - (1 - q)/(1 - p)     if q >= p   (relative expansion of the
                                                 event's complement:
                                                 theta in [0, 1])

so theta always lies in [-1, 1], is 0 exactly when q = p, -1 when the
treatment eliminates the event, and +1 when it makes the event certain.
An equivalent closed form uses a Heaviside function with H(0) = 1/2:

    theta = (q - p) / (p + (1 - 2p) * H(q - p))

The inverse (the treatment-arm probability implied by p and theta) is

    q = (1 + theta) * p             if theta < 0
    q = p + theta * (1 - p)         if theta >= 0

Plug-in estimation uses p-hat = n11/N1, q-hat = n12/N2 with no continuity
correction; the branch is decided by the exact integer comparison
n11 * N2 vs n12 * N1 (equivalently a d vs b c on the cells: treatment
events a and non-events b, control events c and non-events d). A table with
p-hat = q-hat in {0, 1} carries no information about the effect
("double-degenerate"): theta-hat is 0 there and downstream consumers may
discard the study.

Conversions to and from the odds ratio go through
phi = (OR - 1)/(OR + 1) = (q - p)/(p + q - 2pq).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DatasetError, DomainError

__all__ = [
    "StudyTable",
    "theta_from_probs",
    "theta_from_cells",
    "q_from_p_theta",
    "estimate_theta",
    "probs_to_phi",
    "phi_to_theta",
    "odds_ratio_to_theta",
]


def _check_real(name: str, value: float, lo: float, hi: float,
                open_: bool = False) -> float:
    """``value`` as a float in [lo, hi], or in (lo, hi) when ``open_``;
    bools and NaN are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not (lo < value < hi if open_ else lo <= value <= hi):   # False for NaN
        interval = f"({lo:g}, {hi:g})" if open_ else f"[{lo:g}, {hi:g}]"
        raise DomainError(f"{name} must be in {interval}, got {value!r}")
    return value


@dataclass(frozen=True)
class StudyTable:
    """One study's 2x2 comparative binary outcome data.

    ``events_*`` count subjects experiencing the event; ``n_*`` are arm
    sizes. The control arm defines the baseline risk p, the treatment arm
    the treated risk q.
    """

    study_id: str
    events_treatment: int
    n_treatment: int
    events_control: int
    n_control: int

    def __post_init__(self):
        if not isinstance(self.study_id, str) or not self.study_id:
            raise DatasetError(f"study_id must be a non-empty string, got {self.study_id!r}")
        for name in ("events_treatment", "n_treatment", "events_control", "n_control"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise DatasetError(f"{self.study_id}: {name} must be an integer, got {v!r}")
        if self.n_treatment < 1 or self.n_control < 1:
            raise DatasetError(f"{self.study_id}: arm sizes must be >= 1")
        if not (0 <= self.events_treatment <= self.n_treatment):
            raise DatasetError(f"{self.study_id}: events_treatment outside [0, n_treatment]")
        if not (0 <= self.events_control <= self.n_control):
            raise DatasetError(f"{self.study_id}: events_control outside [0, n_control]")

    @property
    def p_hat(self) -> float:
        """Control-arm event proportion."""
        return self.events_control / self.n_control

    @property
    def q_hat(self) -> float:
        """Treatment-arm event proportion."""
        return self.events_treatment / self.n_treatment

    @property
    def double_degenerate(self) -> bool:
        """True when p-hat = q-hat in {0, 1}: the table carries no
        information about the effect (theta-hat = 0, variance 0)."""
        return ((self.events_treatment == 0 and self.events_control == 0)
                or (self.events_treatment == self.n_treatment
                    and self.events_control == self.n_control))

    @property
    def has_boundary_margin(self) -> bool:
        """True when either arm proportion is 0 or 1 (a zero cell exists)."""
        return (self.events_treatment in (0, self.n_treatment)
                or self.events_control in (0, self.n_control))

    @property
    def cells(self) -> tuple:
        """(a, b, c, d): treatment events and non-events, control events and
        non-events."""
        return (self.events_treatment, self.n_treatment - self.events_treatment,
                self.events_control, self.n_control - self.events_control)

    def complemented(self) -> "StudyTable":
        """Swap the meaning of event and non-event in both arms."""
        return StudyTable(
            study_id=self.study_id,
            events_treatment=self.n_treatment - self.events_treatment,
            n_treatment=self.n_treatment,
            events_control=self.n_control - self.events_control,
            n_control=self.n_control,
        )


def theta_from_probs(p: float, q: float) -> float:
    """GRRR of treatment probability q against control probability p.

    Piecewise definition; exactly 0 at q = p (which also covers the corner
    points p = q = 0 and p = q = 1).
    """
    p = _check_real("p", p, 0.0, 1.0)
    q = _check_real("q", q, 0.0, 1.0)
    if q == p:
        return 0.0
    if q < p:
        return q / p - 1.0
    return 1.0 - (1.0 - q) / (1.0 - p)


def q_from_p_theta(p: float, theta: float) -> float:
    """Inverse map: the treatment probability giving GRRR ``theta`` at
    baseline ``p``. Strictly increasing in theta for p interior."""
    p = _check_real("p", p, 0.0, 1.0)
    theta = _check_real("theta", theta, -1.0, 1.0)
    if theta < 0.0:
        return (1.0 + theta) * p
    return p + theta * (1.0 - p)


def theta_from_cells(a, b, c, d) -> float:
    """GRRR of a table with treatment events a and non-events b, control
    events c and non-events d (counts, or counts plus a zero-correction).

    The branch is decided by the cross products a d vs b c, so ties are
    exact, and swapping events with non-events (a <-> b, c <-> d) negates
    the result exactly. Integer cells give correctly rounded quotients."""
    ad, bc = a * d, b * c
    if ad == bc:
        return 0.0
    if ad < bc:
        return a * (c + d) / (c * (a + b)) - 1.0
    return 1.0 - b * (c + d) / (d * (a + b))


def estimate_theta(table: StudyTable) -> float:
    """Plug-in estimate theta-hat from a 2x2 table (no continuity
    correction), by ``theta_from_cells`` on its counts. Double-degenerate
    tables return 0.0.
    """
    return theta_from_cells(*table.cells)


def probs_to_phi(p: float, q: float) -> float:
    """Map (p, q) to phi = (q - p)/(p + q - 2pq), the odds ratio's
    (OR - 1)/(OR + 1) transform. phi = 0 iff q = p."""
    p = _check_real("p", p, 0.0, 1.0)
    q = _check_real("q", q, 0.0, 1.0)
    if q == p:
        return 0.0
    return (q - p) / (p + q - 2.0 * p * q)


def phi_to_theta(phi: float, p: float) -> float:
    """GRRR implied by phi at baseline risk p (p interior).

    theta = 2(1-p) phi / (1 - phi + 2 p phi)  when phi < 0
    theta = 2 p phi / (1 - phi + 2 p phi)     when phi >= 0
    """
    phi = _check_real("phi", phi, -1.0, 1.0, open_=True)
    p = _check_real("p", p, 0.0, 1.0)
    if not (0.0 < p < 1.0):
        raise DomainError(f"phi_to_theta: baseline risk must be interior, got {p!r}")
    denom = 1.0 - phi + 2.0 * p * phi
    if denom <= 0.0:  # cannot happen for valid inputs; flagged, never clamped
        raise DomainError(f"phi_to_theta: non-positive denominator at phi={phi}, p={p}")
    if phi < 0.0:
        return 2.0 * (1.0 - p) * phi / denom
    return 2.0 * p * phi / denom


def odds_ratio_to_theta(odds_ratio: float, p: float) -> float:
    """GRRR implied by an odds ratio at baseline risk p (both interior)."""
    if isinstance(odds_ratio, bool) or not isinstance(odds_ratio, (int, float)):
        raise DomainError(f"odds_ratio must be a real number, got {odds_ratio!r}")
    odds_ratio = float(odds_ratio)
    if math.isnan(odds_ratio) or math.isinf(odds_ratio) or odds_ratio <= 0.0:
        raise DomainError(f"odds_ratio must be finite and > 0, got {odds_ratio!r}")
    phi = (odds_ratio - 1.0) / (odds_ratio + 1.0)
    return phi_to_theta(phi, p)
