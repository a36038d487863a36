"""Seeded inputs of the benchmark, handed to the program as CSV text.

A workload is a fixed list of operations, its round. One operation is what
one or more ``grrr analyze`` invocations do on one input: CSV text ->
``parse_dataset`` -> ``run_analysis`` -> ``emit_report`` bytes. The
successful operations of a round are of one kind and cost class, and a run
repeats whole rounds, so the share of failed operations is the same in
every run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HEADER = "study_id,events_treatment,n_treatment,events_control,n_control\n"
DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "grrr" / "data"

# The one mega-trial of large-trials: 500k per arm at p = 0.3 (0.27 treated)
# gives a 5.6e8-cell exact grid, above the program's 1e8 cap, so its
# analysis fails with ResourceLimitError until the cap goes.
MEGA_TRIAL = ("MEGA-500k", 135_000, 500_000, 150_000, 500_000)

# Large-trial slots: (arm size, control event rate). Each cumulative update
# adds one trial per slot, so every operation has about the same exact-grid
# work whatever the seed: ~36M cells with streptokinase's 8M, the largest
# grid ~12.8M cells and a ~0.64 GB peak.
_LARGE_SLOTS = ((500, 0.40), (800, 0.20), (1_500, 0.30), (3_000, 0.10),
                (6_000, 0.20), (12_000, 0.30), (25_000, 0.05), (25_000, 0.02))
LARGE_ANALYSES = 3      # successful operations per large-trials round
REGISTRY_SIZE = 200     # synthetic trials of a registry, before the fixed edge tables
REGISTRIES = 4          # registries per registry round


@dataclass(frozen=True)
class Analysis:
    """One operation: analyse ``csv`` under each of ``models`` and emit each
    of ``formats``. ``expect_error`` names the exception class of an
    operation that is known to fail."""

    name: str
    csv: str
    models: tuple
    variance: str
    formats: tuple
    expect_error: Optional[str] = None

    @property
    def n_studies(self) -> int:
        return self.csv.count("\n") - 1

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.csv.encode("utf-8")).hexdigest()


def _rows(path: Path) -> list[tuple]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] + "\n" != HEADER:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    out = []
    for line in lines[1:]:
        sid, *counts = line.split(",")
        out.append((sid, *map(int, counts)))
    return out


def _csv(rows) -> str:
    return HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows)


def _permuted(rows, rng) -> list[tuple]:
    return [rows[i] for i in rng.permutation(len(rows))]


def split_lognormal_round(seed: int) -> list[Analysis]:
    """The paper's two examples under the split-lognormal likelihood, rows
    in a seeded order."""
    rng = np.random.default_rng([seed, 1])
    return [Analysis(name, _csv(_permuted(_rows(DATA_DIR / f"{name}.csv"), rng)),
                     ("split-lognormal",), "approx", ("json",))
            for name in ("bcg", "streptokinase")]


def _large_trial(sid: str, n: int, p: float, rng) -> tuple:
    # Fixed arm sizes and rates: the grid of a trial grows with n p (1 - p)
    # in both arms, so drawing them would make the cost of an operation and
    # the peak memory follow the seed rather than the program. The seed
    # draws the counts.
    p_t = p * rng.uniform(0.78, 0.82)
    return (sid, int(rng.binomial(n, p_t)), n, int(rng.binomial(n, p)), n)


def large_trials_round(seed: int) -> list[Analysis]:
    """Cumulative updates of the streptokinase meta-analysis with seeded
    large trials under direct-ml and the exact variance, then one update
    with the mega-trial, which fails."""
    rng = np.random.default_rng([seed, 2])
    strepto = _rows(DATA_DIR / "streptokinase.csv")
    round_ = []
    for a in range(LARGE_ANALYSES):
        extra = [_large_trial(f"LT{a}-{s}", n, p, rng)
                 for s, (n, p) in enumerate(_LARGE_SLOTS)]
        round_.append(Analysis(f"cumulative-{a}", _csv(strepto + _permuted(extra, rng)),
                               ("direct-ml",), "exact", ("json",)))
    round_.append(Analysis("cumulative-mega", _csv(strepto + [MEGA_TRIAL]),
                           ("direct-ml",), "exact", ("json",),
                           expect_error="ResourceLimitError"))
    return round_


# Edge tables that every registry holds: single-zero arms, double-zero
# tables and single-event arms (all go through the 0.5 zero-correction).
_REGISTRY_EDGES = (
    ("EDGE-zero-treatment", 0, 40, 6, 38),
    ("EDGE-zero-control", 3, 25, 0, 27),
    ("EDGE-all-events-treatment", 30, 30, 22, 31),
    ("EDGE-double-zero-a", 0, 15, 0, 14),
    ("EDGE-double-zero-b", 0, 120, 0, 118),
    ("EDGE-one-event-treatment", 1, 60, 9, 58),
    ("EDGE-one-event-control", 5, 44, 1, 47),
    ("EDGE-one-event-each", 1, 12, 1, 10),
)


def _registry(name: str, rng) -> Analysis:
    rows = list(_REGISTRY_EDGES)
    for s in range(REGISTRY_SIZE):
        n = math.exp(rng.uniform(math.log(10), math.log(2000)))
        n_c = max(10, int(round(n * rng.uniform(0.8, 1.2))))
        n_t = max(10, int(round(n * rng.uniform(0.8, 1.2))))
        p_c = math.exp(rng.uniform(math.log(0.02), math.log(0.5)))
        theta = float(np.clip(rng.normal(-0.2, 0.2), -0.9, 0.6))
        p_t = (1.0 + theta) * p_c if theta < 0.0 else p_c + theta * (1.0 - p_c)
        rows.append((f"R{s:03d}", int(rng.binomial(n_t, p_t)), n_t,
                     int(rng.binomial(n_c, p_c)), n_c))
    return Analysis(name, _csv(_permuted(rows, rng)),
                    ("direct-dl", "direct-ml", "beta"), "approx", ("json", "csv"))


def registry_round(seed: int) -> list[Analysis]:
    """Registries of small-to-moderate trials under direct-dl, direct-ml
    and beta with the approx variance, emitted as JSON and CSV. The fits'
    iteration counts vary by ~10% from registry to registry, so a round
    holds several and the median operation does not follow one draw."""
    rng = np.random.default_rng([seed, 3])
    return [_registry(f"registry-{r}", rng) for r in range(REGISTRIES)]


ROUNDS = {
    "split-lognormal": split_lognormal_round,
    "large-trials": large_trials_round,
    "registry": registry_round,
}
