"""Command-line front end: CSV ingestion, model dispatch, report emission.

Subcommands:

* ``grrr analyze``  — full meta-analysis (pooled fit + per-study records).
* ``grrr estimate`` — per-study estimates and CIs only, no pooling.
* ``grrr convert``  — odds ratio (with optional CI) to the GRRR scale.

All data goes to standard output (JSON or CSV, byte-stable for fixed input
and flags); diagnostics go to standard error. Exit status is 0 only when
parsing, fitting, and convergence all succeed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import StudyTable, odds_ratio_to_theta
from .distribution import SplitLognormalApprox, confidence_interval
from .errors import DatasetError, DomainError, GrrrError
from .kernels import std_normal_quantile
from .meta import (MetaFit, fit_beta_model, fit_direct_dl, fit_direct_ml,
                   fit_split_lognormal_model)
from .variance import VarianceSpec, make_estimate

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "parse_dataset",
    "run_analysis",
    "render_plain_language",
    "emit_report",
    "convert_mode",
    "main",
]

_HEADER = ["study_id", "events_treatment", "n_treatment",
           "events_control", "n_control"]
_MODELS = ("direct-ml", "direct-dl", "beta", "split-lognormal")


@dataclass(frozen=True)
class AnalysisConfig:
    model: str = "direct-ml"
    variance: str = "exact"
    zero_correction: float = 0.5
    bootstrap_reps: int = 100_000
    seed: int = 0
    alpha: float = 0.05
    event_is_harm: bool = True

    def __post_init__(self):
        if self.model not in _MODELS:
            raise DomainError(f"unknown model {self.model!r}")
        VarianceSpec(self.variance, self.bootstrap_reps, self.seed)   # checks the three
        if not (self.zero_correction >= 0.0 and math.isfinite(self.zero_correction)):
            raise DomainError("zero_correction must be a finite value >= 0")
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class StudyRecord:
    study_id: str
    theta_hat: float
    sigma2: float
    ci_lower: Optional[float]
    ci_upper: Optional[float]
    ci_note: Optional[str]
    used: bool
    discard_reason: Optional[str]


@dataclass(frozen=True)
class AnalysisReport:
    fit: MetaFit
    per_study: tuple
    summary_text: str
    dataset_hash: str
    alpha: float
    pooled_ci: tuple

    def __post_init__(self):
        discarded = sum(1 for r in self.per_study if not r.used)
        if len(self.per_study) != self.fit.n_studies_used + discarded:
            raise DomainError("per-study record count does not tally")


def _read_dataset(path, swap_arms: bool) -> tuple[list[StudyTable], str]:
    """``parse_dataset`` of a path, and the SHA-256 of the bytes parsed. The
    file is read once, so a pipe hashes what was parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"line {lineno}: not UTF-8 text") from None
    return (parse_dataset(io.StringIO(text, newline=""), swap_arms),
            hashlib.sha256(data).hexdigest())


def parse_dataset(source, swap_arms: bool = False) -> list[StudyTable]:
    """Read study tables from a CSV path or text stream.

    The header must be exactly ``study_id,events_treatment,n_treatment,
    events_control,n_control``. With ``swap_arms`` the two count pairs are
    interpreted in the opposite order (control first). A path is read as
    UTF-8, with or without a byte-order mark. Counts are ASCII decimal
    digits. Errors carry the 1-based line number of the offending row.
    """
    if isinstance(source, (str, os.PathLike)):
        return _read_dataset(source, swap_arms)[0]
    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetError("no studies: input is empty") from None
    if [h.strip() for h in header] != _HEADER:
        raise DatasetError(
            f"line 1: bad header {','.join(header)!r}; "
            f"expected {','.join(_HEADER)!r}")

    tables = []
    seen = set()
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            raise DatasetError(f"line {lineno}: expected 5 fields, got {len(row)}")
        study_id = row[0].strip()
        if not study_id:
            raise DatasetError(f"line {lineno}: empty study_id")
        if study_id in seen:
            raise DatasetError(f"line {lineno}: duplicate study_id {study_id!r}")
        seen.add(study_id)
        counts = []
        for name, cell in zip(_HEADER[1:], row[1:]):
            text = cell.strip()
            # int() would also take "1_0", "+5" and non-ASCII digits
            if not (text.isascii() and text.isdigit()):
                raise DatasetError(
                    f"line {lineno}: {name} must be a non-negative integer, got {text!r}")
            counts.append(int(text))
        et, nt, ec, nc = counts
        if swap_arms:
            et, nt, ec, nc = ec, nc, et, nt
        try:
            tables.append(StudyTable(study_id, et, nt, ec, nc))
        except DatasetError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from None
    if not tables:
        raise DatasetError("no studies: file contains a header but no rows")
    return tables


def _study_records(config: AnalysisConfig, tables: Sequence[StudyTable]):
    """Per-study estimates and records: theta-hat, its within-study
    variance, and its split-lognormal CI, which is (None, None) with a note
    when the table needs a zero-correction that was not granted."""
    estimates = [
        make_estimate(t, VarianceSpec(config.variance, config.bootstrap_reps,
                                      config.seed + i),
                      zero_correction=config.zero_correction)
        for i, t in enumerate(tables)
    ]
    records = []
    for table, est in zip(tables, estimates):
        used = est.informative
        reason = None if used else ("double-degenerate table "
                                    "(no events or all events in both arms)")
        try:
            approx = SplitLognormalApprox.from_table(table, config.zero_correction)
        except DomainError:
            lo = hi = None
            note = "zero margin; rerun with --zero-correction > 0"
        else:
            lo, hi = confidence_interval(est.theta_hat, approx, config.alpha)
            note = None
        records.append(StudyRecord(table.study_id, est.theta_hat, est.sigma2,
                                   lo, hi, note, used, reason))
    return estimates, records


def _pooled_ci(fit: MetaFit, alpha: float) -> tuple:
    """Normal-approximation interval theta-hat +/- z se, clipped to [-1, 1]."""
    z = std_normal_quantile(1.0 - alpha / 2.0)
    return (max(-1.0, fit.theta_hat - z * fit.se_theta),
            min(1.0, fit.theta_hat + z * fit.se_theta))


def run_analysis(config: AnalysisConfig, tables: Sequence[StudyTable],
                 dataset_hash: str = "") -> AnalysisReport:
    """Dispatch to the selected fitter and assemble the report.

    The split-lognormal model ignores the variance flag (its likelihood
    carries its own dispersion); per-study variances are still reported
    with the selected engine. The pooled CI is the normal-approximation
    interval theta-hat +/- z se, clipped to [-1, 1].
    """
    tables = list(tables)
    if len(tables) < 2:
        raise DomainError(f"need at least 2 studies, got {len(tables)}")

    estimates, records = _study_records(config, tables)
    if config.model == "direct-ml":
        fit = fit_direct_ml(estimates)
    elif config.model == "direct-dl":
        fit = fit_direct_dl(estimates)
    elif config.model == "beta":
        fit = fit_beta_model(estimates)
    else:
        fit = fit_split_lognormal_model(tables, config.zero_correction)

    pooled_ci = _pooled_ci(fit, config.alpha)
    summary = render_plain_language(fit, pooled_ci, config.event_is_harm)
    return AnalysisReport(fit=fit, per_study=tuple(records),
                          summary_text=summary, dataset_hash=dataset_hash,
                          alpha=config.alpha, pooled_ci=pooled_ci)


def render_plain_language(fit: MetaFit, ci: tuple,
                          event_is_harm: bool = True) -> str:
    """Lay-audience sentence for a pooled fit and its interval ``ci``.

    Percentages are the rounded magnitude of theta; the CI clause uses the
    same transform applied to both interval ends.
    """
    theta = fit.theta_hat
    if theta == 0.0:
        return ("There is no estimated difference between the treated and "
                "untreated in the probability of the event.")
    if theta < 0.0:
        pct = round(-100.0 * theta)
        lo, hi = sorted((round(-100.0 * ci[1]), round(-100.0 * ci[0])))
        text = (f"An estimated {pct}% of those who experience the event "
                f"without treatment would avoid it under treatment; allowing "
                f"for uncertainty, this percentage could in fact be between "
                f"around {lo}%-{hi}%.")
        favours = "treatment" if event_is_harm else "control"
    else:
        pct = round(100.0 * theta)
        lo, hi = sorted((round(100.0 * ci[0]), round(100.0 * ci[1])))
        text = (f"A further {pct}% of those who would not experience the "
                f"event without treatment would experience it under "
                f"treatment; allowing for uncertainty, this percentage could "
                f"be between around {lo}%-{hi}%.")
        favours = "control" if event_is_harm else "treatment"
    return text + f" On balance this favours the {favours}."


def _cell(x):
    """CSV cell: empty for None, repr for floats (shortest round-trip, so
    reparsing is exact)."""
    return "" if x is None else (repr(x) if isinstance(x, float) else x)


def _json_bytes(obj) -> bytes:
    """The one JSON writer: two-space indent, keys in insertion order."""
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _csv_bytes(header, rows) -> bytes:
    """The one CSV writer: a header and rows, every cell through ``_cell``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(x) for x in row] for row in rows)
    return buf.getvalue().encode("utf-8")


def _study_fields(r: StudyRecord) -> dict:
    """The per-study JSON fields that ``analyze`` and ``estimate`` share."""
    return {"study_id": r.study_id, "theta_hat": r.theta_hat, "sigma2": r.sigma2,
            "ci_lower": r.ci_lower, "ci_upper": r.ci_upper, "ci_note": r.ci_note}


def emit_report(report: AnalysisReport, fmt: str = "json",
                model: str = "") -> bytes:
    """Serialize a report. JSON keys are emitted in a fixed documented
    order; CSV is the per-study rows plus one row flagged POOLED. A
    non-empty ``model`` replaces ``fit.method`` as the JSON ``model``: the
    benchmark (``perfbench/run.py``) passes it, the CLI does not."""
    fit = report.fit
    if fmt == "json":
        return _json_bytes({
            "model": fit.method if not model else model,
            "pooled": {
                "theta": fit.theta_hat,
                "se": fit.se_theta,
                "ci_lower": report.pooled_ci[0],
                "ci_upper": report.pooled_ci[1],
            },
            "tau": {"estimate": fit.tau_hat, "se": fit.se_tau},
            "i_squared": fit.i_squared,
            "studies": [{**_study_fields(r), "used": r.used,
                         "discard_reason": r.discard_reason}
                        for r in report.per_study],
            "summary": report.summary_text,
            "alpha": report.alpha,
            "loglik": fit.loglik,
            "n_studies_used": fit.n_studies_used,
            "converged": fit.converged,
            "dataset_sha256": report.dataset_hash,
        })
    if fmt == "csv":
        rows = [[r.study_id, r.theta_hat, math.sqrt(r.sigma2), r.sigma2, r.ci_lower,
                 r.ci_upper, "yes" if r.used else "no", r.discard_reason or r.ci_note,
                 None, None]
                for r in report.per_study]
        rows.append(["POOLED", fit.theta_hat, fit.se_theta, None, *report.pooled_ci,
                     "yes", None, fit.tau_hat, fit.i_squared])
        return _csv_bytes(["study_id", "theta", "se", "sigma2", "ci_lower", "ci_upper",
                           "used", "note", "tau", "i_squared"], rows)
    raise DomainError(f"unknown output format {fmt!r}")


def convert_mode(or_value: float, or_ci: Optional[tuple],
                 baseline_risk: float):
    """Map an odds ratio (and optional CI) onto the GRRR scale at the given
    baseline risk. The transform is monotone in the odds ratio for fixed
    baseline, so interval endpoints map to interval endpoints."""
    theta = odds_ratio_to_theta(or_value, baseline_risk)
    if or_ci is None:
        return theta, None
    lo, hi = or_ci
    if not (0.0 < lo <= or_value <= hi):
        raise DomainError(
            "odds-ratio CI must satisfy 0 < lower <= OR <= upper")
    return theta, (odds_ratio_to_theta(lo, baseline_risk),
                   odds_ratio_to_theta(hi, baseline_risk))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grrr",
        description="Meta-analysis of 2x2 outcome tables on the generalised "
                    "relative risk reduction scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="CSV dataset path")
        p.add_argument("--variance", choices=VarianceSpec.KINDS, default="exact",
                       help="within-study variance engine (default exact)")
        p.add_argument("--zero-correction", type=float, default=0.5,
                       metavar="C",
                       help="added to all four cells of every table with an "
                            "arm proportion of 0 or 1, under every model "
                            "and by estimate (default 0.5; 0 turns it off)")
        p.add_argument("--bootstrap-reps", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--control-first", action="store_true",
                       help="interpret the two CSV count pairs as control "
                            "arm first, treatment arm second")

    analyze = sub.add_parser("analyze", help="pooled meta-analysis")
    analyze.set_defaults(run=_cmd_analyze)
    add_common(analyze)
    analyze.add_argument("--model", choices=_MODELS, default="direct-ml")
    direction = analyze.add_mutually_exclusive_group()
    direction.add_argument("--harm", dest="event_is_harm",
                           action="store_true", default=True,
                           help="the event is undesirable (default)")
    direction.add_argument("--benefit", dest="event_is_harm",
                           action="store_false",
                           help="the event is desirable")

    estimate = sub.add_parser("estimate", help="per-study estimates only")
    estimate.set_defaults(run=_cmd_estimate)
    add_common(estimate)

    convert = sub.add_parser("convert",
                             help="odds ratio to the GRRR scale")
    convert.set_defaults(run=_cmd_convert)
    convert.add_argument("--or", dest="or_value", type=float, required=True)
    convert.add_argument("--or-ci", metavar="L,U", default=None,
                         help="comma-separated odds-ratio CI bounds")
    convert.add_argument("--baseline-risk", type=float, required=True)
    return parser


def _config(args, **extra) -> AnalysisConfig:
    return AnalysisConfig(variance=args.variance,
                          zero_correction=args.zero_correction,
                          bootstrap_reps=args.bootstrap_reps,
                          seed=args.seed, alpha=args.alpha, **extra)


def _cmd_analyze(args):
    config = _config(args, model=args.model, event_is_harm=args.event_is_harm)
    tables, digest = _read_dataset(args.input, args.control_first)
    report = run_analysis(config, tables, dataset_hash=digest)
    warning = None if report.fit.converged else "warning: fit did not converge"
    return emit_report(report, args.format), warning


def _cmd_estimate(args):
    config = _config(args)
    tables, digest = _read_dataset(args.input, args.control_first)
    estimates, records = _study_records(config, tables)
    if args.format == "json":
        return _json_bytes({
            "studies": [{**_study_fields(r), "degenerate": est.degenerate}
                        for r, est in zip(records, estimates)],
            "alpha": config.alpha,
            "dataset_sha256": digest,
        }), None
    return _csv_bytes(["study_id", "theta_hat", "sigma2", "ci_lower", "ci_upper", "note"],
                      [[r.study_id, r.theta_hat, r.sigma2, r.ci_lower, r.ci_upper,
                        r.ci_note] for r in records]), None


def _cmd_convert(args):
    ci = None
    if args.or_ci is not None:
        parts = args.or_ci.split(",")
        if len(parts) != 2:
            raise DomainError("--or-ci expects two comma-separated numbers")
        try:
            ci = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise DomainError(f"--or-ci expects numbers, got {args.or_ci!r}"
                              ) from None
    theta, theta_ci = convert_mode(args.or_value, ci, args.baseline_risk)
    lo, hi = (None, None) if theta_ci is None else theta_ci
    return _json_bytes({"odds_ratio": args.or_value, "baseline_risk": args.baseline_risk,
                        "theta": theta, "ci_lower": lo, "ci_upper": hi}), None


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand: its report goes to stdout, then its warning, if
    any, to stderr. Exit status 1 on an error or a warning, else 0."""
    args = build_parser().parse_args(argv)
    try:
        out, warning = args.run(args)
    except GrrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    if warning:
        print(warning, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
