"""The benchmark's tracer (perfbench/tracing.py) wraps grrr functions by the
names grrr.cli and grrr.meta look them up under. These tests run an analysis
under that tracer, so renaming or bypassing a wrapped name fails here rather
than silently emptying a per-layer metric of the traced benchmark."""

import importlib.util
import os
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest

import grrr.cli as cli
import grrr.meta as meta
from grrr.cli import AnalysisConfig, emit_report, parse_dataset, run_analysis

_TRACED = {
    cli: ("make_estimate", "confidence_interval", "SplitLognormalApprox",
          "fit_direct_ml", "fit_direct_dl", "fit_beta_model",
          "fit_split_lognormal_model"),
    meta: ("integrate_vector", "minimize", "log_beta", "make_estimate",
           "split_loglik"),
}


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report_bytes(model):
    tables = parse_dataset(str(resources.files("grrr.data").joinpath("bcg.csv")))
    report = run_analysis(AnalysisConfig(model=model), tables)
    return emit_report(report, "json", model=model), len(tables)


@pytest.mark.parametrize("model", ["direct-dl", "beta", "split-lognormal"])
def test_traced_analysis_is_unchanged_and_counted(model):
    originals = {(mod, name): getattr(mod, name)
                 for mod, names in _TRACED.items() for name in names}
    untraced, k = _report_bytes(model)

    tracer = _load_tracing().Tracer()
    with tracer.patched():
        traced, _ = _report_bytes(model)
        tracer.flush()

    assert traced == untraced
    counts = Counter()
    for per_op in tracer.counts.values():
        counts.update(per_op)
    assert counts["distribution.cis"] == k
    # the split-lognormal fit makes its own approx estimate of each study
    assert counts["variance.estimates"] == (2 * k if model == "split-lognormal" else k)
    spans = {rec[3] for rec in tracer.spans}
    assert {"meta.fit", "distribution.from_table",
            "distribution.confidence_interval", "variance.estimate"} <= spans
    if model == "beta":
        assert counts["meta.minimize_runs"] > 0
        assert counts["kernels.log_beta_calls"] > 0
    if model == "split-lognormal":
        assert counts["meta.minimize_runs"] > 0
        assert counts["kernels.quad_calls"] > 0
        assert counts["kernels.quad_panels"] > 0
        assert counts["kernels.quad_unconverged"] == 0
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())


def test_import_times_finds_scipy_optimize_under_grrr_cli():
    """The traced benchmark reads import.scipy_optimize_s from ``python -X
    importtime -c "import grrr.cli"`` and fails the whole run when that
    import no longer pulls in scipy.optimize. This test goes once the
    benchmark times its imports itself (ROADMAP direction 2)."""
    tracing = _load_tracing()
    tracing.IMPORT_STARTS = 1
    src = Path(cli.__file__).resolve().parents[1]
    times = tracing.import_times(dict(os.environ, PYTHONPATH=str(src)))
    assert times["import.grrr_cli_s"] > 0.0
    assert times["import.scipy_optimize_s"] > 0.0
