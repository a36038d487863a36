"""Each output check passes on the program's real outputs and rejects a
deliberately wrong one.

    python3 -m pytest perfbench/test_checks.py -q

The fixtures run the program once per input (~15 s in all, most of it the
two split-lognormal fits); the split-lognormal checks add a few mpmath
integrations of ~2-4 s each.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import ROUNDS  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return run.import_program()


def _outputs(cli, analysis):
    outputs, restarts = run.run_op(cli, analysis, run.NULL)
    return outputs, restarts, checks.parse_counts(analysis.csv)


@pytest.fixture(scope="module")
def registry(cli):
    return ROUNDS["registry"](0)[0], *_outputs(cli, ROUNDS["registry"](0)[0])


@pytest.fixture(scope="module")
def large(cli):
    analysis = ROUNDS["large-trials"](0)[0]
    return analysis, *_outputs(cli, analysis)


@pytest.fixture(scope="module")
def split(cli):
    return {a.name: (a, *_outputs(cli, a)) for a in ROUNDS["split-lognormal"](0)}


def _json(outputs, model):
    return json.loads(outputs[model, "json"])


def _rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


def _moved(report, path, change):
    out = copy.deepcopy(report)
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    node[last] = change(node[last])
    return out


def _sigma2_times(report, factor, index=0):
    out = copy.deepcopy(report)
    out["studies"][index]["sigma2"] *= factor
    return out


# -- every workload -----------------------------------------------------------

def test_all_checks_pass_on_real_outputs(registry, large, split):
    for analysis, outputs, restarts, _ in (registry, large, *split.values()):
        assert checks.check_outputs(analysis, outputs, restarts) > 0


def test_theta_hat_rejects_a_moved_estimate(registry):
    _, outputs, _, rows = registry
    report = _json(outputs, "direct-dl")
    bad = copy.deepcopy(report)
    bad["studies"][3]["theta_hat"] += 1e-9
    _rejects(checks.check_theta_hats, bad, rows)
    dropped = copy.deepcopy(report)
    dropped["studies"][0]["used"] = False
    _rejects(checks.check_theta_hats, dropped, rows)


def test_theta_hat_follows_the_zero_correction(registry):
    _, outputs, _, rows = registry
    report = _json(outputs, "direct-ml")
    edge = next(i for i, r in enumerate(rows) if r[0] == "EDGE-zero-treatment")
    assert report["studies"][edge]["theta_hat"] == pytest.approx(0.5 / 41 / (6.5 / 39) - 1, abs=1e-15)


def test_study_ci_rejects_an_interval_missing_theta_hat(large):
    _, outputs, _, _ = large
    report = _json(outputs, "direct-ml")
    s = report["studies"][0]
    _rejects(checks.check_study_cis, _moved(report, ("studies", 0, "ci_lower"),
                                            lambda v: s["theta_hat"] + 1e-6))
    _rejects(checks.check_study_cis, _moved(report, ("studies", 0, "ci_upper"),
                                            lambda v: 1.0 + 1e-9))


def test_pooled_ci_rejects_a_moved_limit(large):
    report = _json(large[1], "direct-ml")
    _rejects(checks.check_pooled_ci, _moved(report, ("pooled", "ci_lower"), lambda v: v + 1e-4))


def test_byte_identity_rejects_differing_reports(cli, monkeypatch):
    analysis = ROUNDS["registry"](0)[0]
    real_emit = cli.emit_report
    calls = []

    def emit(report, fmt="json", model=""):
        calls.append(1)
        out = real_emit(report, fmt, model=model)
        return out + b" " if len(calls) > 6 else out   # second operation differs

    monkeypatch.setattr(cli, "emit_report", emit)
    runner = run.Runner(cli, [analysis])
    runner.run_round(run.NULL)
    assert runner.problems == []
    runner.run_round(run.NULL)
    assert runner.problems == ["registry-0: report bytes differ between operations"]


def test_csv_rejects_a_number_unlike_the_json(registry):
    _, outputs, _, _ = registry
    report = _json(outputs, "beta")
    text = outputs["beta", "csv"].decode()
    lines = text.splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-4)
    _rejects(checks.check_csv_matches_json, "".join(lines[:-1] + [",".join(fields)]).encode(), report)
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) * 1.001)
    _rejects(checks.check_csv_matches_json, "".join([lines[0], ",".join(fields)] + lines[2:]).encode(), report)


# -- large-trials ---------------------------------------------------------------

def test_exact_sigma2_rejects_a_scaled_variance(large):
    _, outputs, _, rows = large
    report = _json(outputs, "direct-ml")
    for index in (0, len(rows) - 1):
        _rejects(checks.check_exact_sigma2, _sigma2_times(report, 1.001, index), rows)


def test_exact_oracle_matches_brute_force():
    for n1, p, n2, q in ((40, 0.3, 55, 0.2), (30, 0.1, 30, 0.1), (17, 0.5, 60, 0.9)):
        pi = stats.binom.pmf(np.arange(n1 + 1), n1, p)
        qj = stats.binom.pmf(np.arange(n2 + 1), n2, q)
        th = np.array([[float(checks.theta_of(checks.Fraction(i, n1), checks.Fraction(j, n2)))
                        for j in range(n2 + 1)] for i in range(n1 + 1)])
        e1 = pi @ th @ qj
        var = pi @ (th * th) @ qj - e1 * e1
        assert checks.exact_mean_var(n1, p, n2, q)[1] == pytest.approx(var, rel=1e-12, abs=1e-15)


def test_ml_rejects_a_moved_pooled_theta_or_shifted_loglik(large):
    report = _json(large[1], "direct-ml")
    _rejects(checks.check_ml, _moved(report, ("pooled", "theta"), lambda v: v + 1e-4))
    _rejects(checks.check_ml, _moved(report, ("loglik",), lambda v: v + 1e-6))


def _ml_report_at(report, tau):
    """A direct-ml report moved to another tau-hat, with theta-hat re-solved
    there and the matching loglik: only the tau score can tell it apart."""
    th, s2 = checks._theta_sigma2(report)
    w = 1.0 / (s2 + tau * tau)
    theta = float(w @ th / w.sum())
    out = copy.deepcopy(report)
    out["pooled"]["theta"], out["tau"]["estimate"] = theta, tau
    out["loglik"] = float(stats.norm.logpdf(th, theta, np.sqrt(s2 + tau * tau)).sum())
    return out


def test_ml_rejects_a_wrong_tau_with_a_consistent_theta(cli, registry):
    # an interior tau-hat of ~0.24 (registry) and of ~0.045 (large-trials,
    # seed 1), each moved by 1%
    small = ROUNDS["large-trials"](1)[0]
    for outputs in (registry[1], _outputs(cli, small)[0]):
        report = _json(outputs, "direct-ml")
        tau = report["tau"]["estimate"]
        assert tau > 0.0
        checks.check_ml(_ml_report_at(report, tau))
        _rejects(checks.check_ml, _ml_report_at(report, tau * 1.01))
        _rejects(checks.check_ml, _ml_report_at(report, tau * 0.99))
    # a boundary tau-hat = 0 where the loglik rises into tau > 0
    _rejects(checks.check_ml, _ml_report_at(_json(registry[1], "direct-ml"), 0.0))


def test_ml_accepts_a_true_boundary(large):
    report = _json(large[1], "direct-ml")
    assert report["tau"]["estimate"] == 0.0
    checks.check_ml(report)


def test_mega_trial_fails_with_the_cell_cap(cli):
    mega = ROUNDS["large-trials"](0)[-1]
    runner = run.Runner(cli, [mega])
    runner.run_round(run.NULL)
    (op,) = runner.ops
    assert not op["ok"] and op["error"].startswith("ResourceLimitError:")


# -- registry -------------------------------------------------------------------

def test_dl_rejects_moved_figures(registry):
    report = _json(registry[1], "direct-dl")
    _rejects(checks.check_dl, _moved(report, ("pooled", "theta"), lambda v: v + 1e-4))
    _rejects(checks.check_dl, _moved(report, ("tau", "estimate"), lambda v: v * 1.001))
    _rejects(checks.check_dl, _moved(report, ("i_squared",), lambda v: v + 1e-6))


def test_approx_sigma2_rejects_a_scaled_variance(registry):
    _, outputs, _, rows = registry
    report = _json(outputs, "beta")
    edge = next(i for i, r in enumerate(rows) if r[0] == "EDGE-double-zero-a")
    for index in (0, edge):
        _rejects(checks.check_approx_sigma2, _sigma2_times(report, 1.001, index), rows)


def test_beta_rejects_a_shifted_loglik_or_moved_theta(registry):
    report = _json(registry[1], "beta")
    _rejects(checks.check_beta, _moved(report, ("loglik",), lambda v: v + 1e-6))
    _rejects(checks.check_beta, _moved(report, ("pooled", "theta"), lambda v: v + 1e-4))
    _rejects(checks.check_beta, _sigma2_times(report, 1.001))


# -- split-lognormal -------------------------------------------------------------

def test_split_loglik_rejects_a_shifted_loglik(split):
    for name in ("bcg", "streptokinase"):
        _, outputs, _, rows = split[name]
        report = _json(outputs, "split-lognormal")
        _rejects(checks.check_split_loglik, _moved(report, ("loglik",), lambda v: v + 1e-6), rows)


def test_split_loglik_rejects_a_moved_pooled_theta(split):
    for name in ("bcg", "streptokinase"):
        _, outputs, _, rows = split[name]
        report = _json(outputs, "split-lognormal")
        _rejects(checks.check_split_loglik,
                 _moved(report, ("pooled", "theta"), lambda v: v + 1e-4), rows)


def test_split_boundary_rejects_a_false_boundary(split):
    # BCG's optimum is interior (tau-hat ~ 0.24): a report claiming tau = 0
    # with the matching common-effect loglik is wrong, and tau = 0.01 beats it
    _, outputs, _, rows = split["bcg"]
    report = _json(outputs, "split-lognormal")
    report["tau"]["estimate"] = 0.0
    report["loglik"] = checks.point_mass_loglik(rows, report["pooled"]["theta"])
    checks.check_split_loglik(report, rows)
    _rejects(checks.check_split_boundary, report, rows)


def test_restart_spread_rejects_a_stray_restart(split):
    _, _, restarts, _ = split["bcg"]
    thetas = list(restarts["split-lognormal"])
    checks.check_restart_spread(thetas)
    thetas[1] += 1e-4
    _rejects(checks.check_restart_spread, thetas)


# -- failed operations ------------------------------------------------------------

def test_an_unexpected_failure_makes_the_run_incorrect(cli, monkeypatch):
    # the beta fit of the second of four registries raises; the other three
    # operations succeed and pass their checks
    real_fit, calls = cli.fit_beta_model, []

    def fit_beta_model(estimates):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("deliberately broken fit")
        return real_fit(estimates)

    monkeypatch.setattr(cli, "fit_beta_model", fit_beta_model)
    result = run.timed_run(cli, "registry", 0, 0.0, trace=False)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["correct"] is False


def test_an_expected_failure_of_another_kind_is_a_problem(cli, monkeypatch):
    def make_estimate(*args, **kw):
        raise MemoryError("deliberately out of memory")

    monkeypatch.setattr(cli, "make_estimate", make_estimate)
    runner = run.Runner(cli, [ROUNDS["large-trials"](0)[-1]])
    runner.run_round(run.NULL)
    assert runner.problems == ["cumulative-mega: unexpected failure: "
                               "MemoryError: deliberately out of memory"]
