"""Invariants of the measure and of the pipeline, as hypothesis properties.

* Relabelling events <-> non-events (``StudyTable.complemented``) negates
  every per-study theta-hat exactly, keeps its within-study variance, and
  negates the pooled DL and ML effect with tau unchanged.
* Row order and the ``--control-first`` column order do not change a bit.
* At the default zero-correction, edge tables (k = 2, all-zero and
  single-event arms, 500k-per-arm trials) either fit, with finite pooled
  values, or raise ``GrrrError``, under every model and variance engine.

All examples are derandomized, so the suite is reproducible.
"""

import math
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grrr.cli import AnalysisConfig, main, parse_dataset, run_analysis
from grrr.core import StudyTable
from grrr.errors import GrrrError
from grrr.meta import fit_beta_model, fit_direct_dl, fit_direct_ml, fit_split_lognormal_model
from grrr.variance import VarianceSpec, make_estimate

_MODELS = ("direct-ml", "direct-dl", "beta", "split-lognormal")
_ENGINES = ("exact", "approx", "bootstrap")
_HEADER = "study_id,events_treatment,n_treatment,events_control,n_control\n"

# an arm of at most 80 subjects, its events drawn towards the boundaries
_ARM = st.integers(1, 80).flatmap(lambda n: st.tuples(
    st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(0, n)), st.just(n)))


def _table(arms, sid="s"):
    (e_t, n_t), (e_c, n_c) = arms
    return StudyTable(sid, e_t, n_t, e_c, n_c)


def _tables(draw_arms):
    return [_table(arms, f"s{i}") for i, arms in enumerate(draw_arms)]


_STUDIES = st.lists(st.tuples(_ARM, _ARM), min_size=2, max_size=6)


class TestComplement:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arms=st.tuples(_ARM, _ARM), z=st.sampled_from([0.0, 0.5, 0.1]))
    def test_theta_hat_is_negated_exactly(self, arms, z):
        t = _table(arms)
        spec = VarianceSpec("approx")
        assert (make_estimate(t.complemented(), spec, z).theta_hat
                == -make_estimate(t, spec, z).theta_hat)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(arms=st.tuples(_ARM, _ARM), z=st.sampled_from([0.0, 0.5, 0.1]),
           engine=st.sampled_from(["exact", "approx"]))
    def test_variance_is_kept(self, arms, z, engine):
        t = _table(arms)
        est = make_estimate(t, VarianceSpec(engine), z)
        if t.has_boundary_margin and not est.corrected:
            # a raw boundary table's variance can be pure rounding noise
            # (~1e-45 for 0/156 vs 149/154), so it is not compared
            return
        flipped = make_estimate(t.complemented(), VarianceSpec(engine), z)
        assert flipped.sigma2 == pytest.approx(est.sigma2, rel=1e-9, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(studies=_STUDIES, fit=st.sampled_from([fit_direct_dl, fit_direct_ml]))
    def test_pooled_dl_and_ml_are_negated(self, studies, fit):
        tables = _tables(studies)
        spec = VarianceSpec("exact")
        try:
            base = fit([make_estimate(t, spec, 0.5) for t in tables])
        except GrrrError:
            return
        flipped = fit([make_estimate(t.complemented(), spec, 0.5) for t in tables])
        assert flipped.theta_hat == pytest.approx(-base.theta_hat, abs=1e-12)
        assert flipped.tau_hat == pytest.approx(base.tau_hat, abs=1e-12)


def _bcg():
    return parse_dataset(str(resources.files("grrr.data").joinpath("bcg.csv")))


class TestRowPermutations:
    _BASE = {}

    @classmethod
    def _fit(cls, model, tables):
        if model == "split-lognormal":
            return fit_split_lognormal_model(tables)
        fit = {"direct-dl": fit_direct_dl, "direct-ml": fit_direct_ml,
               "beta": fit_beta_model}[model]
        return fit([make_estimate(t, VarianceSpec("exact"), 0.5) for t in tables])

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(order=st.permutations(range(13)))
    def test_every_fit_field_is_unchanged(self, order):
        tables = _bcg()
        shuffled = [tables[i] for i in order]
        for model in _MODELS:
            if model not in self._BASE:
                self._BASE[model] = self._fit(model, tables)
            assert self._fit(model, shuffled) == self._BASE[model], model


def _csv(tables, control_first=False):
    rows = []
    for t in tables:
        t_arm = (t.events_treatment, t.n_treatment)
        c_arm = (t.events_control, t.n_control)
        counts = (*c_arm, *t_arm) if control_first else (*t_arm, *c_arm)
        rows.append(",".join(map(str, (t.study_id, *counts))) + "\n")
    return _HEADER + "".join(rows)


class TestControlFirst:
    @settings(max_examples=12, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(studies=_STUDIES, model=st.sampled_from(_MODELS))
    def test_swapped_columns_give_the_same_bytes(self, tmp_path, capsysbinary,
                                                 studies, model):
        tables = _tables(studies)
        normal, swapped = tmp_path / "normal.csv", tmp_path / "swapped.csv"
        normal.write_text(_csv(tables), encoding="utf-8")
        swapped.write_text(_csv(tables, control_first=True), encoding="utf-8")
        for command in (["analyze", "--model", model], ["estimate"]):
            flags = ["--format", "csv", "--variance", "approx"]
            code = main([*command, "--input", str(normal), *flags])
            out = capsysbinary.readouterr().out
            assert main([*command, "--input", str(swapped), "--control-first",
                         *flags]) == code
            assert capsysbinary.readouterr().out == out


# edge arms: all-zero, single-event, all-event and 500k-per-arm
_EDGE_ARM = st.one_of(
    st.integers(1, 60).map(lambda n: (0, n)),
    st.integers(1, 60).map(lambda n: (1, n)),
    st.integers(1, 60).map(lambda n: (n, n)),
    st.sampled_from([(135_000, 500_000), (150_000, 500_000), (0, 500_000),
                     (1, 500_000)]),
    _ARM,
)


class TestEdgeTables:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(studies=st.lists(st.tuples(_EDGE_ARM, _EDGE_ARM), min_size=2, max_size=4),
           model=st.sampled_from(_MODELS), engine=st.sampled_from(_ENGINES))
    def test_fit_or_grrr_error(self, studies, model, engine):
        config = AnalysisConfig(model=model, variance=engine, bootstrap_reps=1000)
        try:
            report = run_analysis(config, _tables(studies))
        except GrrrError:
            return
        fit = report.fit
        for value in (fit.theta_hat, fit.se_theta, fit.tau_hat):
            assert not math.isnan(value)
