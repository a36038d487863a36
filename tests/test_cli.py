"""Command-line layer: parsing, dispatch, rendering, serialization, exit codes."""

import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import grrr.cli
from grrr.cli import (
    AnalysisConfig,
    AnalysisReport,
    convert_mode,
    emit_report,
    main,
    parse_dataset,
    render_plain_language,
    run_analysis,
)
from grrr.core import estimate_theta, odds_ratio_to_theta
from grrr.errors import DatasetError, DomainError
from grrr.meta import MetaFit, fit_direct_dl, fit_direct_ml
from grrr.variance import VarianceSpec, make_estimate

_CSV_HEADER = "study_id,events_treatment,n_treatment,events_control,n_control"

_FOUR_ROWS = [
    "alpha,12,120,30,115",
    "bravo,8,96,20,101",
    "charlie,25,210,40,190",
    "delta,5,49,11,52",
]


def _dataset_text(rows=None):
    return "\n".join([_CSV_HEADER] + (rows if rows is not None else _FOUR_ROWS)) + "\n"


def _write_dataset(tmp_path, rows=None, name="data.csv"):
    path = tmp_path / name
    path.write_text(_dataset_text(rows), encoding="utf-8")
    return str(path)


def _complemented_rows(rows):
    out = []
    for row in rows:
        sid, et, nt, ec, nc = row.split(",")
        out.append(f"{sid},{int(nt) - int(et)},{nt},{int(nc) - int(ec)},{nc}")
    return out


class TestParseDataset:
    def test_single_row_example(self):
        tables = parse_dataset(io.StringIO(_dataset_text(["s1,2,10,5,10"])))
        assert len(tables) == 1
        assert estimate_theta(tables[0]) == pytest.approx(-0.6, abs=1e-15)

    def test_path_and_stream_agree(self, tmp_path):
        path = _write_dataset(tmp_path)
        assert parse_dataset(path) == parse_dataset(io.StringIO(_dataset_text()))

    def test_file_order_preserved(self):
        tables = parse_dataset(io.StringIO(_dataset_text()))
        assert [t.study_id for t in tables] == ["alpha", "bravo", "charlie", "delta"]

    def test_empty_input(self):
        with pytest.raises(DatasetError, match="no studies"):
            parse_dataset(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(DatasetError, match="no studies"):
            parse_dataset(io.StringIO(_CSV_HEADER + "\n"))

    def test_bad_header(self):
        with pytest.raises(DatasetError, match="line 1"):
            parse_dataset(io.StringIO("a,b,c,d,e\ns1,2,10,5,10\n"))

    def test_events_exceed_size_names_row(self):
        text = _dataset_text(["s1,2,10,5,10", "s2,11,10,5,10"])
        with pytest.raises(DatasetError, match="line 3"):
            parse_dataset(io.StringIO(text))

    def test_non_integer_count_names_row_and_field(self):
        text = _dataset_text(["s1,2,10,5,10", "s2,2.5,10,5,10"])
        with pytest.raises(DatasetError, match="line 3.*events_treatment"):
            parse_dataset(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["1_0", "+5", "\u0663\u0660", "-5", "0x1f", " "])
    def test_counts_are_ascii_decimal_digits(self, cell):
        # int() takes the first three: "1_0", "+5" and Arabic-Indic "30"
        text = _dataset_text(["s1,2,10,5,10", f"s2,2,10,{cell},50"])
        with pytest.raises(DatasetError, match="line 3: events_control must be a "
                                               "non-negative integer"):
            parse_dataset(io.StringIO(text))

    def test_padded_ascii_counts_parse(self):
        table = parse_dataset(io.StringIO(_dataset_text(["s1, 012 ,120,30 ,115"])))[0]
        assert (table.events_treatment, table.n_treatment,
                table.events_control, table.n_control) == (12, 120, 30, 115)

    def test_wrong_field_count(self):
        with pytest.raises(DatasetError, match="line 2.*5 fields"):
            parse_dataset(io.StringIO(_dataset_text(["s1,2,10,5"])))

    def test_duplicate_study_id(self):
        text = _dataset_text(["s1,2,10,5,10", "s1,3,10,5,10"])
        with pytest.raises(DatasetError, match="line 3.*duplicate"):
            parse_dataset(io.StringIO(text))

    def test_blank_lines_skipped(self):
        text = _CSV_HEADER + "\ns1,2,10,5,10\n\n  \ns2,3,12,5,11\n"
        assert len(parse_dataset(io.StringIO(text))) == 2

    def test_swap_arms(self):
        normal = parse_dataset(io.StringIO(_dataset_text(["s1,2,10,5,12"])))[0]
        swapped = parse_dataset(io.StringIO(_dataset_text(["s1,5,12,2,10"])),
                                swap_arms=True)[0]
        assert normal == swapped

    def test_bom_tolerated(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _dataset_text(["s1,2,10,5,10"]).encode())
        assert len(parse_dataset(str(path))) == 1


class TestRunAnalysis:
    def test_needs_two_studies(self):
        tables = parse_dataset(io.StringIO(_dataset_text(["s1,2,10,5,10"])))
        with pytest.raises(DomainError, match="at least 2"):
            run_analysis(AnalysisConfig(), tables)

    def test_dispatches_to_direct_ml(self):
        tables = parse_dataset(io.StringIO(_dataset_text()))
        report = run_analysis(AnalysisConfig(model="direct-ml"), tables)
        estimates = [make_estimate(t, VarianceSpec("exact", seed=i),
                                   zero_correction=0.5)
                     for i, t in enumerate(tables)]
        direct = fit_direct_ml(estimates)
        assert report.fit.theta_hat == direct.theta_hat
        assert report.fit.method == "direct-ml"

    def test_dispatches_to_direct_dl(self):
        tables = parse_dataset(io.StringIO(_dataset_text()))
        report = run_analysis(AnalysisConfig(model="direct-dl"), tables)
        assert report.fit.method == "direct-dl"
        assert report.fit.se_tau is None

    def test_record_tally_invariant(self):
        rows = _FOUR_ROWS + ["empty,0,40,0,50"]  # double-degenerate, discarded
        tables = parse_dataset(io.StringIO(_dataset_text(rows)))
        report = run_analysis(AnalysisConfig(model="direct-dl",
                                             zero_correction=0.0), tables)
        assert report.fit.n_studies_used == 4
        assert len(report.per_study) == 5
        discarded = [r for r in report.per_study if not r.used]
        assert len(discarded) == 1
        assert "double-degenerate" in discarded[0].discard_reason

    def test_pooled_ci_brackets_estimate(self):
        tables = parse_dataset(io.StringIO(_dataset_text()))
        report = run_analysis(AnalysisConfig(), tables)
        lo, hi = report.pooled_ci
        assert -1.0 <= lo < report.fit.theta_hat < hi <= 1.0

    def test_per_study_ci_present_for_interior_tables(self):
        tables = parse_dataset(io.StringIO(_dataset_text()))
        report = run_analysis(AnalysisConfig(), tables)
        for rec in report.per_study:
            assert rec.ci_lower is not None and rec.ci_lower < rec.theta_hat
            assert rec.ci_upper is not None and rec.ci_upper > rec.theta_hat
            assert rec.ci_note is None

    def test_zero_margin_ci_note_without_correction(self):
        rows = _FOUR_ROWS + ["zeros,0,40,6,50"]
        tables = parse_dataset(io.StringIO(_dataset_text(rows)))
        report = run_analysis(AnalysisConfig(model="direct-dl",
                                             zero_correction=0.0), tables)
        rec = {r.study_id: r for r in report.per_study}["zeros"]
        assert rec.ci_lower is None
        assert "zero margin" in rec.ci_note

    def test_split_lognormal_ignores_variance_flag(self):
        tables = parse_dataset(io.StringIO(_dataset_text()))
        a = run_analysis(AnalysisConfig(model="split-lognormal",
                                        variance="exact"), tables)
        b = run_analysis(AnalysisConfig(model="split-lognormal",
                                        variance="bootstrap"), tables)
        assert a.fit.theta_hat == b.fit.theta_hat
        assert a.fit.tau_hat == b.fit.tau_hat

    def test_config_validation(self):
        with pytest.raises(DomainError):
            AnalysisConfig(model="anova")
        with pytest.raises(DomainError, match="unknown variance method"):
            AnalysisConfig(variance="magic")
        with pytest.raises(DomainError):
            AnalysisConfig(alpha=1.5)
        with pytest.raises(DomainError):
            AnalysisConfig(zero_correction=-1.0)
        with pytest.raises(DomainError, match="bootstrap replicates"):
            AnalysisConfig(bootstrap_reps=10)
        with pytest.raises(DomainError, match="seed must be a non-negative integer, got -1"):
            AnalysisConfig(seed=-1)


class TestPlainLanguage:
    @staticmethod
    def _fit(theta, se=0.1):
        return MetaFit(method="direct-ml", theta_hat=theta, se_theta=se,
                       tau_hat=0.1, se_tau=0.05, i_squared=None, loglik=-1.0,
                       n_studies_used=3, converged=True)

    def test_negative_effect_sentence(self):
        text = render_plain_language(self._fit(-0.5), ci=(-0.7, -0.3))
        assert "An estimated 50% of those who experience the event" in text
        assert "would avoid it under treatment" in text
        assert "could in fact be between around 30%-70%" in text
        assert "favours the treatment" in text

    def test_positive_effect_sentence(self):
        text = render_plain_language(self._fit(0.2), ci=(0.1, 0.3))
        assert "A further 20% of those who would not experience the event" in text
        assert "could be between around 10%-30%" in text
        assert "favours the control" in text

    def test_zero_effect_sentence(self):
        text = render_plain_language(self._fit(0.0), ci=(-0.2, 0.2))
        assert text == ("There is no estimated difference between the treated "
                        "and untreated in the probability of the event.")

    def test_benefit_direction_flips_favours(self):
        ci = (-0.6, -0.2)
        harm = render_plain_language(self._fit(-0.4), ci=ci, event_is_harm=True)
        benefit = render_plain_language(self._fit(-0.4), ci=ci, event_is_harm=False)
        assert "favours the treatment" in harm
        assert "favours the control" in benefit

    def test_ci_clause_uses_sorted_magnitudes(self):
        # negative thetas: interval ends swap under the sign flip
        text = render_plain_language(self._fit(-0.5), ci=(-0.62, -0.41))
        assert "between around 41%-62%" in text


class TestEmitReport:
    @staticmethod
    def _report():
        tables = parse_dataset(io.StringIO(_dataset_text()))
        return run_analysis(AnalysisConfig(model="direct-dl"), tables,
                            dataset_hash="f" * 64)

    def test_json_schema_and_key_order(self):
        payload = emit_report(self._report(), "json")
        obj = json.loads(payload)
        assert list(obj) == ["model", "pooled", "tau", "i_squared", "studies",
                             "summary", "alpha", "loglik", "n_studies_used",
                             "converged", "dataset_sha256"]
        assert list(obj["pooled"]) == ["theta", "se", "ci_lower", "ci_upper"]
        assert list(obj["tau"]) == ["estimate", "se"]
        assert obj["model"] == "direct-dl"
        assert obj["dataset_sha256"] == "f" * 64
        assert len(obj["studies"]) == 4

    def test_json_numeric_round_trip_exact(self):
        report = self._report()
        obj = json.loads(emit_report(report, "json"))
        assert obj["pooled"]["theta"] == report.fit.theta_hat
        assert obj["pooled"]["se"] == report.fit.se_theta
        assert obj["tau"]["estimate"] == report.fit.tau_hat
        assert obj["i_squared"] == report.fit.i_squared
        for rec, row in zip(report.per_study, obj["studies"]):
            assert row["theta_hat"] == rec.theta_hat
            assert row["sigma2"] == rec.sigma2
            assert row["ci_lower"] == rec.ci_lower

    def test_byte_stable(self):
        a = emit_report(self._report(), "json")
        b = emit_report(self._report(), "json")
        assert a == b

    def test_csv_pooled_row(self):
        lines = emit_report(self._report(), "csv").decode().splitlines()
        assert lines[0].startswith("study_id,theta,se,sigma2")
        assert len(lines) == 6  # header + 4 studies + pooled
        assert lines[-1].startswith("POOLED,")

    def test_csv_numeric_cells_reparse_exactly(self):
        report = self._report()
        lines = emit_report(report, "csv").decode().splitlines()
        pooled = lines[-1].split(",")
        assert float(pooled[1]) == report.fit.theta_hat
        assert float(pooled[2]) == report.fit.se_theta

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit_report(self._report(), "xml")


class TestConvertMode:
    def test_null_or(self):
        theta, ci = convert_mode(1.0, (1.0, 1.0), 0.4)
        assert theta == 0.0
        assert ci == (0.0, 0.0)

    def test_documented_example(self):
        theta, ci = convert_mode(3.0, (2.0, 4.5), 0.5)
        assert theta == pytest.approx(0.5, abs=1e-12)
        assert ci[0] == pytest.approx(odds_ratio_to_theta(2.0, 0.5), abs=1e-15)
        assert ci[1] == pytest.approx(odds_ratio_to_theta(4.5, 0.5), abs=1e-15)

    def test_endpoints_stay_ordered(self):
        for or_value, lo, hi, p in [(0.5, 0.2, 0.9, 0.3), (2.0, 1.1, 3.7, 0.7),
                                    (1.0, 0.5, 2.0, 0.5)]:
            theta, ci = convert_mode(or_value, (lo, hi), p)
            assert ci[0] <= theta <= ci[1]

    def test_without_ci(self):
        theta, ci = convert_mode(2.0, None, 0.3)
        assert ci is None
        assert theta == pytest.approx(odds_ratio_to_theta(2.0, 0.3), abs=1e-15)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            convert_mode(3.0, (4.0, 5.0), 0.5)  # OR below its own lower bound
        with pytest.raises(DomainError):
            convert_mode(3.0, (0.0, 5.0), 0.5)


class TestMainAnalyze:
    def test_json_end_to_end(self, tmp_path, capsysbinary):
        path = _write_dataset(tmp_path)
        code = main(["analyze", "--input", path, "--model", "direct-dl"])
        out = capsysbinary.readouterr().out
        assert code == 0
        obj = json.loads(out)
        assert obj["model"] == "direct-dl"
        assert obj["n_studies_used"] == 4
        assert obj["converged"] is True
        assert len(obj["dataset_sha256"]) == 64

    def test_byte_identical_reruns(self, tmp_path, capsysbinary):
        path = _write_dataset(tmp_path)
        argv = ["analyze", "--input", path, "--model", "direct-ml",
                "--seed", "3"]
        assert main(argv) == 0
        first = capsysbinary.readouterr().out
        assert main(argv) == 0
        second = capsysbinary.readouterr().out
        assert first == second

    def test_csv_output(self, tmp_path, capsysbinary):
        path = _write_dataset(tmp_path)
        code = main(["analyze", "--input", path, "--model", "direct-dl",
                     "--format", "csv"])
        out = capsysbinary.readouterr().out.decode()
        assert code == 0
        assert out.splitlines()[-1].startswith("POOLED,")

    def test_complementing_events_negates_thetas(self, tmp_path, capsysbinary):
        # swap the meaning of event and non-event in every cell: every theta
        # changes sign, every spread statistic is preserved (1e-8)
        for model in ("direct-dl", "direct-ml"):
            path_a = _write_dataset(tmp_path, name=f"a_{model}.csv")
            path_b = tmp_path / f"b_{model}.csv"
            path_b.write_text(
                _dataset_text(_complemented_rows(_FOUR_ROWS)), encoding="utf-8")
            assert main(["analyze", "--input", path_a, "--model", model]) == 0
            obj_a = json.loads(capsysbinary.readouterr().out)
            assert main(["analyze", "--input", str(path_b), "--model", model]) == 0
            obj_b = json.loads(capsysbinary.readouterr().out)

            assert obj_a["pooled"]["theta"] == pytest.approx(
                -obj_b["pooled"]["theta"], abs=1e-8)
            assert obj_a["pooled"]["se"] == pytest.approx(
                obj_b["pooled"]["se"], abs=1e-8)
            assert obj_a["tau"]["estimate"] == pytest.approx(
                obj_b["tau"]["estimate"], abs=1e-8)
            if obj_a["i_squared"] is not None:
                assert obj_a["i_squared"] == pytest.approx(
                    obj_b["i_squared"], abs=1e-6)
            for ra, rb in zip(obj_a["studies"], obj_b["studies"]):
                assert ra["theta_hat"] == pytest.approx(-rb["theta_hat"],
                                                        abs=1e-8)
                assert ra["sigma2"] == pytest.approx(rb["sigma2"], abs=1e-10)

    def test_control_first_flag(self, tmp_path, capsysbinary):
        rows_swapped = []
        for row in _FOUR_ROWS:
            sid, et, nt, ec, nc = row.split(",")
            rows_swapped.append(f"{sid},{ec},{nc},{et},{nt}")
        path_a = _write_dataset(tmp_path, name="normal.csv")
        path_b = tmp_path / "swapped.csv"
        path_b.write_text(_dataset_text(rows_swapped), encoding="utf-8")
        assert main(["analyze", "--input", path_a, "--model", "direct-dl"]) == 0
        obj_a = json.loads(capsysbinary.readouterr().out)
        assert main(["analyze", "--input", str(path_b), "--model", "direct-dl",
                     "--control-first"]) == 0
        obj_b = json.loads(capsysbinary.readouterr().out)
        assert obj_a["pooled"] == obj_b["pooled"]

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nonsense\n", encoding="utf-8")
        code = main(["analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_split_model_needs_scales_of_every_study(self, tmp_path, capsys):
        # a zero arm has no split-lognormal scales without a zero-correction
        path = _write_dataset(tmp_path, _FOUR_ROWS + ["echo,0,40,8,45"])
        code = main(["analyze", "--input", path, "--model", "split-lognormal",
                     "--zero-correction", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error: echo: boundary proportion with "
                                "zero_correction=0; delta-method parameters "
                                "undefined\n")
        assert captured.out == ""

    @pytest.mark.parametrize("model", ["direct-dl", "direct-ml"])
    @pytest.mark.parametrize("variance", ["exact", "approx"])
    def test_swamping_weight_is_one_error_line(self, tmp_path, capsys, model, variance):
        # uncorrected, 0/156 vs 149/154 has sigma^2 ~ 2e-45, and Cochran's C
        # of the three studies rounds to 0
        path = _write_dataset(tmp_path, ["swamp,0,156,149,154", "bravo,12,120,30,115",
                                         "charlie,8,96,20,101"])
        code = main(["analyze", "--input", path, "--model", model, "--variance", variance,
                     "--zero-correction", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "Cochran's C" in captured.err
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_non_utf8_input_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(_dataset_text(_FOUR_ROWS + ["M\u00fcller,3,30,6,31"])
                         .encode("latin-1"))
        code = main(["analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: line 6: not UTF-8 text\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_negative_seed_fails_before_the_input_is_read(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "missing.csv"), "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == ""

    def test_unconverged_fit_warns_and_exits_1(self, tmp_path, capsysbinary, monkeypatch):
        def unconverged(estimates):
            return dataclasses.replace(fit_direct_dl(estimates), converged=False)

        monkeypatch.setattr(grrr.cli, "fit_direct_dl", unconverged)
        code = main(["analyze", "--input", _write_dataset(tmp_path), "--model", "direct-dl"])
        captured = capsysbinary.readouterr()
        assert code == 1
        assert captured.err == b"warning: fit did not converge\n"
        report = json.loads(captured.out)
        assert report["converged"] is False
        assert report["model"] == "direct-dl"
        assert report["n_studies_used"] == 4 and len(report["studies"]) == 4

    def test_unconverged_report_precedes_its_warning(self, tmp_path, monkeypatch):
        # stdout and stderr into one sink, as a merged 2>&1 stream
        class Sink:
            def __init__(self):
                self.buffer = io.BytesIO()

            def write(self, text):
                return self.buffer.write(text.encode("utf-8"))

        def unconverged(estimates):
            return dataclasses.replace(fit_direct_dl(estimates), converged=False)

        monkeypatch.setattr(grrr.cli, "fit_direct_dl", unconverged)
        monkeypatch.setattr(sys, "stdout", Sink())
        monkeypatch.setattr(sys, "stderr", sys.stdout)
        code = main(["analyze", "--input", _write_dataset(tmp_path), "--model", "direct-dl"])
        merged, warning = sys.stdout.buffer.getvalue(), b"warning: fit did not converge\n"
        monkeypatch.undo()
        assert code == 1
        assert merged.endswith(b"}\n" + warning)
        assert json.loads(merged[:-len(warning)])["converged"] is False

    def test_zero_variance_refusal_names_a_zero_correction(self, tmp_path, capsys):
        # the bootstrap draws no spread for 0/40 at seed 1 without a
        # zero-correction; only a zero-correction > 0 always mends that
        path = _write_dataset(tmp_path, ["zero,0,40,6,50", "bravo,12,120,30,115"])
        code = main(["analyze", "--input", path, "--model", "direct-dl",
                     "--variance", "bootstrap", "--bootstrap-reps", "1000",
                     "--zero-correction", "0", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "zero within-study variance" in captured.err
        assert "zero-correction > 0" in captured.err
        assert "bootstrap" not in captured.err
        assert captured.out == ""

    def test_missing_file_exit_code(self, capsys):
        code = main(["analyze", "--input", "/does/not/exist.csv"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")
        assert "cannot read" in captured.err
        assert captured.out == ""


class TestMainEstimate:
    def test_json(self, tmp_path, capsysbinary):
        path = _write_dataset(tmp_path)
        code = main(["estimate", "--input", path])
        out = capsysbinary.readouterr().out
        assert code == 0
        obj = json.loads(out)
        assert [s["study_id"] for s in obj["studies"]] == [
            "alpha", "bravo", "charlie", "delta"]
        for s in obj["studies"]:
            assert s["ci_lower"] < s["theta_hat"] < s["ci_upper"]

    def test_csv(self, tmp_path, capsysbinary):
        path = _write_dataset(tmp_path)
        code = main(["estimate", "--input", path, "--format", "csv"])
        out = capsysbinary.readouterr().out.decode()
        assert code == 0
        assert out.splitlines()[0] == ("study_id,theta_hat,sigma2,ci_lower,"
                                       "ci_upper,note")
        assert len(out.splitlines()) == 5

    def test_negative_zero_correction_rejected(self, tmp_path, capsys):
        # validated as for analyze, not answered with every CI dropped
        path = _write_dataset(tmp_path)
        assert main(["estimate", "--input", path, "--zero-correction", "-1"]) == 1
        assert "zero_correction" in capsys.readouterr().err


class TestDatasetHash:
    @pytest.mark.parametrize("command", ["analyze", "estimate"])
    def test_file_hash_is_sha256_of_its_bytes(self, tmp_path, capsysbinary, command):
        # a byte-order mark and CRLF line ends: the hash is of the raw bytes
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + _dataset_text().replace("\n", "\r\n").encode())
        assert main([command, "--input", str(path)]) == 0
        obj = json.loads(capsysbinary.readouterr().out)
        assert obj["dataset_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    @pytest.mark.parametrize("command", ["analyze", "estimate"])
    def test_piped_input_hash_is_sha256_of_the_piped_bytes(self, command):
        data = _dataset_text().encode("utf-8")
        src = str(Path(grrr.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "grrr", command, "--input", "/dev/stdin"],
                              input=data, capture_output=True, env=env, check=True)
        assert json.loads(proc.stdout)["dataset_sha256"] == hashlib.sha256(data).hexdigest()


class TestMainConvert:
    def test_with_ci(self, capsysbinary):
        code = main(["convert", "--or", "3", "--or-ci", "2,4.5",
                     "--baseline-risk", "0.5"])
        out = json.loads(capsysbinary.readouterr().out)
        assert code == 0
        assert out["theta"] == pytest.approx(0.5, abs=1e-12)
        assert out["ci_lower"] == pytest.approx(odds_ratio_to_theta(2.0, 0.5))
        assert out["ci_upper"] == pytest.approx(odds_ratio_to_theta(4.5, 0.5))

    def test_without_ci(self, capsysbinary):
        code = main(["convert", "--or", "1", "--baseline-risk", "0.4"])
        out = json.loads(capsysbinary.readouterr().out)
        assert code == 0
        assert out["theta"] == 0.0
        assert out["ci_lower"] is None

    def test_malformed_ci(self, capsys):
        code = main(["convert", "--or", "3", "--or-ci", "2;4.5",
                     "--baseline-risk", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: --or-ci expects two comma-separated numbers\n"
        assert captured.out == ""

    def test_zero_odds_ratio_is_one_error_line(self, capsys):
        code = main(["convert", "--or", "0", "--baseline-risk", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""


_ZERO_CELL_ROWS = _FOUR_ROWS + [
    "single_zero,0,40,6,50",     # treatment arm without events
    "double_zero,0,40,0,50",     # no events in either arm
    "all_events,30,30,28,30",    # every treated patient has the event
]


class TestEstimateMatchesAnalyze:
    @pytest.mark.parametrize("variance", ["exact", "approx", "bootstrap"])
    @pytest.mark.parametrize("zero_correction", ["0", "0.5"])
    @pytest.mark.parametrize("dataset", ["bcg", "zero_cells"])
    def test_per_study_records_agree(self, tmp_path, capsysbinary, dataset,
                                     variance, zero_correction):
        if dataset == "bcg":
            path = str(resources.files("grrr.data").joinpath("bcg.csv"))
        else:
            path = _write_dataset(tmp_path, _ZERO_CELL_ROWS)
        flags = ["--input", path, "--variance", variance, "--zero-correction",
                 zero_correction, "--bootstrap-reps", "1000", "--seed", "5"]
        assert main(["estimate", *flags]) == 0
        estimated = json.loads(capsysbinary.readouterr().out)["studies"]
        assert main(["analyze", "--model", "direct-dl", *flags]) == 0
        analysed = json.loads(capsysbinary.readouterr().out)["studies"]
        fields = ("study_id", "theta_hat", "sigma2", "ci_lower", "ci_upper",
                  "ci_note")
        assert ([[s[f] for f in fields] for s in estimated]
                == [[s[f] for f in fields] for s in analysed])


class TestMegaTrial:
    """A 500k-per-arm trial next to streptokinase: the exact variance has no
    size limit, so both commands answer it."""

    @pytest.mark.parametrize("command", [
        ["analyze", "--model", "direct-ml", "--variance", "exact"],
        ["estimate", "--variance", "exact"],
    ])
    def test_exact_variance_answers(self, tmp_path, capsysbinary, command):
        rows = resources.files("grrr.data").joinpath(
            "streptokinase.csv").read_text(encoding="utf-8").splitlines()[1:]
        path = _write_dataset(tmp_path, rows + ["MEGA-500k,135000,500000,150000,500000"])
        assert main([*command, "--input", path]) == 0
        studies = json.loads(capsysbinary.readouterr().out)["studies"]
        assert len(studies) == len(rows) + 1
        mega = studies[-1]
        assert mega["study_id"] == "MEGA-500k"
        assert math.isfinite(mega["sigma2"]) and mega["sigma2"] > 0.0


class TestReadmeSchema:
    def test_json_example_keys_match_emitted_report(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("### JSON schema (`analyze`)", 1)[1]
        example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])

        tables = parse_dataset(
            str(resources.files("grrr.data").joinpath("bcg.csv")))
        report = run_analysis(AnalysisConfig(), tables)
        emitted = json.loads(emit_report(report, "json", model="direct-ml"))

        assert list(example) == list(emitted)
        for key in ("pooled", "tau"):
            assert list(example[key]) == list(emitted[key])
        assert [list(s) for s in example["studies"]] == [
            list(s) for s in emitted["studies"][:len(example["studies"])]]
