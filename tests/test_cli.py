"""Command-line layer: exit codes, output formats and reproducibility.

main() is driven directly so the tests see the real argparse wiring without
spawning subprocesses.
"""
import csv
import json
import math
import os

import numpy as np
import pytest

from photofpt import analytic, field, validation
from photofpt.analytic import mean_fpt_3d, rate_1d, rate_3d
from photofpt.cli import EXIT_OK, EXIT_QUALITY, EXIT_USAGE, main
from photofpt.params import QuadratureError, TruncationError, params_for_intensity
from photofpt.validation import CRITERIA, CheckResult, ValidationReport, run_check

UNIT3_RATE = rate_3d(params_for_intensity(0.0))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rate_dark_point(capsys):
    code, out, _ = run_cli(capsys, "rate")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["x"] == 0.0
    assert payload["rate_1d"] == 1.0
    assert payload["mean_fpt_1d"] == 1.0
    assert payload["rate_3d"] == pytest.approx(UNIT3_RATE, rel=1e-15)
    assert payload["mean_fpt_3d"] == pytest.approx(mean_fpt_3d(params_for_intensity(0.0)))
    # the excess fraction diverges at zero intensity, reported as null
    assert payload["dark_fraction_1d"] is None
    assert payload["dark_fraction_3d"] is None


def test_rate_unit_intensity(capsys):
    code, out, _ = run_cli(capsys, "rate", "--is", "1")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rate_1d"] == pytest.approx(1.0 / math.tanh(1.0), rel=1e-14)
    assert payload["dark_fraction_1d"] == pytest.approx(1.0 / math.tanh(1.0) - 1.0, rel=1e-12)


def test_rate_respects_units(capsys):
    code, out, _ = run_cli(capsys, "rate", "--em", "2", "--sigma", "0.5", "--is", "1.5",
                           "--cross-section", "3")
    payload = json.loads(out)
    p = params_for_intensity(1.5 * 2 / 0.25, e_m=2.0, sigma=0.5, cross_section=3.0)
    assert payload["rate_1d"] == pytest.approx(rate_1d(p), rel=1e-15)


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "rate", "--em", "-1")[0] == EXIT_USAGE
    assert run_cli(capsys, "mc", "--dt", "0.02", "--paths", "200")[0] == EXIT_USAGE
    assert run_cli(capsys, "sweep", "--points", "0")[0] == EXIT_USAGE
    assert run_cli(capsys, "sweep", "--grid", "log", "--x-min", "0")[0] == EXIT_USAGE


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("rate", "--is", "nan"),
    ("rate", "--is", "inf"),
    ("rate", "--em", "nan"),
    ("rate", "--sigma", "inf"),
    ("rate", "--cross-section", "nan"),
    ("rate", "--em", "1e-200"),      # e_m**2/sigma**2 underflows to 0
    ("rate", "--sigma", "1e-200"),   # sigma**2 underflows to 0
    ("rate", "--em", "1e200"),       # e_m**2 overflows
    ("mc", "--is", "nan", "--paths", "100"),
    ("rate", "--is", "1e300", "--em", "1e10"),   # i_s*e_m/sigma**2 overflows
    ("rate", "--em", "1e-100", "--is", "1e300"),  # the mean underflows to 0
    ("mc", "--is", "1e9", "--paths", "100"),     # dt above 0.05 e_m/i_s
])
def test_bad_parameters_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert _one_error_line(err), err


@pytest.mark.parametrize("module, name, error, argv", [
    (analytic, "mean_fpt_3d", TruncationError("double-series tail 1e-3 exceeds tolerance"),
     ("rate",)),
    (field, "sigma_const", QuadratureError("quad: the maximum number of subdivisions\n"
                                           "  has been achieved"),
     ("field", "--points", "2")),
])
def test_series_and_quadrature_errors_exit_3(monkeypatch, capsys, module, name, error, argv):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(module, name, fail)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_QUALITY
    assert _one_error_line(err), err


def _report(**overrides) -> ValidationReport:
    check = dict(cid=12, name="renewal", expected="|z| <= 3", observed="max |z| = 1.00",
                 tolerance="3 standard errors", passed=np.float64(1.0) <= 3.0,
                 source="renewal identity")
    check.update(overrides)
    return ValidationReport(checks=[CheckResult(**check)], seed=1)


def test_validate_out_serialises_numpy_verdicts(tmp_path, monkeypatch, capsys):
    report = _report()
    assert type(report.checks[0].passed) is bool
    monkeypatch.setattr(validation, "run_all", lambda seed, progress: report)
    path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "validate", "--out", str(path))
    assert code == EXIT_OK
    assert json.loads(path.read_text())["checks"][0]["passed"] is True
    assert list(tmp_path.iterdir()) == [path]


def test_out_file_is_written_whole_or_not_at_all(tmp_path, monkeypatch, capsys):
    path = tmp_path / "report.json"
    path.write_text("previous\n")
    # a value JSON cannot hold: refused before any file is touched
    monkeypatch.setattr(validation, "run_all",
                        lambda seed, progress: _report(elapsed_s=math.nan))
    code, _, err = run_cli(capsys, "validate", "--out", str(path))
    assert code == EXIT_USAGE and _one_error_line(err)
    assert path.read_text() == "previous\n"
    # a rename that fails: the temporary file goes, the old file stays
    monkeypatch.setattr(validation, "run_all", lambda seed, progress: _report())

    def no_rename(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", no_rename)
    code, _, err = run_cli(capsys, "validate", "--out", str(path))
    assert code == EXIT_USAGE and _one_error_line(err)
    assert path.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [path]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_sweep_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "sweep", "--x-min", "0", "--x-max", "2",
                         "--points", "5", "--grid", "lin", "--out", str(out))
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert list(rows[0]) == ["i_s", "rate_1d", "rate_3d", "rate_quantum",
                             "dark_fraction_1d", "dark_fraction_3d"]
    xs = [float(r["i_s"]) for r in rows]
    assert xs == sorted(xs)
    # 17 significant digits round-trip doubles exactly
    for r in rows:
        x = float(r["i_s"])
        assert float(r["rate_1d"]) == rate_1d(params_for_intensity(x))
        assert float(r["rate_quantum"]) == x
    assert math.isnan(float(rows[0]["dark_fraction_1d"]))

    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["e_m"] == 1.0
    assert meta["columns"][0] == "i_s"
    assert "timestamp" in meta

    again = tmp_path / "again.csv"
    run_cli(capsys, "sweep", "--x-min", "0", "--x-max", "2",
            "--points", "5", "--grid", "lin", "--out", str(again))
    assert again.read_bytes() == out.read_bytes()


def test_sweep_json_replaces_nan(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--x-min", "0", "--x-max", "2",
                           "--points", "3", "--grid", "lin", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["columns"][0] == "i_s"
    assert payload["rows"][0][4] is None      # dark fraction undefined at x = 0
    assert payload["rows"][1][4] is not None
    assert [r[0] for r in payload["rows"]] == [0.0, 1.0, 2.0]


def test_sweep_single_point_matches_rate(capsys):
    _, sweep_out, _ = run_cli(capsys, "sweep", "--x-min", "1", "--x-max", "1",
                              "--points", "1", "--format", "json")
    _, rate_out, _ = run_cli(capsys, "rate", "--is", "1")
    row = json.loads(sweep_out)["rows"][0]
    rate = json.loads(rate_out)
    assert row[1] == rate["rate_1d"]
    assert row[2] == rate["rate_3d"]


def test_monotone_rate_columns(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--x-min", "0.1", "--x-max", "10",
                        "--points", "7", "--format", "json")
    rows = json.loads(out)["rows"]
    for col in (1, 2, 3):
        vals = [r[col] for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_field_table_and_report(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code, report_out, err = run_cli(capsys, "field", "--x-min", "0", "--x-max", "2",
                                    "--points", "3", "--out", str(out))
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["tau"] for r in rows][0] == "0"
    assert float(rows[0]["g"]) == pytest.approx(1.0 / (18.0 * math.pi), abs=1e-12)
    assert math.isnan(float(rows[0]["g_large"]))

    report = json.loads(report_out)
    assert report["consistent_1e-6"] is True
    assert report["rel_disagreement"] < 1e-6
    assert report["reference_figures"]["quoted constant"] == pytest.approx(2.12e-4)
    assert err == ""


def test_field_report_on_stderr_without_out(capsys):
    code, out, err = run_cli(capsys, "field", "--x-min", "0", "--x-max", "1",
                             "--points", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "tau,g,g_small,g_large"
    assert json.loads(err)["consistent_1e-6"] is True


def test_mc_json_deterministic(capsys):
    args = ("mc", "--dim", "1", "--dt", "0.005", "--paths", "200", "--seed", "99")
    code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["boundary"] == "interval"
    assert payload["analytic_mean"] == 1.0
    for key in ("coarse", "fine", "extrapolated"):
        assert set(payload[key]) == {"mean", "std_err", "n_absorbed", "n_censored",
                                     "censored_fraction", "dt_used"}
    assert payload["fine"]["dt_used"] == 0.0025
    assert abs(payload["z_extrapolated"]) < 4.0
    code2, out2, _ = run_cli(capsys, *args)
    assert json.loads(out2) == payload


def test_mc_sphere_uses_radial_reference(capsys):
    code, out, _ = run_cli(capsys, "mc", "--dim", "3", "--boundary", "sphere",
                           "--dt", "0.005", "--paths", "300", "--seed", "31")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["analytic_mean"] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("photofpt ")


def test_criteria_registry():
    ids = [cid for cid, _, _ in CRITERIA]
    assert ids == list(range(1, 14))
    assert all(name for _, name, _ in CRITERIA)
    assert all(callable(fn) for _, _, fn in CRITERIA)
    with pytest.raises(ValueError):
        run_check(99)


@pytest.mark.parametrize("cid", [4, 6, 10])
def test_fast_checks_pass(cid):
    result = run_check(cid)
    assert result.passed, result.line()
    assert result.elapsed_s >= 0.0
    assert f"[{cid:2d}]" in result.line()


def test_report_rendering():
    ok = CheckResult(cid=1, name="alpha", expected="1", observed="1",
                     tolerance="0.1", passed=True, source="closed form")
    bad = CheckResult(cid=2, name="beta", expected="2", observed="3",
                      tolerance="0.1", passed=False, source="quoted figure")
    report = ValidationReport(checks=[ok, bad], seed=1)
    text = report.render_text()
    assert "PASS" in text and "FAIL" in text
    assert "1/2 checks passed, 1 FAILED" in text
    assert not report.passed
    as_dict = report.to_dict()
    json.dumps(as_dict)
    assert as_dict["seed"] == 1
    assert len(as_dict["checks"]) == 2
