"""Command-line layer: exit codes, output formats and reproducibility.

main() is driven directly so the tests see the real argparse wiring without
spawning subprocesses.
"""
import argparse
import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import stat
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from photofpt import analytic, cli, field, mc, validation
from photofpt.analytic import mean_fpt_3d, rate_1d, rate_3d
from photofpt.cli import EXIT_OK, EXIT_QUALITY, EXIT_USAGE, EXIT_VALIDATION, build_parser, main
from photofpt.mc import MCConfig
from photofpt.params import (DetectorParams, QuadratureError, TruncationError,
                             params_for_intensity)
from photofpt.validation import CRITERIA, CheckResult, ValidationReport, run_check

UNIT3_RATE = rate_3d(params_for_intensity(0.0))
# the truncation orders and tolerances every sweep records
SERIES_METADATA = {"n_images": 30, "kl_max": 60, "abs_tol": 1e-12, "rel_tol": 1e-9}


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


def test_installed_entry_point_runs_a_rate_query(capsys, monkeypatch):
    """The [project.scripts] target that `pip install` wires to `photofpt`,
    called as its console script calls it, on sys.argv."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    module, _, attr = pyproject["project"]["scripts"]["photofpt"].partition(":")
    monkeypatch.setattr(sys, "argv", ["photofpt", "rate", "--is", "2"])
    assert getattr(importlib.import_module(module), attr)() == EXIT_OK
    assert json.loads(capsys.readouterr().out)["x"] == 2.0


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
    ("rate", "--em", "1e-150", "--sigma", "3.5", "--is", "1.25e299"),  # the means, 8e-450
    ("mc", "--is", "1e9", "--paths", "100"),     # dt above 0.05 e_m/i_s
    ("field", "--x-max", "inf", "--points", "3"),
    ("field", "--x-min", "nan", "--points", "2"),
    ("sweep", "--x-max", "inf", "--points", "3"),
    ("rate", "--is", "5e-324"),                      # the excess, about 1/x, overflows
    ("rate", "--is", "1e-320", "--em", "1e-5"),      # i_s > 0, x underflows to 0
    ("sweep", "--x-min", "1e-320", "--points", "2"),
    ("rate", "--em", "2.6e16", "--sigma", "2.6e16", "--is", "1.9e178",
     "--cross-section", "1.9e178"),                  # cross_section/mean overflows
    ("field", "--x-max", "1e300", "--points", "3"),  # g_small overflows
    ("mc", "--em", "1e153", "--sigma", "0.1"),  # the cap 100 e_m**2/sigma**2 overflows
    ("mc", "--dt", "5e-324", "--paths", "100"),  # dt/2 underflows to 0
    ("mc", "--dt", "1e-323", "--paths", "100"),  # the cap over dt/2 overflows
    ("mc", "--dt", "1e-9", "--paths", "100"),    # 5e8 steps of dt/2 per exit time
    ("sweep", "--em", "1e-160", "--sigma", "1e-160", "--points", "2"),  # subnormal squares
    ("sweep", "--em", "0", "--points", "3"),         # 1/e_m for the linear detector
    ("rate", "--em", "1e-150", "--sigma", "1e11",
     "--cross-section", "1e-20"),                    # subnormal e_m**2/sigma**2
    ("mc", "--is", "1e12", "--dt", "4.7e-14", "--paths", "100"),  # zero standard error
    ("rate", "--cross-section", "1e-300", "--em", "1e150"),  # the rates underflow to 0
    ("rate", "--cross-section", "1e-310"),                 # a subnormal rate
    ("sweep", "--cross-section", "1e-310", "--points", "2"),
    # grids of 1e15 doubles, 7.1 PiB, beyond a 47-bit address space: numpy
    # refuses them at once, whatever the memory overcommit policy
    ("sweep", "--points", str(10 ** 15)),
    ("field", "--points", str(10 ** 15)),
])
def test_bad_parameters_exit_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert _one_error_line(err), err


def _run_quietly(argv) -> tuple[int, str, str]:
    """main(argv) with warnings raised as errors, so a warning fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(command=st.sampled_from(["field", "sweep"]), x_min=st.floats(), x_max=st.floats(),
       points=st.integers(1, 20), grid=st.sampled_from(["lin", "log"]))
def test_grid_flags_exit_0_or_2(command, x_min, x_max, points, grid):
    """Any grid bounds, finite or not: a table of finite values, or exit 2
    with one error line. The only nan is g_large at tau = 0, where the
    large-lag form is undefined; stderr holds nothing but field's report."""
    code, out, err = _run_quietly([command, f"--x-min={x_min!r}", f"--x-max={x_max!r}",
                                   "--points", str(points), "--grid", grid])
    if code != EXIT_OK:
        assert code == EXIT_USAGE
        assert out == ""
        assert _one_error_line(err), err
    elif command == "field":
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == points
        for r in rows:
            assert all(math.isfinite(float(r[k])) for k in ("tau", "g", "g_small")), r
            assert math.isfinite(float(r["g_large"])) or (
                float(r["tau"]) == 0.0 and math.isnan(float(r["g_large"]))), r
        assert json.loads(err)["consistent_1e-6"] is True
    else:
        assert err == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _mc_dt(em, sigma, i_s, fraction):
    """A fraction of the largest step MCConfig allows, or 1e-3 where that
    bound is not a positive finite number."""
    with np.errstate(all="ignore"):
        em, sigma, i_s = np.float64(em), np.float64(sigma), np.float64(i_s)
        bound = float(min(0.01 * em * em / (sigma * sigma), 0.05 * em / i_s))
    return fraction * bound if 0 < bound < math.inf else 1e-3


# the most path-steps one example may ask for, all paths censored: about
# 3 s at the kernel's cost per step
MC_WORK_BOUND = 10 ** 8


def _mc_work(em, sigma, i_s, boundary, dt, paths) -> float:
    """paths times the step cap at dt/2, the most path-steps a run can take,
    or 0 when MCConfig rejects the flags before any path is walked."""
    try:
        config = MCConfig(params=DetectorParams(e_m=em, sigma=sigma, i_s=i_s), dt=dt,
                          n_paths=paths, seed=0, boundary=boundary or "interval")
    except ValueError:
        return 0
    return paths * config.steps_cap(dt / 2.0)


# each parameter is any float or one from a moderate range, so that about
# one draw in seven runs rather than failing validation
@settings(max_examples=200)
@given(em=st.one_of(st.floats(0.5, 2.0), st.floats()),
       sigma=st.one_of(st.floats(0.5, 2.0), st.floats()),
       i_s=st.one_of(st.floats(0.0, 3.0), st.floats()),
       boundary=st.sampled_from([None, "interval", "cube", "sphere"]),
       fraction=st.floats(0.5, 1.0), seed=st.integers(),
       paths=st.one_of(st.integers(100, 500), st.integers()))
def test_mc_flags_exit_0_or_one_error_line(em, sigma, i_s, boundary, fraction, seed, paths):
    """Any parameter floats, seed and path count and a step of at most the
    allowed one: finite JSON (exit 0, or exit 3 with the censoring line), or
    exit 2 or 3 with one error line. Runs that could take more than
    MC_WORK_BOUND path-steps are not launched."""
    dt = _mc_dt(em, sigma, i_s, fraction)
    assume(_mc_work(em, sigma, i_s, boundary, dt, paths) <= MC_WORK_BOUND)
    argv = ["mc", f"--em={em!r}", f"--sigma={sigma!r}", f"--is={i_s!r}",
            "--paths", str(paths), f"--seed={seed}", f"--dt={dt!r}"]
    if boundary is not None:
        argv += ["--boundary", boundary]
    code, out, err = _run_quietly(argv)
    if out == "":
        assert code in (EXIT_USAGE, EXIT_QUALITY)
        assert _one_error_line(err), err
        return
    assert code in (EXIT_OK, EXIT_QUALITY)
    json.loads(out, parse_constant=_reject_constant)
    assert err == ("" if code == EXIT_OK else
                   "censoring above 0.1%: estimates unreliable\n")


@given(em=st.floats(), sigma=st.floats(), i_s=st.floats(), cross_section=st.floats())
def test_rate_flags_exit_0_or_one_error_line(em, sigma, i_s, cross_section):
    """Any parameter floats, finite or not: finite JSON, or exit 2 or 3 with
    one error line."""
    code, out, err = _run_quietly(["rate", f"--em={em!r}", f"--sigma={sigma!r}",
                                   f"--is={i_s!r}", f"--cross-section={cross_section!r}"])
    if code != EXIT_OK:
        assert code in (EXIT_USAGE, EXIT_QUALITY)
        assert out == ""
        assert _one_error_line(err), err
        return
    assert err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    assert all(v is None or math.isfinite(v) for v in payload.values())


@given(em=st.floats(), sigma=st.floats(), cross_section=st.floats())
def test_sweep_flags_exit_0_or_one_error_line(em, sigma, cross_section):
    """Any parameter floats, finite or not, on a fixed grid: a CSV of finite
    values, or exit 2 or 3 with one error line."""
    code, out, err = _run_quietly(["sweep", f"--em={em!r}", f"--sigma={sigma!r}",
                                   f"--cross-section={cross_section!r}", "--x-min", "0.01",
                                   "--x-max", "100", "--points", "3"])
    if code != EXIT_OK:
        assert code in (EXIT_USAGE, EXIT_QUALITY)
        assert out == ""
        assert _one_error_line(err), err
        return
    assert err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row), rows


_SERIES_ERROR = TruncationError("double-series tail 1e-3 exceeds tolerance")


# every cube value, of rate and sweep alike, goes through _f3_values
@pytest.mark.parametrize("module, name, error, argv", [
    (analytic, "_f3_values", _SERIES_ERROR, ("rate",)),
    (field, "sigma_const", QuadratureError("quad: the maximum number of subdivisions\n"
                                           "  has been achieved"),
     ("field", "--points", "2")),
    (analytic, "_f3_values", _SERIES_ERROR, ("sweep", "--points", "3")),
])
def test_series_and_quadrature_errors_exit_3(monkeypatch, capsys, module, name, error, argv):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(module, name, fail)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_QUALITY
    assert _one_error_line(err), err
    assert out == ""


def test_field_exits_3_when_the_rule_runs_out_of_levels(monkeypatch, capsys, tmp_path):
    """The failure leaves no table behind, on stdout or in an --out file."""
    monkeypatch.setattr("photofpt.params._TS_LEVELS", 1)
    path = tmp_path / "f.csv"
    for argv in (("field", "--points", "2"), ("field", "--points", "2", "--out", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_QUALITY
        assert out == ""
        assert _one_error_line(err), err
    assert not path.exists()


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


def test_validate_prints_each_check_as_it_finishes(monkeypatch, capsys):
    passing = _report().checks[0]
    failing = _report(cid=3, name="dark constants", passed=False).checks[0]

    def run_all(seed, progress):
        for result in (passing, failing):
            progress(result)
        return ValidationReport(checks=[passing, failing], seed=seed)

    monkeypatch.setattr(validation, "run_all", run_all)
    code, out, _ = run_cli(capsys, "validate")
    assert code == EXIT_VALIDATION
    assert out.splitlines() == [passing.line(), failing.line(), "1/2 checks passed, 1 FAILED"]


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


def test_out_symlink_stays_a_link_to_the_whole_report(tmp_path, monkeypatch, capsys):
    report = _report()
    monkeypatch.setattr(validation, "run_all", lambda seed, progress: report)
    target = tmp_path / "target.json"
    target.write_text("previous\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _, _ = run_cli(capsys, "validate", "--out", str(link))
    assert code == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert json.loads(target.read_text()) == json.loads(json.dumps(report.to_dict()))
    assert sorted(tmp_path.iterdir()) == [link, target]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_fifo_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "curve.csv"
    os.mkfifo(fifo)
    got = []
    # a daemon, so a reader left waiting on a replaced FIFO cannot hang the run
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, _ = run_cli(capsys, "sweep", "--points", "3", "--out", str(fifo))
    reader.join(timeout=30)
    assert code == EXIT_OK
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    # no .meta.json sidecar, which a FIFO or device has no place for
    assert sorted(tmp_path.iterdir()) == [fifo]
    assert got == [run_cli(capsys, "sweep", "--points", "3")[1]]


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_mc_takes_no_cross_section(capsys):
    # mc reports means, not rates
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--cross-section", "2"])
    assert exc.value.code == 2
    assert "--cross-section" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("mc", "--max-time", "100"), "--max-time"),  # the cap is derived
    (("sweep", "--is", "1"), "--is"),             # the grid sets the intensity
])
def test_removed_flags_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_every_declared_flag_is_read():
    """Each flag a subcommand declares is read as args.<dest> by its
    cmd_<name>, or by _grid where the command calls _grid(args)."""
    subparsers, = (a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        source = inspect.getsource(getattr(cli, f"cmd_{name}"))
        if "_grid(args)" in source:
            source += inspect.getsource(cli._grid)
        for action in sub._actions:
            if not isinstance(action, argparse._HelpAction):
                assert f"args.{action.dest}" in source, (name, action.option_strings)


@pytest.mark.parametrize("seed", [-1, 2 ** 64 - 310, 2 ** 64 - 1, 2 ** 64])
def test_validate_rejects_seed_before_any_check(monkeypatch, capsys, seed):
    """The checks seed their runs with seed to seed + 310; a seed whose
    range leaves 64 bits fails at once, not after the first eleven checks."""
    ran = []
    monkeypatch.setattr(validation, "run_check", lambda cid, seed: ran.append(cid))
    code, out, err = run_cli(capsys, "validate", "--seed", str(seed))
    assert code == EXIT_USAGE
    assert out == ""
    assert _one_error_line(err), err
    assert ran == []


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_validate_checks_out_before_any_check(tmp_path, monkeypatch, capsys, where):
    """An --out path in a missing directory, or a directory itself, fails at
    once, not after the whole suite has run."""
    ran = []
    monkeypatch.setattr(validation, "run_check", lambda cid, seed: ran.append(cid))
    code, out, err = run_cli(capsys, "validate", "--out", str(tmp_path / where))
    assert code == EXIT_USAGE
    assert out == ""
    assert _one_error_line(err), err
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_validate_accepts_the_largest_seed(monkeypatch):
    seen = []
    monkeypatch.setattr(validation, "run_check", lambda cid, seed: seen.append(seed) or _report())
    validation.run_all(2 ** 64 - 311)
    assert seen == [2 ** 64 - 311] * len(CRITERIA)


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
    assert {k: meta[k] for k in SERIES_METADATA} == SERIES_METADATA

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
    assert {k: payload["metadata"][k] for k in SERIES_METADATA} == SERIES_METADATA


def test_sweep_single_point_matches_rate(capsys):
    _, sweep_out, _ = run_cli(capsys, "sweep", "--x-min", "1", "--x-max", "1",
                              "--points", "1", "--format", "json")
    _, rate_out, _ = run_cli(capsys, "rate", "--is", "1")
    row = json.loads(sweep_out)["rows"][0]
    rate = json.loads(rate_out)
    assert row[0] == rate["x"]
    assert row[1] == rate["rate_1d"]
    assert row[2] == rate["rate_3d"]
    assert row[3] == rate["x"]
    assert row[4] == rate["dark_fraction_1d"]
    assert row[5] == rate["dark_fraction_3d"]


def test_linear_rate_column_is_the_strong_signal_limit(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--x-min", "50", "--x-max", "100", "--points", "2",
                        "--cross-section", "2", "--format", "json")
    row = json.loads(out)["rows"][-1]
    assert row[0] == 100.0
    assert row[1] / row[3] == pytest.approx(1.0, abs=1e-12)


def test_one_series_evaluation_per_rate_point(monkeypatch, capsys):
    """`rate` evaluates F once at its one point, a sweep once at all of its
    points."""
    calls = []
    values = analytic._f3_values

    def counted(xs, kl_max):
        calls.append(len(xs))
        return values(xs, kl_max)
    monkeypatch.setattr(analytic, "_f3_values", counted)
    for x in ("0", "1.5"):
        calls.clear()
        assert run_cli(capsys, "rate", "--is", x)[0] == EXIT_OK
        assert calls == [1]
    calls.clear()
    assert run_cli(capsys, "sweep", "--x-min", "0", "--x-max", "3", "--points", "4",
                   "--grid", "lin")[0] == EXIT_OK
    assert calls == [4]


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
    assert report["unit"] == "hbar * c**1.5 / a**3.5"
    assert report["reference_figures"]["quoted constant"] == pytest.approx(2.12e-4)
    assert report["reference_figures"]["quoted order of magnitude"] == pytest.approx(1e-3)
    assert err == ""


def test_field_report_on_stderr_without_out(capsys):
    code, out, err = run_cli(capsys, "field", "--x-min", "0", "--x-max", "1",
                             "--points", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "tau,g,g_small,g_large"
    assert json.loads(err)["consistent_1e-6"] is True


def test_mc_json_deterministic(capsys):
    args = ("mc", "--dt", "0.005", "--paths", "200", "--seed", "99")
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


def test_mc_censoring_exits_3(monkeypatch, capsys):
    """At the derived cap a path survives with probability about 3e-54, so a
    cap of 3 e_m^2/sigma^2 stands in: 3.6% of the coarse and 3.1% of the fine
    paths are censored."""
    monkeypatch.setattr(mc.MCConfig, "steps_cap", lambda self, dt: math.ceil(3.0 / dt))
    code, out, err = run_cli(capsys, "mc", "--paths", "1000", "--seed", "5")
    assert code == EXIT_QUALITY
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["coarse"]["n_censored"] == 36 and payload["fine"]["n_censored"] == 31
    assert err == "censoring above 0.1%: estimates unreliable\n"


def test_mc_sphere_uses_radial_reference(capsys):
    code, out, _ = run_cli(capsys, "mc", "--boundary", "sphere",
                           "--dt", "0.005", "--paths", "300", "--seed", "31")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["analytic_mean"] == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_mc_drifted_sphere_has_no_reference(capsys):
    code, out, _ = run_cli(capsys, "mc", "--boundary", "sphere", "--is", "1",
                           "--dt", "0.005", "--paths", "100", "--seed", "31")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["x"] == 1.0
    assert payload["extrapolated"]["n_absorbed"] == 100
    assert payload["analytic_mean"] is None
    assert payload["z_extrapolated"] is None


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("photofpt ")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_carries_no_value_between_calls(capsys):
    build_parser.cache_clear()
    first = run_cli(capsys, "rate")
    assert run_cli(capsys, "rate", "--em", "3", "--is", "1")[1] != first[1]
    assert run_cli(capsys, "rate") == first


def test_main_looks_up_the_command_at_call_time(monkeypatch, capsys):
    run_cli(capsys, "rate")
    seen = []
    monkeypatch.setattr(cli, "cmd_rate", lambda args: seen.append(args.i_s) or EXIT_QUALITY)
    assert main(["rate"]) == EXIT_QUALITY
    assert seen == [0.0]


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
    assert "PASS" in ok.line() and "FAIL" in bad.line()
    assert report.summary() == "1/2 checks passed, 1 FAILED"
    assert ValidationReport(checks=[ok]).summary() == "1/1 checks passed"
    assert not report.passed
    as_dict = report.to_dict()
    json.dumps(as_dict)
    assert as_dict["seed"] == 1
    assert len(as_dict["checks"]) == 2
