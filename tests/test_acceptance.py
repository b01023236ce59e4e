"""End-to-end acceptance: one test per validation check, default seed.

Each test runs its check, prints the check's pass/fail line so a verbose run
reads as a checklist, and asserts that the verdict is the correct one. For
checks 1, 2, 4-8 and 10-13 the correct verdict is PASS. Checks 3 and 9
compare the model with quoted figures, so their correct verdict is decided
here, outside the program, by applying the check's stated criterion to the
independent oracles of tests/oracles.py:

- check 3 (dark cube mean 0.49 +- 0.005, rate 2.0 +- 0.02) to DARK_MEAN_3D
  and DARK_RATE_3D, pinned to the mpmath integral of the cubed 1D survival;
- check 9 (g(0), curvature at small lag, damped-cosine tail on [10, 20]) to
  g_panel_quadrature on the check's lag grids.

Both tests also assert that the package values the check is built on match
those oracles, so a drift in the series or the quadrature fails them even
when the verdict does not change. On this build both verdicts are FAIL (see
the discrepancy notes in README.md); a check that claims PASS, or a quoted
figure that becomes reproducible while its check still says FAIL, fails the
test.

A last, fast test runs the four Monte Carlo checks at 1/100 of their paths
and asserts that each one's detail states the step it actually took; another
asserts that check 8's detail states the grid its solver ran on.
"""
import math

import numpy as np
import pytest
from oracles import DARK_MEAN_3D, DARK_RATE_3D, g_panel_quadrature

from photofpt import DEFAULT_SEED, mc, validation
from photofpt.analytic import mean_fpt_3d, rate_3d
from photofpt.field import g_tau
from photofpt.params import params_for_intensity
from photofpt.validation import CRITERIA, run_check

IDS = [f"{cid:02d}_{name.replace(' ', '_')}" for cid, name, _ in CRITERIA]


def _dark_cube_verdict() -> bool:
    """Check 3's criterion applied to the mpmath dark-cube values."""
    dark = params_for_intensity(0.0)
    assert mean_fpt_3d(dark) == pytest.approx(DARK_MEAN_3D, rel=1e-9)
    assert rate_3d(dark) == pytest.approx(DARK_RATE_3D, rel=1e-9)
    return abs(DARK_MEAN_3D - 0.49) <= 0.005 and abs(DARK_RATE_3D - 2.0) <= 0.02


def _correlation_verdict() -> bool:
    """Check 9's criterion applied to panel quadrature of g(tau)."""
    small_taus = np.linspace(0.005, 0.05, 10)
    tail_taus = np.linspace(10.0, 20.0, 41)
    g0 = g_panel_quadrature(0.0)
    small = np.array([g_panel_quadrature(float(t)) for t in small_taus])
    tail = np.array([g_panel_quadrature(float(t)) for t in tail_taus])
    for taus, ref in ((small_taus, small), (tail_taus, tail)):
        np.testing.assert_allclose([g_tau(float(t)) for t in taus], ref, rtol=0, atol=1e-9)

    t2 = small_taus ** 2
    curvature = np.dot(small / g0 - 1.0, t2) / np.dot(t2, t2)
    signs = np.nonzero(tail[:-1] * tail[1:] < 0)[0]
    freq_ok = signs.size >= 2 and abs(
        math.pi / np.mean(np.diff(tail_taus[signs])) / math.sqrt(0.6) - 1.0) < 0.01
    slope = np.polyfit(tail_taus, np.log(np.abs(tail)), 1)[0]
    quoted_slope = -2.0 * math.sqrt(2.0) / 5.0
    return bool(abs(g0 - 1.0 / (18.0 * math.pi)) < 1e-8
                and abs(curvature + 1.0) < 0.01
                and freq_ok
                and abs(slope / quoted_slope - 1.0) <= 0.02)


ORACLE_VERDICTS = {3: _dark_cube_verdict, 9: _correlation_verdict}


@pytest.mark.acceptance
@pytest.mark.parametrize("cid", [cid for cid, _, _ in CRITERIA], ids=IDS)
def test_criterion(cid):
    result = run_check(cid, DEFAULT_SEED)
    print(result.line())
    expected = ORACLE_VERDICTS.get(cid, lambda: True)()
    message = (result.line() + f"\ncorrect verdict: {'PASS' if expected else 'FAIL'}"
               + (f"\n{result.detail}" if result.detail else ""))
    assert bool(result.passed) == expected, message


class _ScaledRecordingMC:
    """Stands in for photofpt.mc inside the validation module: divides path
    counts and stream horizons by 100 and records the step of every config."""

    def __init__(self):
        self.dts = []

    def __getattr__(self, name):
        return getattr(mc, name)

    def MCConfig(self, *, n_paths, **kwargs):
        config = mc.MCConfig(n_paths=max(100, round(n_paths / 100)), **kwargs)
        self.dts.append(config.dt)
        return config

    def simulate_event_stream(self, config, horizon):
        return mc.simulate_event_stream(config, horizon / 100)


@pytest.mark.parametrize("cid", [1, 2, 12, 13])
def test_mc_check_detail_states_its_step(monkeypatch, cid):
    """At 1/100 of its paths, each Monte Carlo check reports the step it ran."""
    recorder = _ScaledRecordingMC()
    monkeypatch.setattr(validation, "mc", recorder)
    result = run_check(cid, DEFAULT_SEED)
    assert recorder.dts
    for dt in recorder.dts:
        assert f"dt = {dt:g}" in result.detail, result.detail
    if cid != 12:
        assert f"and {recorder.dts[-1] / 2:g}," in result.detail, result.detail


def test_pde_check_detail_states_its_grid(monkeypatch):
    """Check 8 reports the grid its oracle ran on, here a coarser one."""
    solve = validation.pde_survival_1d
    grids = []

    def recording_solve(t, drift, params, nx=validation.PDE_NX):
        grids.append(nx)
        return solve(t, drift, params, nx=nx)

    monkeypatch.setattr(validation, "pde_survival_1d", recording_solve)
    monkeypatch.setattr(validation, "PDE_NX", 2001)
    result = run_check(8, DEFAULT_SEED)
    assert grids == [2001, 2001]
    assert result.passed
    assert result.source == "central-difference oracle, exact in time"
    assert ("central differences on 2001 grid points from a point mass at 0, "
            "solved exactly in time") in result.detail, result.detail
