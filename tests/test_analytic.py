"""Closed forms and series against independent references.

The double series is checked against an mpmath resummation that uses a
different acceleration (tests/oracles.py), the survival factors against each
other and against the Crank-Nicolson solver from the validation module, and
the mean first-passage times against direct quadrature of the survival curve.
"""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from oracles import (DARK_MEAN_3D, DARK_RATE_3D, cube_dark_mean_mpmath, f3_split,
                     iterated_average_sum)

from photofpt import analytic
from photofpt.analytic import (
    _accelerated_alternating_sum,
    axis_survival_image,
    axis_survival_spectral,
    dark_fraction,
    f3_series,
    mean_fpt_1d,
    mean_fpt_3d,
    rate_1d,
    rate_3d,
    rate_point,
    survival_3d,
)
from photofpt.mc import MCConfig, _sample
from photofpt.params import (
    DetectorParams,
    SeriesControl,
    TruncationError,
    params_for_intensity,
)
from photofpt.validation import mean_fpt_quadrature, pde_survival_1d

UNIT = DetectorParams(e_m=1.0, sigma=1.0)


def test_mean_1d_driftless_is_time_scale():
    assert mean_fpt_1d(UNIT) == 1.0
    assert mean_fpt_1d(DetectorParams(e_m=3.0, sigma=2.0)) == pytest.approx(2.25, rel=1e-15)


def test_mean_1d_closed_form():
    assert mean_fpt_1d(params_for_intensity(2.0)) == pytest.approx(
        math.tanh(2.0) / 2.0, rel=1e-15)


def test_mean_1d_strong_signal_is_threshold_over_intensity():
    # tanh saturates: e_m/i_s = 0.2 to round-off at x = 20
    p = DetectorParams(e_m=2.0, sigma=1.0, i_s=10.0)
    assert mean_fpt_1d(p) == pytest.approx(0.2, rel=1e-15)


@pytest.mark.parametrize("x", [0.99e-4, 1.01e-4])
def test_mean_1d_small_x_branch(x):
    """The series branch agrees with high-precision tanh(x)/x on both
    sides of the switch point."""
    with mp.workdps(40):
        ref = float(mp.tanh(x) / mp.mpf(x))
    assert mean_fpt_1d(params_for_intensity(x)) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("cross", [1.0, 2.5])
def test_rate_is_exact_reciprocal(x, cross):
    p = params_for_intensity(x, cross_section=cross)
    assert rate_1d(p) * mean_fpt_1d(p) == pytest.approx(cross, rel=1e-15)
    assert rate_3d(p) * mean_fpt_3d(p) == pytest.approx(cross, rel=1e-15)


def test_rate_scales_with_cross_section():
    assert rate_1d(params_for_intensity(1.0, cross_section=2.0)) == pytest.approx(
        2.0 * rate_1d(params_for_intensity(1.0)), rel=1e-15)


def test_rate_1d_unit_intensity_is_coth():
    assert rate_1d(params_for_intensity(1.0)) == pytest.approx(
        1.0 / math.tanh(1.0), rel=1e-14)


@pytest.mark.parametrize("t", [0.5, 10.0])
def test_image_and_spectral_representations_agree(t):
    assert abs(axis_survival_image(t, 0.0, UNIT)
               - axis_survival_spectral(t, UNIT)) < 1e-10


def test_representations_agree_off_unit_params():
    p = DetectorParams(e_m=2.0, sigma=0.7)
    assert abs(axis_survival_image(2.0, 0.0, p)
               - axis_survival_spectral(2.0, p)) < 1e-10


@pytest.mark.parametrize("drift", [0.0, 2.0])
def test_image_sum_matches_pde_solver(drift):
    got = axis_survival_image(0.5, drift, UNIT)
    ref = pde_survival_1d(0.5, drift, UNIT)
    assert abs(got - ref) < 1e-6


# Crank-Nicolson survival at t = 0.5 e_m^2/sigma^2, as solved with a fresh
# banded solve at every step; factoring the constant matrix once must not
# change a bit.
@pytest.mark.parametrize("x, pinned", [
    (0.0, 0.6854457861514671),
    (1.3, 0.5247814222408482),
    (2.0, 0.3608725788437723),
])
def test_pde_solver_pinned(x, pinned):
    params = params_for_intensity(x)
    assert pde_survival_1d(0.5, params.i_s, params) == pinned


def test_survival_decreasing_and_bounded():
    ts = np.geomspace(0.05, 5.0, 12)
    vals = [axis_survival_image(t, 1.0, UNIT) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_image_truncation_guard():
    with pytest.raises(TruncationError):
        axis_survival_image(10.0, 0.0, UNIT, SeriesControl(n_images=1))


def test_spectral_truncation_guard():
    with pytest.raises(TruncationError):
        axis_survival_spectral(0.5, UNIT, SeriesControl(kl_max=1))


def test_survival_requires_positive_time():
    with pytest.raises(ValueError):
        axis_survival_image(0.0, 0.0, UNIT)
    with pytest.raises(ValueError):
        axis_survival_spectral(-1.0, UNIT)


def test_spectral_short_time_limit():
    # acceleration keeps the slowly alternating small-t series at 1
    assert axis_survival_spectral(1e-12, UNIT) == 1.0


def test_spectral_long_time_leading_term():
    lead = (4.0 / math.pi) * math.exp(-math.pi ** 2 * 10.0 / 8.0)
    assert axis_survival_spectral(10.0, UNIT) == pytest.approx(lead, rel=1e-12)


def test_survival_3d_factors():
    lit = params_for_intensity(1.0)
    k_axis = axis_survival_image(0.4, 0.0, lit)
    l_axis = axis_survival_image(0.4, lit.i_s, lit)
    # no drift: the third axis has the factor of the other two
    assert axis_survival_image(0.4, UNIT.i_s, UNIT) == axis_survival_image(0.4, 0.0, UNIT)
    assert l_axis < k_axis  # drift kills the third axis faster
    assert survival_3d(0.4, lit) == k_axis ** 2 * l_axis


def test_survival_3d_against_path_fraction():
    """Fraction of simulated cube paths alive at t matches K^2 L."""
    t = 0.3
    p = params_for_intensity(1.0)
    cfg = MCConfig(params=p, dt=1e-3, n_paths=2000, seed=2024,
                   dimension=3, boundary="cube")
    times = _sample(cfg, (cfg.dt,))[:, 0]
    alive = np.isnan(times) | (times > t)
    frac = alive.mean()
    ref = survival_3d(t, p)
    se = math.sqrt(ref * (1.0 - ref) / cfg.n_paths)
    assert abs(frac - ref) < 3.0 * se


@pytest.mark.parametrize("x", [0.0, 2.0])
def test_double_series_matches_independent_resummation(x):
    ref = f3_split(x)
    assert abs(f3_series(x) - ref) < 1e-10
    if x == 0.0:
        # the integral of the cubed 1D survival, a route that never sums F,
        # pins the split oracle, and the stored dark constants are its value
        # and inverse
        dark_mean = cube_dark_mean_mpmath()
        assert 128.0 / math.pi ** 4 * ref == pytest.approx(dark_mean, rel=1e-14)
        assert DARK_MEAN_3D == pytest.approx(dark_mean, rel=1e-14)
        assert DARK_RATE_3D == pytest.approx(1.0 / dark_mean, rel=1e-14)


def test_double_series_large_argument():
    assert f3_series(50.0, SeriesControl(kl_max=120)) == pytest.approx(f3_split(50.0), rel=1e-8)


@pytest.mark.parametrize("x", [1e4, 1e6, 1e10, 1e100, 1e300])
def test_double_series_asymptote_holds_at_huge_x(x):
    """x F(x) -> pi^4/128; the gap between the cosh arguments must not be
    lost to rounding once x^2 dwarfs the eigenvalue term."""
    assert x * f3_series(x) * 128.0 / math.pi ** 4 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [1e155, 1e300, 1e308, 1.7e308])
def test_double_series_asymptote_holds_where_x_squared_overflows(x):
    """Past x = 1.3e154 the terms c/(2x) fall towards the subnormal range;
    the series sums x G_kl instead, so x F(x) keeps its digits up to the
    largest doubles (F itself is subnormal at 1.7e308)."""
    assert abs(x * f3_series(x) * 128.0 / math.pi ** 4 - 1.0) <= 1.1e-15


def test_double_series_rejects_negative():
    with pytest.raises(ValueError):
        f3_series(-1.0)


def test_double_series_truncation_guard():
    with pytest.raises(TruncationError):
        f3_series(0.0, SeriesControl(kl_max=1))


def _or_none(fn, *args):
    try:
        return fn(*args)
    except TruncationError:
        return None


def _series_grid() -> dict:
    """f3_series at x = 0 and 23 log-spaced x in [1e-3, 800] and the
    spectral survival at 17 log-spaced t in [1e-6, 30], each at kl_max 1, 2,
    3, 7, 60 and 120; None where TruncationError is raised."""
    values = {}
    for kl in (1, 2, 3, 7, 60, 120):
        for x in np.concatenate(([0.0], np.geomspace(1e-3, 800.0, 23))):
            values["f3", kl, x] = _or_none(f3_series, float(x), SeriesControl(kl_max=kl))
        for t in np.geomspace(1e-6, 30.0, 17):
            values["spectral", kl, t] = _or_none(axis_survival_spectral, float(t), UNIT,
                                                 SeriesControl(kl_max=kl))
    return values


def test_binomial_contraction_matches_iterated_averaging(monkeypatch):
    """The one-contraction Euler sum agrees with its definition, repeated
    pairwise averaging, to summation-order round-off."""
    got = _series_grid()
    monkeypatch.setattr(analytic, "_accelerated_alternating_sum", iterated_average_sum)
    want = _series_grid()
    assert [v is None for v in got.values()] == [v is None for v in want.values()]
    for key, value in got.items():
        if value is None:
            continue
        if key[0] == "f3":
            assert abs(value - want[key]) <= 4e-15 * abs(want[key]), key
        else:
            assert abs(value - want[key]) <= 4e-16, key


@pytest.mark.parametrize("n", [1, 2])
def test_short_alternating_sums_are_bit_identical(n):
    terms = np.random.default_rng(5).normal(size=(40, n))
    for got, want in zip(_accelerated_alternating_sum(terms), iterated_average_sum(terms)):
        assert np.array_equal(got, want)


def test_mean_3d_dark_value():
    assert mean_fpt_3d(UNIT) == pytest.approx(DARK_MEAN_3D, rel=1e-12)


def test_rate_3d_dark_value():
    assert rate_3d(UNIT) == pytest.approx(DARK_RATE_3D, rel=1e-12)


@pytest.mark.parametrize("x,product", [
    (10.0, 0.9967756258704483),
    (25.0, 0.9999978524667595),
])
def test_mean_3d_approaches_threshold_over_intensity(x, product):
    # i_s * <t> -> e_m as the drift axis takes over
    assert mean_fpt_3d(params_for_intensity(x)) * x == pytest.approx(product, rel=1e-10)


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_cube_detects_faster_than_interval(x):
    p = params_for_intensity(x)
    assert rate_3d(p) > rate_1d(p)


def test_rates_increase_with_intensity():
    xs = np.concatenate(([0.0], np.geomspace(0.01, 20.0, 15)))
    r1 = [rate_1d(params_for_intensity(x)) for x in xs]
    assert all(b > a for a, b in zip(r1, r1[1:]))
    xs3 = [0.0, 0.5, 1.0, 2.0, 5.0, 10.0]
    r3 = [rate_3d(params_for_intensity(x)) for x in xs3]
    assert all(b > a for a, b in zip(r3, r3[1:]))


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("x", [0.0, 1.0, 5.0])
def test_mean_equals_survival_quadrature(dimension, x):
    """<t> = int_0^inf survival(t) dt, evaluated independently."""
    p = params_for_intensity(x)
    mean = mean_fpt_1d(p) if dimension == 1 else mean_fpt_3d(p)
    ref = mean_fpt_quadrature(p, None, dimension)
    assert mean == pytest.approx(ref, rel=1e-10)


@given(x=st.floats(0.0, 20.0), e_m=st.floats(1e-2, 1e2), sigma=st.floats(1e-2, 1e2))
def test_mean_1d_dimensional_covariance(x, e_m, sigma):
    """Only the group i_s*e_m/sigma^2 and the time scale matter."""
    p = params_for_intensity(x, e_m=e_m, sigma=sigma)
    assert mean_fpt_1d(p) / p.time_scale == pytest.approx(
        mean_fpt_1d(params_for_intensity(x)), rel=1e-12)


def test_mean_3d_dimensional_covariance():
    p = params_for_intensity(3.0, e_m=7.0, sigma=0.3)
    assert mean_fpt_3d(p) / p.time_scale == pytest.approx(
        mean_fpt_3d(params_for_intensity(3.0)), rel=1e-12)


def test_dark_fraction_values():
    assert dark_fraction(0.5) == pytest.approx(1.163953413738653, rel=1e-12)
    # 1D excess is coth(x) - 1 at unit cross section
    assert dark_fraction(1.5) == pytest.approx(1.0 / math.tanh(1.5) - 1.0, rel=1e-13)
    assert rate_point(params_for_intensity(1.5))["dark_fraction_3d"] == pytest.approx(
        0.7509369377849684, rel=1e-12)


@pytest.mark.parametrize("x", [0.5, 1.5, 10.0, 20.0, 50.0, 300.0])
def test_dark_fraction_1d_keeps_relative_accuracy(x):
    with mp.workdps(40):
        ref = float(mp.coth(x) - 1)
    assert dark_fraction(x) == pytest.approx(ref, rel=1e-14)


def test_dark_fraction_1d_nonnegative_at_huge_x():
    assert dark_fraction(1e300) >= 0.0


def test_dark_fraction_rejects_bad_input():
    with pytest.raises(ValueError):
        dark_fraction(0.0)
    with pytest.raises(ValueError):
        dark_fraction(-1.0)


@pytest.mark.parametrize("dimension", [1, 3])
def test_dark_fraction_decreases_with_intensity(dimension):
    xs = [0.3, 0.7, 1.5, 3.0, 6.0]
    vals = [dark_fraction(x) if dimension == 1
            else rate_point(params_for_intensity(x))["dark_fraction_3d"] for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.xfail(strict=True,
                   reason="the quoted dark-cube mean 0.49 is not reproduced; the "
                          "exact double series gives 0.44970")
def test_quoted_dark_cube_mean():
    assert mean_fpt_3d(UNIT) == pytest.approx(0.49, abs=0.005)


@pytest.mark.xfail(strict=True,
                   reason="the quoted dark-cube rate 2.0 is not reproduced; the "
                          "exact double series gives 2.2237")
def test_quoted_dark_cube_rate():
    assert rate_3d(UNIT) == pytest.approx(2.0, abs=0.02)
