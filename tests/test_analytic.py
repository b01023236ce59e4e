"""Closed forms and series against independent references.

The double series is checked against an mpmath resummation that uses a
different acceleration (tests/oracles.py), the survival factors against each
other and against the finite-difference solver from the validation module
(which is itself checked against the dense matrix exponential), and the
mean first-passage times against direct quadrature of the survival curve.
"""
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (DARK_MEAN_3D, DARK_RATE_3D, cube_dark_mean_mpmath, f3_split,
                     fd_survival_expm, image_survival_scalar, iterated_average_sum)

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
    QuadratureError,
    SeriesControl,
    TruncationError,
    params_for_intensity,
)
from photofpt.validation import _dst1, mean_fpt_quadrature, pde_survival_1d

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


@pytest.mark.parametrize("drift, t, tol", [
    pytest.param(0.0, 0.5, 1e-6, id="0.0"),
    pytest.param(2.0, 0.5, 1e-6, id="2.0"),
    pytest.param(2.0, 3.0, 1e-10, id="2.0-t3"),
    pytest.param(0.0, 10.0, 1e-10, id="0.0-t10"),
])
def test_image_sum_matches_pde_solver(drift, t, tol):
    got = axis_survival_image(t, drift, UNIT)
    ref = pde_survival_1d(t, drift, UNIT)
    assert abs(got - ref) < tol


@pytest.mark.parametrize("x", [0.0, 1.3, 2.0, 3.0])
def test_pde_solver_matches_dense_expm(x):
    """The sine-eigenbasis sum equals the dense matrix exponential."""
    params = params_for_intensity(x)
    for nx in (101, 201):
        for t in (0.07, 0.5, 3.0):
            assert pde_survival_1d(t, params.i_s, params, nx=nx) == pytest.approx(
                fd_survival_expm(t, x, nx), rel=1e-10, abs=0.0), (nx, t)


# survival at t = 0.5 e_m^2/sigma^2 on the default 4001-point grid
@pytest.mark.parametrize("x, pinned", [
    (0.0, 0.6854457498901146),
    (1.3, 0.5247813848934026),
    (2.0, 0.3608725549004219),
], ids=["0.0", "1.3", "2.0"])
def test_pde_solver_pinned(x, pinned):
    params = params_for_intensity(x)
    value = pde_survival_1d(0.5, params.i_s, params)
    assert value == pinned
    assert abs(value - axis_survival_image(0.5, params.i_s, params)) < 1e-7


@pytest.mark.parametrize("drift, rel", [(8.0, 1e-4), (10.0, 1e-4), (12.0, 1e-3)])
def test_pde_solver_tracks_the_image_sum_at_large_drift(drift, rel):
    """Survivals of 4.2e-6, 2.5e-9 and 2.1e-13."""
    assert pde_survival_1d(0.5, drift, UNIT) == pytest.approx(
        axis_survival_image(0.5, drift, UNIT), rel=rel, abs=0.0)


@pytest.mark.parametrize("t, drift, nx, match", [
    pytest.param(math.inf, 0.0, 4001, "t_target", id="infinite-time"),
    pytest.param(0.0, 0.0, 4001, "t_target", id="zero-time"),
    pytest.param(0.5, math.nan, 4001, "drift", id="nan-drift"),
    pytest.param(0.5, 0.0, 2, "nx", id="nx-2"),
    pytest.param(0.5, 0.0, 0, "nx", id="nx-0"),
    # |drift| dx = 1.2 and 1.25 >= sigma^2: no real symmetrisation
    pytest.param(0.5, 60.0, 101, "symmetrisation", id="drift-dx-1.2"),
    pytest.param(0.5, -2500.0, 4001, "symmetrisation", id="drift-dx-1.25"),
    # |drift| dx = 0.5, but rho^j spans exp(+-1098) across the grid
    pytest.param(0.5, 1000.0, 4001, "float range", id="scale-overflow"),
    # an even grid has no node at 0 for the point start
    pytest.param(0.5, 0.0, 100, "nx", id="nx-100"),
    pytest.param(0.5, 0.0, 4000, "nx", id="nx-4000"),
    # rho^j spans exp(+-20) and exp(+-50), so the terms' rounding outgrows a
    # survival near 1
    pytest.param(0.005, 20.0, 4001, "drift = 20 and t = 0.005", id="drift-20"),
    pytest.param(0.001, 50.0, 4001, "drift = 50 and t = 0.001", id="drift-50"),
])
def test_pde_solver_rejects_bad_input(t, drift, nx, match):
    with pytest.raises(ValueError, match=match):
        pde_survival_1d(t, drift, UNIT, nx=nx)


@pytest.mark.parametrize("nx", [4])
@pytest.mark.parametrize("e_m, sigma", [(1.0, 1.0), (3.0, 0.2)])
def test_pde_solver_rejects_grids_coarser_than_the_warm_up(nx, e_m, sigma):
    """The coarse grids that once fell below the warm-up Gaussian's width:
    the odd ones now give a survival (next test), the even one still raises,
    whatever e_m and sigma are, because 0 is not a node."""
    params = DetectorParams(e_m=e_m, sigma=sigma)
    with pytest.raises(ValueError, match="nx"):
        pde_survival_1d(0.5 * params.time_scale, 0.0, params, nx=nx)


@pytest.mark.parametrize("nx", [3, 5, 23])
@pytest.mark.parametrize("e_m, sigma", [(1.0, 1.0), (3.0, 0.2)])
def test_pde_solver_coarse_odd_grids_give_a_survival(nx, e_m, sigma):
    """One interior node decays as exp(-sigma^2 t/dx^2), dx = e_m."""
    params = DetectorParams(e_m=e_m, sigma=sigma)
    value = pde_survival_1d(0.5 * params.time_scale, 0.0, params, nx=nx)
    assert 0.0 < value < 1.0
    if nx == 3:
        assert value == pytest.approx(math.exp(-0.5), rel=1e-15)


@pytest.mark.parametrize("nx, pinned", [
    (101, 0.68541855576465),
    (201, 0.6854389661251175),
    (4001, 0.6854457498901146),
])
def test_pde_solver_fine_grids_keep_their_values(nx, pinned):
    value = pde_survival_1d(0.5, 0.0, UNIT, nx=nx)
    assert value == pinned
    # second order in dx: image - value = 0.0680 dx^2 on every grid
    dx = 2.0 / (nx - 1)
    assert (axis_survival_image(0.5, 0.0, UNIT) - value) / dx ** 2 == pytest.approx(
        0.0680, rel=1e-3)


@settings(max_examples=200)
@given(t=st.floats(1e-6, 1e3), drift=st.floats(-1e3, 1e3),
       nx=st.integers(1, 200).map(lambda k: 2 * k + 1))
@example(t=0.01, drift=0.0, nx=4001)  # the sum rounds to 1.0000000000000004
@example(t=1e-6, drift=0.0, nx=4001)
@example(t=0.0625, drift=50.0, nx=4001)
@example(t=1e3, drift=-2.0, nx=4001)
def test_pde_solver_returns_a_survival_or_raises(t, drift, nx):
    try:
        value = pde_survival_1d(t, drift, UNIT, nx=nx)
    except ValueError:
        return
    assert type(value) is float
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("drift", [0.0, 2.0, -3.0])
def test_pde_solver_long_time_survival_stays_positive(drift):
    # 1.2e-56 at drift 2: tiny, but its rounding is tinier, so the guard passes it
    assert 0.0 < pde_survival_1d(40.0, drift, UNIT) < 1e-20


def test_numpy_dst1_matches_scipy():
    from scipy.fft import dst

    rng = np.random.default_rng(5)
    for m in range(1, 601):
        v = rng.standard_normal(m)
        ref = dst(v, type=1, norm="ortho")
        assert np.max(np.abs(_dst1(v) - ref)) <= 1e-15 * np.max(np.abs(ref)), m


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


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, [0.5, math.nan], [[0.5], [0.0]]])
def test_survivals_reject_times_that_are_not_finite_and_positive(t):
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        axis_survival_image(t, 1.0, UNIT)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        axis_survival_spectral(t, UNIT)


def test_survivals_take_arrays_of_t():
    """A float gives a float; an array gives an array of its shape, each
    element the value of its time alone."""
    lit = params_for_intensity(1.0)
    ts = np.array([[0.1, 0.5], [1.0, 2.0]])
    for fn in (lambda t: axis_survival_image(t, lit.i_s, lit),
               lambda t: axis_survival_spectral(t, lit)):
        assert type(fn(0.5)) is float
        got = fn(ts)
        assert got.shape == ts.shape
        assert got.tolist() == [[fn(float(t)) for t in row] for row in ts]
    assert type(survival_3d(0.5, lit)) is float
    assert survival_3d(ts, lit) == pytest.approx(
        np.array([[survival_3d(float(t), lit) for t in row] for row in ts]), rel=1e-15, abs=0.0)


def test_image_sum_rejects_nan_drift():
    with pytest.raises(ValueError, match="drift"):
        axis_survival_image(0.5, math.nan, UNIT)


def test_image_sum_is_even_in_the_drift():
    """Negative drift used to overflow the image weights, warn and return 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert axis_survival_image(0.5, -50.0, UNIT) == 6.326050948194701e-254
    assert axis_survival_image(0.5, 50.0, UNIT) == 6.326050948194701e-254
    ts = np.geomspace(0.01, 5.0, 9)
    assert np.array_equal(axis_survival_image(ts, -2.5, UNIT), axis_survival_image(ts, 2.5, UNIT))


@settings(max_examples=300)
@given(ts=st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=1, max_size=6),
       drift=st.floats())
def test_image_sum_is_a_probability_or_raises(ts, drift):
    """Any drift, NaN and infinities included, and any positive times: every
    element is in [0, 1], or the call raises ValueError or TruncationError,
    and nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = axis_survival_image(np.array(ts), drift, UNIT)
        except (ValueError, TruncationError):
            return
    assert np.all((values >= 0.0) & (values <= 1.0)), values


CHECK_7_TIMES = np.geomspace(0.05, 10.0, 60)


def _quadrature_times(monkeypatch, x: float, dimension: int) -> np.ndarray:
    """Every t at which mean_fpt_quadrature evaluates an image sum at x."""
    seen = []
    image = analytic.axis_survival_image

    def record(t, *args, **kwargs):
        seen.append(np.atleast_1d(t))
        return image(t, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(analytic, "axis_survival_image", record)
        mean_fpt_quadrature(params_for_intensity(x), None, dimension)
    return np.concatenate(seen)


@pytest.mark.parametrize("x", [0.0, 1.0, 5.0, 1e4])
def test_batched_image_sum_is_the_scalar_sum(monkeypatch, x):
    """The array form sums each row in the order the scalar sum did: equal
    by == on check 7's grid and on every node of the survival quadrature."""
    p = params_for_intensity(x)
    ts = np.concatenate((CHECK_7_TIMES, _quadrature_times(monkeypatch, x, 1)))
    for drift in {0.0, p.i_s}:
        want = [image_survival_scalar(float(t), drift, p.e_m, p.sigma) for t in ts]
        assert axis_survival_image(ts, drift, p).tolist() == want


def _spectral_scalar(t: float) -> float:
    """The spectral survival at e_m = sigma = 1 as it was summed for one t,
    the Euler contraction on a 1-D series."""
    k = np.arange(60)
    odd = 2.0 * k + 1.0
    decay = np.exp(-odd ** 2 * math.pi ** 2 * 1.0 * t / 8.0)
    signed = (4.0 / math.pi) * np.where(k % 2 == 0, 1.0, -1.0) / odd * decay
    return min(1.0, max(0.0, float(_accelerated_alternating_sum(signed)[0])))


def test_batched_spectral_sum_matches_the_scalar_sum():
    ts = np.concatenate((CHECK_7_TIMES, np.geomspace(1e-6, 30.0, 301)))
    got = axis_survival_spectral(ts, UNIT)
    for t, value in zip(ts, got):
        assert abs(value - _spectral_scalar(float(t))) <= 4e-16, t


def test_spectral_short_time_limit():
    # acceleration keeps the slowly alternating small-t series at 1
    assert axis_survival_spectral(1e-12, UNIT) == 1.0


def test_spectral_survival_at_huge_time_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert axis_survival_spectral(1e306, UNIT) == 0.0


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


def test_double_series_rejects_nan():
    with pytest.raises(ValueError):
        f3_series(math.nan)


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


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("x, e_m, sigma", [
    (0.0, 1.0, 1.0), (1.0, 1.0, 1.0), (5.0, 1.0, 1.0), (50.0, 1.0, 1.0), (1e4, 1.0, 1.0),
    (1.0, 0.01, 5.0), (5000.0, 0.01, 5.0), (1.0, 3.0, 0.2), (5000.0, 3.0, 0.2),
])
def test_tanh_sinh_mean_matches_the_series(dimension, x, e_m, sigma):
    """The rule stops in units of its bracket. Stopped in units of time, at
    e_m^2/sigma^2 = 4e-6 the absolute floor of tolerance_for let two coarse
    levels of a mean of 8e-10 pass as agreeing, 1.1e-3 off at x = 5000."""
    p = params_for_intensity(x, e_m, sigma)
    mean = mean_fpt_1d(p) if dimension == 1 else mean_fpt_3d(p)
    assert mean_fpt_quadrature(p, None, dimension) == pytest.approx(mean, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("x", [1e4, 1e5])
def test_survival_quadrature_resolves_a_strong_drift(dimension, x):
    """The survival falls at t = 1/x. An adaptive rule bracketed from
    e_m^2/sigma^2 stepped over the drop at x = 1e4 and returned 0.0
    unchecked; the tanh-sinh rule on that bracket runs out of levels at
    x = 1e5, which the bracket from e_m/i_s resolves."""
    q = mean_fpt_quadrature(params_for_intensity(x), None, dimension)
    assert q != 0.0
    assert q == pytest.approx(1.0 / x, rel=1e-6, abs=0.0)


def test_tanh_sinh_raises_when_its_levels_run_out(monkeypatch):
    monkeypatch.setattr("photofpt.params._TS_LEVELS", 1)
    with pytest.raises(QuadratureError, match="tanh-sinh"):
        mean_fpt_quadrature(params_for_intensity(1.0), None, 1)


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
                   reason="rate_point forms the cube excess as rate*e_m/i_s - 1, whose "
                          "absolute error near 1e-16 exceeds the true excess at large x; "
                          "it reads -5.6e-16 at x = 100 and -4.4e-16 at x = 1e8")
@pytest.mark.parametrize("x", [100.0, 1e8])
def test_dark_fraction_3d_nonnegative_at_large_x(x):
    assert rate_point(params_for_intensity(x))["dark_fraction_3d"] >= 0.0


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
