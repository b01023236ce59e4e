"""Monte Carlo sampler: reproducibility, bias structure and agreement with
the closed forms. Seeds are fixed; every assertion that involves noise keeps
a three-standard-error margin or tests an ordering that holds at that seed.
"""
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox
from oracles import euler_walk_mean_1d, radial_fd_banded

from photofpt import mc
from photofpt.analytic import mean_fpt_1d, mean_fpt_3d
from photofpt.mc import (
    BETA,
    BOUNDARIES,
    EventStream,
    FPTEstimate,
    MCConfig,
    RichardsonFPT,
    _estimate,
    _sample,
    _substreams,
    simulate_event_stream,
    simulate_fpt_richardson,
    simulate_fpt_sphere_vs_cube,
    zscore,
)
from photofpt.params import DetectorParams, params_for_intensity
from photofpt.validation import radial_mean_exit_time, reference_mean

UNIT = DetectorParams(e_m=1.0, sigma=1.0)


def _times(config):
    """Hit time per path of the single leg at config.dt."""
    return _sample(config, (config.dt,))[:, 0]


@pytest.fixture(scope="module")
def richardson_unit_seed7():
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=20000, seed=7)
    return simulate_fpt_richardson(cfg)


def test_simulation_is_deterministic():
    cfg = MCConfig(params=params_for_intensity(2.0), dt=5e-3, n_paths=300, seed=123)
    assert simulate_fpt_richardson(cfg) == simulate_fpt_richardson(cfg)
    other = MCConfig(params=params_for_intensity(2.0), dt=5e-3, n_paths=300, seed=124)
    assert _times(other).mean() != _times(cfg).mean()


def test_path_subsets_are_prefix_stable():
    """Per-path substreams: a smaller ensemble is a bitwise prefix of a
    larger one at the same seed."""
    p = params_for_intensity(2.0)
    small = _times(MCConfig(params=p, dt=5e-3, n_paths=150, seed=123))
    large = _times(MCConfig(params=p, dt=5e-3, n_paths=300, seed=123))
    assert np.array_equal(small, large[:150], equal_nan=True)


def test_richardson_matches_closed_form(richardson_unit_seed7):
    assert mean_fpt_1d(UNIT) == 1.0
    assert abs(zscore(1.0, richardson_unit_seed7.extrapolated)) < 3.0


def test_beta_is_the_gaussian_overshoot_constant():
    assert BETA == pytest.approx(float(-mpmath.zeta(0.5) / mpmath.sqrt(2 * mpmath.pi)),
                                 rel=0, abs=1e-15)


def test_beta_literal_is_the_scipy_expression_bit_for_bit():
    # every pinned Monte Carlo value was drawn with the computed constant
    from scipy.special import zeta
    assert BETA == -float(zeta(0.5)) / math.sqrt(2 * math.pi)


@pytest.mark.parametrize("boundary", ["interval", "cube", "sphere"])
def test_each_leg_tests_its_shifted_threshold(monkeypatch, boundary):
    params = DetectorParams(e_m=2.0, sigma=0.5, i_s=0.3)
    cfg = MCConfig(params=params, dt=4e-3, n_paths=100, seed=2, boundary=boundary)
    dts = (cfg.dt, cfg.dt / 2.0, cfg.dt / 8.0)
    seen = []
    block = mc._block

    def spy(rngs, dim, legs, *rest):
        seen.append((len(rngs), [leg[3] for leg in legs]))
        return block(rngs, dim, legs, *rest)
    monkeypatch.setattr(mc, "_BLOCK", 32)
    monkeypatch.setattr(mc, "_block", spy)
    _sample(cfg, dts)
    assert [size for size, _ in seen] == [32, 32, 32, 4]
    expected = [2.0 - BETA * 0.5 * math.sqrt(dt) for dt in dts]
    for _, thresholds in seen:
        assert thresholds == pytest.approx(expected, rel=1e-15)


def _walk_mean(dt, shift=BETA):
    return euler_walk_mean_1d(0.0, dt, shift)


def test_richardson_bias_structure(richardson_unit_seed7):
    """O(dt) bias: each leg sits within 3 standard errors of the exact mean
    of the shifted walk at its step, whose bias is linear in dt, so the
    (2, -1) combination removes it; plain Euler's O(sqrt(dt)) bias would put
    the coarse leg more than 10 standard errors away."""
    coarse_mean, fine_mean = _walk_mean(5e-3), _walk_mean(2.5e-3)
    assert coarse_mean > fine_mean > 1.0
    assert 2.0 * fine_mean - coarse_mean == pytest.approx(1.0, abs=1e-9)
    plain = _walk_mean(5e-3, shift=0.0)
    for rich in (richardson_unit_seed7,
                 simulate_fpt_richardson(MCConfig(params=UNIT, dt=5e-3,
                                                  n_paths=20000, seed=8))):
        assert abs(zscore(coarse_mean, rich.coarse)) < 3.0
        assert abs(zscore(fine_mean, rich.fine)) < 3.0
        assert abs(zscore(1.0, rich.extrapolated)) < 3.0
        assert zscore(plain, rich.coarse) < -10.0
        assert rich.fine.dt_used == rich.coarse.dt_used / 2.0


def test_extrapolation_weights():
    """The extrapolation is the per-path combination 2 t(dt/2) - t(dt): its
    weights sum to one and cancel a bias c*dt."""
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=400, seed=9)
    coarse_t, fine_t = _sample(cfg, (cfg.dt, cfg.dt / 2.0)).T
    combined = 2.0 * fine_t - coarse_t
    rich = simulate_fpt_richardson(cfg)
    assert rich.extrapolated.mean == pytest.approx(combined.mean(), rel=1e-15)
    assert rich.extrapolated.mean == pytest.approx(2.0 * rich.fine.mean - rich.coarse.mean,
                                                   rel=1e-15)
    assert rich.extrapolated.std_err == pytest.approx(
        combined.std(ddof=1) / math.sqrt(combined.size), rel=1e-15)


def test_bias_shrinks_with_dt():
    """Exact means of the shifted walk: the bias halves with dt (O(dt)),
    where the unshifted walk's shrinks by sqrt(2) only; the sampled means
    follow the shifted walk at every step."""
    dts = (0.01, 0.005, 0.0025)
    exact = [_walk_mean(dt) for dt in dts]
    plain = [_walk_mean(dt, shift=0.0) for dt in dts]
    assert exact[0] > exact[1] > exact[2] > 1.0
    for i in (0, 1):
        assert (exact[i] - 1.0) / (exact[i + 1] - 1.0) == pytest.approx(2.0, rel=1e-6)
        assert (plain[i] - 1.0) / (plain[i + 1] - 1.0) == pytest.approx(math.sqrt(2.0), rel=0.05)
    for dt, mean, unshifted in zip(dts, exact, plain):
        est = _estimate(_times(MCConfig(params=UNIT, dt=dt, n_paths=2000, seed=11)), dt)
        assert abs(zscore(mean, est)) < 3.0
        assert zscore(unshifted, est) < -3.0


def test_richardson_cube_matches_series():
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=1500, seed=21,
                   dimension=3, boundary="cube")
    rich = simulate_fpt_richardson(cfg)
    assert abs(zscore(mean_fpt_3d(UNIT), rich.extrapolated)) < 3.0


def test_richardson_sphere_matches_radial_solver():
    # independent reference: radial finite differences, exact 1/3 here
    ref = radial_mean_exit_time(1.0, 1.0)
    assert ref == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert radial_mean_exit_time(2.0, 0.5) == pytest.approx(16.0 / 3.0, rel=1e-12)
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=2000, seed=31,
                   dimension=3, boundary="sphere")
    rich = simulate_fpt_richardson(cfg)
    assert abs(zscore(ref, rich.extrapolated)) < 3.0


@pytest.mark.parametrize("nr", [3, 11, 101, 4001])
@pytest.mark.parametrize("e_m, sigma", [(1.0, 1.0), (2.0, 0.5), (3.0, 0.2)])
def test_radial_closed_form_matches_banded_solve(nr, e_m, sigma):
    """The closed-form u_0 is the solution of the same tridiagonal system
    that LAPACK's banded solver finds, to the solver's round-off."""
    assert radial_mean_exit_time(e_m, sigma, nr=nr) == pytest.approx(
        radial_fd_banded(e_m, sigma, nr), rel=1e-12)


@pytest.mark.parametrize("e_m, sigma, nr, match", [
    pytest.param(1.0, 1.0, 2, "nr", id="nr-2"),
    pytest.param(1.0, 1.0, 1, "nr", id="nr-1"),
    pytest.param(1.0, 1.0, 0, "nr", id="nr-0"),
    pytest.param(math.inf, 1.0, 101, "e_m", id="em-inf"),
    pytest.param(math.nan, 1.0, 101, "e_m", id="em-nan"),
    pytest.param(0.0, 1.0, 101, "e_m", id="em-0"),
    pytest.param(-1.0, 1.0, 101, "e_m", id="em-negative"),
    pytest.param(1.0, 0.0, 101, "sigma", id="sigma-0"),
    pytest.param(1.0, math.inf, 101, "sigma", id="sigma-inf"),
    pytest.param(1.0, math.nan, 101, "sigma", id="sigma-nan"),
    pytest.param(1.0, -1.0, 101, "sigma", id="sigma-negative"),
])
def test_radial_solver_rejects_bad_input(e_m, sigma, nr, match):
    with pytest.raises(ValueError, match=match):
        radial_mean_exit_time(e_m, sigma, nr=nr)


@pytest.mark.parametrize("nr", [math.inf, math.nan, 101.5])
def test_radial_solver_rejects_a_grid_size_that_is_not_an_integer(nr):
    # inf and nan returned nan, and 101.5 a mean on no grid
    with pytest.raises(TypeError):
        radial_mean_exit_time(1.0, 1.0, nr=nr)


def test_reference_mean_per_boundary():
    """The mean a run is judged against: closed form, series, radial solve,
    and none for the drifted sphere."""
    p = params_for_intensity(1.5)
    assert reference_mean(p, "interval") == mean_fpt_1d(p)
    assert reference_mean(p, "cube") == mean_fpt_3d(p)
    assert reference_mean(UNIT, "sphere") == radial_mean_exit_time(1.0, 1.0)
    wide = DetectorParams(e_m=2.0, sigma=0.5)
    assert reference_mean(wide, "sphere") == radial_mean_exit_time(2.0, 0.5)
    assert reference_mean(p, "sphere") is None
    with pytest.raises(ValueError):
        reference_mean(UNIT, "ball")


def test_sphere_inside_cube():
    base = MCConfig(params=UNIT, dt=5e-3, n_paths=500, seed=5,
                    dimension=3, boundary="cube")
    comp = simulate_fpt_sphere_vs_cube(UNIT, base)
    assert comp.pathwise_sphere_le_cube
    assert comp.sphere.mean < comp.cube.mean
    assert 0.65 < comp.ratio < 0.82
    assert comp.ratio_err < 0.05


@pytest.mark.parametrize("x", [0.0, 2.0])
def test_shifted_sphere_absorbs_no_later_than_shifted_cube(x):
    """Both boundaries move in by the same BETA*sigma*sqrt(dt), so the sphere
    stays inscribed in the cube: at 5e-3, the coarsest step of any acceptance
    check, it absorbs no later on every path."""
    base = MCConfig(params=params_for_intensity(x), dt=5e-3, n_paths=5000, seed=41,
                    dimension=3, boundary="cube")
    sphere_t, cube_t = _sample(base, (base.dt,), ("sphere", "cube")).T
    assert not np.isnan(cube_t).any()
    assert np.all(sphere_t <= cube_t)
    assert np.any(sphere_t < cube_t)


def test_sphere_cube_requires_3d_base():
    base = MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=5)
    with pytest.raises(ValueError):
        simulate_fpt_sphere_vs_cube(UNIT, base)


@pytest.fixture(scope="module")
def stream_x2():
    cfg = MCConfig(params=params_for_intensity(2.0), dt=2e-4, n_paths=100, seed=12345)
    return cfg, simulate_event_stream(cfg, horizon=200.0)


def test_event_stream_reproducible(stream_x2):
    cfg, stream = stream_x2
    assert simulate_event_stream(cfg, horizon=200.0) == stream


def test_event_stream_is_consistent(stream_x2):
    _, stream = stream_x2
    times = np.asarray(stream.event_times)
    assert times.size > 100
    assert times[0] > 0.0
    assert np.all(np.diff(times) > 0.0)
    assert times[-1] <= stream.horizon
    assert stream.rate == stream.count / stream.horizon


def test_event_stream_intervals_are_fpt_samples(stream_x2):
    """Interval i consumes substream i: the cumulative event times equal the
    running sum of independently drawn first-passage samples bit for bit."""
    cfg, stream = stream_x2
    probe = _times(cfg)  # first 100 substreams
    cum = np.cumsum(probe)
    assert np.array_equal(np.asarray(stream.event_times)[:100], cum)
    assert np.allclose(stream.interarrivals()[:100], probe, rtol=0.0, atol=1e-12)


def test_event_stream_is_a_prefix_across_horizons(monkeypatch):
    """Paths walk in blocks, but the stream stops at its horizon: one that
    ends inside a block gives a bit-identical prefix of a longer horizon's
    stream, at the default block size and at one of 7 paths. Every block
    is full, so a short stream walks fewer than _BLOCK intervals past the
    ones it uses."""
    cfg = MCConfig(params=params_for_intensity(8.0), dt=1e-3, n_paths=100, seed=77)
    longer = simulate_event_stream(cfg, horizon=60.0)
    stream = simulate_event_stream(cfg, horizon=25.0)
    assert (stream.count + 1) % mc._BLOCK            # no censoring: count + 1 intervals
    assert longer.count > stream.count + mc._BLOCK
    assert longer.event_times[:stream.count] == stream.event_times
    walked = []
    block = mc._block
    monkeypatch.setattr(mc, "_block", lambda rngs, *rest: walked.append(len(rngs))
                        or block(rngs, *rest))
    short = simulate_event_stream(cfg, horizon=1.0)
    assert short.event_times == stream.event_times[:short.count]
    assert sum(walked) < short.count + 1 + mc._BLOCK
    monkeypatch.setattr(mc, "_BLOCK", 7)
    assert simulate_event_stream(cfg, horizon=25.0) == stream


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_event_stream_rejects_a_non_finite_horizon(horizon):
    """An infinite horizon would walk forever; it and a NaN raise before
    any path is walked."""
    cfg = MCConfig(params=params_for_intensity(2.0), dt=1e-2, n_paths=100, seed=1)
    with pytest.raises(ValueError, match="finite"):
        simulate_event_stream(cfg, horizon)


def test_event_stream_rate_matches_inverse_mean(stream_x2):
    cfg, stream = stream_x2
    gaps = stream.interarrivals()
    est = _estimate(gaps, cfg.dt)
    assert abs(zscore(mean_fpt_1d(cfg.params), est)) < 3.0


def test_event_stream_strong_signal_regularity():
    """At x = 25 the detector clicks almost periodically: interarrival
    variance far below the squared mean (an exponential stream has 1)."""
    cfg = MCConfig(params=params_for_intensity(25.0), dt=2e-4, n_paths=100, seed=12)
    stream = simulate_event_stream(cfg, horizon=100.0)
    gaps = stream.interarrivals()
    assert gaps.var(ddof=1) / gaps.mean() ** 2 < 0.1
    assert stream.rate == pytest.approx(25.0, rel=0.05)


def test_event_stream_rejects_bad_horizon():
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=100, seed=1)
    with pytest.raises(ValueError):
        simulate_event_stream(cfg, horizon=0.0)


def test_zscore_behaviour(richardson_unit_seed7):
    est = FPTEstimate(mean=1.0, std_err=0.1, n_absorbed=100, n_censored=0, dt_used=0.01)
    assert zscore(1.0, est) == 0.0
    # a 10% error in the reference value must be flagged loudly
    assert abs(zscore(0.9, richardson_unit_seed7.extrapolated)) > 3.0
    lonely = FPTEstimate(mean=1.0, std_err=0.0, n_absorbed=1, n_censored=0, dt_used=0.01)
    with pytest.raises(ValueError):
        zscore(1.0, lonely)


@pytest.mark.parametrize("kwargs", [
    dict(dt=0.02),                       # above 0.01 * time scale
    dict(dt=0.0),
    dict(dt=-1e-3),
    dict(n_paths=50),
    dict(dimension=2),
    dict(boundary="ball"),
    dict(dimension=3),                   # interval boundary needs dim 1
    dict(boundary="cube", dimension=1),  # and cube has dim 3
    dict(seed=2 ** 64),
    dict(seed=-1),
    dict(dt=math.nan),                   # fails every comparison
    dict(params=params_for_intensity(11.0)),  # dt above 0.05 * e_m/i_s
])
def test_config_validation(kwargs):
    base = dict(params=UNIT, dt=5e-3, n_paths=200, seed=1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        MCConfig(**base)


@pytest.mark.parametrize("params, dt", [
    (DetectorParams(e_m=1e153, sigma=0.1), 1e-3),  # 100 e_m**2/sigma**2 overflows
    (UNIT, 1e-323),                                # the cap over dt/2 overflows
    (params_for_intensity(0.0), 5e-324),           # dt/2 underflows to 0
], ids=["cap-overflows", "step-count-overflows", "half-step-underflows"])
def test_config_rejects_parameters_without_finite_step_cap(params, dt):
    with pytest.raises(ValueError, match=r"dt=.* time scale e_m\*\*2/sigma\*\*2="):
        MCConfig(params=params, dt=dt, n_paths=100, seed=1)


@pytest.mark.parametrize("params, boundary, dt, shortest", [
    (UNIT, "interval", 1e-9, 2e-6),               # 5e8 steps of dt/2 per unit time
    (UNIT, "interval", 1.99e-6, 2e-6),
    (UNIT, "cube", 6.6e-7, 2e-6 / 3.0),           # the exit time is 1/3 in 3D
    (params_for_intensity(1e12), "interval", 1e-19, 2e-18),  # drift time e_m/i_s = 1e-12
], ids=["interval-1e-9", "interval-just-below", "cube", "drift-time"])
def test_config_bounds_the_steps_per_exit_time(params, boundary, dt, shortest):
    """At most 1e6 steps of dt/2 per exit time min(e_m**2/(dim sigma**2),
    e_m/i_s): 100 paths at dt = 1e-7 took 46 s, and dt = 1e-300 never ends."""
    with pytest.raises(ValueError, match=f"too fine; need dt >= {shortest:g}"):
        MCConfig(params=params, dt=dt, n_paths=100, seed=1, boundary=boundary)
    MCConfig(params=params, dt=shortest, n_paths=100, seed=1, boundary=boundary)


def test_config_derives_max_time():
    # no cap longer than the derived one could change a result
    with pytest.raises(TypeError, match="max_time"):
        MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=1, max_time=200.0)
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=1)
    assert replace(cfg, params=DetectorParams(e_m=2.0, sigma=1.0)).max_time == 400.0
    with pytest.raises(ValueError, match="max_time"):
        replace(cfg, max_time=200.0)


@pytest.mark.parametrize("boundary, dimension", [
    ("interval", 1), ("cube", 3), ("sphere", 3),
    # equal to the boundary's dimension, but not an int: the walk's shapes
    # failed on them inside numpy
    ("cube", 3.0), pytest.param("sphere", np.int64(3), id="sphere-int64"), ("interval", True),
])
def test_config_derives_dimension_from_boundary(boundary, dimension):
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=1, boundary=boundary)
    assert cfg.dimension == BOUNDARIES[boundary]
    given = MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=1, boundary=boundary,
                     dimension=dimension)
    assert given == cfg
    assert type(given.dimension) is int
    rich = simulate_fpt_richardson(given)
    assert rich.fine.n_absorbed == 200 and math.isfinite(rich.extrapolated.mean)


@pytest.mark.parametrize("boundary, dimension", [("sphere", 1), ("interval", 3)])
def test_config_rejects_a_dimension_its_boundary_lacks(boundary, dimension):
    with pytest.raises(ValueError, match=f"the {boundary} boundary has dimension"):
        MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=1, boundary=boundary,
                 dimension=dimension)


@pytest.mark.parametrize("seed", [3.5, -0.5, "7", np.float64(3.0)])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    # Philox would run seed 3 for 3.5 and seed 7 for "7"
    with pytest.raises(TypeError):
        MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=seed)


@pytest.mark.parametrize("n_paths", [1000.0, "1000"])
def test_config_rejects_a_path_count_that_is_not_an_integer(n_paths):
    # a float would pass the range check and fail only in the first walk
    with pytest.raises(TypeError):
        MCConfig(params=UNIT, dt=5e-3, n_paths=n_paths, seed=1)


def test_numpy_integer_seed_gives_the_same_ensemble():
    cfg = _config(1.0, "interval", seed=5)
    assert np.array_equal(_times(replace(cfg, seed=np.uint64(5))), _times(cfg), equal_nan=True)


def test_config_defaults():
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=200, seed=1)
    assert cfg.max_time == 100.0
    # 20 coarse steps per drift time is the coarsest step allowed
    MCConfig(params=params_for_intensity(10.0), dt=5e-3, n_paths=200, seed=1)
    assert cfg.steps_cap(5e-3) == 20000
    scaled = MCConfig(params=DetectorParams(e_m=2.0, sigma=1.0), dt=0.04,
                      n_paths=200, seed=1)
    assert scaled.max_time == 400.0


def test_event_stream_validation():
    with pytest.raises(ValueError):
        EventStream(event_times=(0.5, 0.4), horizon=1.0)
    with pytest.raises(ValueError):
        EventStream(event_times=(0.5, 1.5), horizon=1.0)
    with pytest.raises(ValueError):
        EventStream(event_times=(-0.1,), horizon=1.0)
    # a nan fails every comparison, so it must not pass as ordered
    for times in ((math.nan,), (0.5, math.nan, 0.7)):
        with pytest.raises(ValueError, match="finite"):
            EventStream(event_times=times, horizon=1.0)
    with pytest.raises(ValueError):
        EventStream(event_times=(), horizon=0.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            EventStream(event_times=(), horizon=horizon)
    empty = EventStream(event_times=(), horizon=2.0)
    assert empty.count == 0
    assert empty.rate == 0.0
    assert empty.interarrivals().size == 0


def test_estimate_properties():
    # a nan time is a censored path
    est = _estimate(np.array([1.0, np.nan, 2.0, 3.0]), 0.01)
    assert est.mean == 2.0
    assert est.std_err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert est.n_absorbed == 3
    assert est.n_paths == 4
    assert est.censored_fraction == 0.25
    assert est.unreliable
    assert est.dt_used == 0.01
    clean = _estimate(np.array([1.0, 2.0]), 0.01)
    assert not clean.unreliable
    with pytest.raises(ValueError):
        _estimate(np.array([1.0, np.nan]), 0.01)


@pytest.mark.xfail(strict=True,
                   reason="adding drift does not shorten every individual path: "
                          "with shared noise, a fifth of the paths absorb later "
                          "under drift (only the mean is ordered)")
def test_drift_speeds_up_every_path():
    dark = MCConfig(params=UNIT, dt=1e-3, n_paths=3000, seed=3)
    lit = MCConfig(params=DetectorParams(e_m=1.0, sigma=1.0, i_s=2.0),
                   dt=1e-3, n_paths=3000, seed=3)
    t_dark = _times(dark)
    t_lit = _times(lit)
    assert np.all(t_lit <= t_dark)


# ---------------------------------------------------------------------------
# the shared-draw Euler kernel

def _config(x, boundary, dt=1e-2, n_paths=100, seed=3, max_time=None):
    cfg = MCConfig(params=params_for_intensity(x), dt=dt, n_paths=n_paths, seed=seed,
                   boundary=boundary)
    if max_time is not None:
        # below the validated minimum, so that paths get censored
        object.__setattr__(cfg, "max_time", max_time)
    return cfg


def test_substream_reset_matches_fresh_generator():
    """A pooled slot last used under seed 99, partly consumed, is reset to
    the fresh generator of (seed, index); seed 2**63 + 5 rewrites the key."""
    for seed, index in itertools.product((99, 2 ** 63 + 5), (5, 0, 2 ** 40)):
        rng, = _substreams(Philox(key=99).state, 3, 1)
        rng.standard_normal(7)                 # partly consumed Philox block
        rng.random(dtype=np.float32)           # and a buffered 32-bit half
        reset, = _substreams(Philox(key=seed).state, index, 1)
        assert reset is rng
        fresh = Generator(Philox(key=seed, counter=[0, 0, 0, index]))
        assert np.array_equal(reset.standard_normal(1001), fresh.standard_normal(1001))


def _walk(config):
    return mc._walks(config, (config.dt,), None, config.n_paths)


def test_interleaved_walks_yield_what_each_yields_alone():
    """Two walks share one generator pool; consumed block by block in turn,
    each yields exactly its blocks when consumed alone."""
    configs = [_config(1.0, "interval", n_paths=300, seed=seed) for seed in (3, 2 ** 63 + 5)]
    alone = [list(_walk(cfg)) for cfg in configs]
    walks = [_walk(cfg) for cfg in configs]
    together = [[next(walk) for walk in walks] for _ in range(3)]
    assert [next(walk, None) for walk in walks] == [None, None]
    for blocks, turns in zip(alone, zip(*together)):
        assert len(blocks) == 3
        assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(blocks, turns))
    assert not np.array_equal(alone[0][0], alone[1][0], equal_nan=True)


def test_richardson_after_a_broken_off_stream_is_unchanged():
    """A stream stops inside a block and leaves its generators partly
    consumed under its own seed; a Richardson run afterwards gives what it
    gives in a thread whose pool is new."""
    rich = _config(2.0, "interval", n_paths=300, seed=11)
    with ThreadPoolExecutor(max_workers=1) as pool:
        first = pool.submit(simulate_fpt_richardson, rich).result()
    cfg = MCConfig(params=params_for_intensity(8.0), dt=1e-3, n_paths=100, seed=77)
    assert simulate_event_stream(cfg, horizon=25.0).count % mc._BLOCK
    assert simulate_fpt_richardson(rich) == first


def test_threads_reproduce_their_serial_samples():
    """Each thread walks its own pool: two threads sampling different seeds
    at once, over blocks of several GIL switch intervals each, give their
    serial results bit for bit."""
    configs = [_config(0.0, "interval", dt=1e-3, n_paths=1280, seed=seed) for seed in (21, 22)]
    serial = [_times(cfg) for cfg in configs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(_times, configs))
    for alone, both in zip(serial, threaded):
        assert np.array_equal(alone, both, equal_nan=True)


@pytest.mark.parametrize("config, dts, boundaries", [
    (_config(2.0, "interval"), (1e-2, 5e-3), None),
    (_config(0.0, "cube"), (1e-2, 5e-3), None),
    (_config(1.0, "cube"), (1e-2,), ("sphere", "cube")),
    (_config(0.0, "interval", max_time=0.3), (1e-2, 5e-3), None),
    (_config(0.0, "sphere", max_time=0.2), (1e-2, 5e-3), None),
], ids=["rich1d", "rich_cube", "sphere_vs_cube", "censored_1d", "censored_sphere"])
def test_hit_times_do_not_depend_on_chunk_schedule(monkeypatch, config, dts, boundaries):
    default = _sample(config, dts, boundaries)
    assert config.n_paths % 3 and config.n_paths <= mc._BLOCK  # one block by default
    dim, cap = config.dimension, config.steps_cap(min(dts))
    # (steps per chunk allowed by the memory bound, chunk cost, paths per block)
    schedules = [
        (3, 32, 3),              # 3 steps per chunk, blocks of 3 paths and a last of 1
        (3, 32, 1),              # 3 steps per chunk, one path per block
        (cap, 1e12, 1),          # the whole step cap in one chunk, one path per block
        (math.inf, 32, 3),       # the default chunk, blocks of 3
    ]
    walk, chunks = mc._block, set()
    monkeypatch.setattr(mc, "_block", lambda *args: chunks.add(args[4]) or walk(*args))
    for steps, chunk_cost, block in schedules:
        monkeypatch.setattr(mc, "_BLOCK_NORMALS", steps * block * dim)
        monkeypatch.setattr(mc, "_CHUNK_COST", chunk_cost)
        monkeypatch.setattr(mc, "_BLOCK", block)
        chunks.clear()
        other = _sample(config, dts, boundaries)
        assert np.array_equal(default, other, equal_nan=True), (steps, chunk_cost, block)
        assert len(chunks) == 1 and (steps == math.inf or chunks == {steps})
    if config.max_time < 1.0:
        assert np.isnan(default).any() and not np.isnan(default).all()


@pytest.mark.parametrize("boundary", ["interval", "cube", "sphere"])
def test_richardson_legs_are_single_leg_samples(boundary):
    cfg = _config(1.0, boundary, n_paths=200, seed=4)
    legs = _sample(cfg, (cfg.dt, cfg.dt / 2.0))
    fine = replace(cfg, dt=cfg.dt / 2.0)
    assert np.array_equal(legs[:, 0], _times(cfg))
    assert np.array_equal(legs[:, 1], _times(fine))
    rich = simulate_fpt_richardson(cfg)
    assert rich.coarse == _estimate(_times(cfg), cfg.dt)
    assert rich.fine == _estimate(_times(fine), fine.dt)


def test_sphere_vs_cube_times_are_each_boundary_alone():
    base = _config(2.0, "cube", n_paths=200, seed=6)
    sphere = replace(base, boundary="sphere")
    both = _sample(base, (base.dt,), ("sphere", "cube"))
    assert np.array_equal(both[:, 0], _times(sphere))
    assert np.array_equal(both[:, 1], _times(base))
    comp = simulate_fpt_sphere_vs_cube(base.params, base)
    assert comp.sphere == _estimate(_times(sphere), base.dt)
    assert comp.cube == _estimate(_times(base), base.dt)


def _est(mean, std_err, n_absorbed, n_censored, dt_used):
    return FPTEstimate(mean=mean, std_err=std_err, n_absorbed=n_absorbed,
                       n_censored=n_censored, dt_used=dt_used)


# Estimates of the boundary-shifted kernel. With the shift set to 0 the same
# kernel reproduces, by repr, every coarse and fine leg pinned before the
# shift, which were in turn those of an earlier implementation that walked
# every leg and boundary on its own substream pass.
def test_pinned_richardson_estimates():
    assert simulate_fpt_richardson(_config(2.0, "interval", n_paths=300, seed=11)) == RichardsonFPT(
        coarse=_est(0.4443000000000001, 0.014782915581443035, 300, 0, 0.01),
        fine=_est(0.4600333333333333, 0.016856350809594814, 300, 0, 0.005),
        extrapolated=_est(0.4757666666666667, 0.02802549477686206, 300, 0, 0.01))
    assert simulate_fpt_richardson(_config(0.0, "sphere", n_paths=200, seed=12)) == RichardsonFPT(
        coarse=_est(0.32034999999999997, 0.013172298002754374, 200, 0, 0.01),
        fine=_est(0.35125, 0.016448516833749805, 200, 0, 0.005),
        extrapolated=_est(0.38215, 0.03060223638656653, 200, 0, 0.01))
    # paths of 5000 to 10000 steps, several chunks each
    assert simulate_fpt_richardson(_config(0.0, "cube", dt=1e-4, seed=6)) == RichardsonFPT(
        coarse=_est(0.49953400000000003, 0.039158612949403766, 100, 0, 1e-4),
        fine=_est(0.45655000000000007, 0.028688116561011494, 100, 0, 5e-5),
        extrapolated=_est(0.41356599999999993, 0.04283564493750644, 100, 0, 1e-4))
    censored = _config(0.0, "interval", dt=1e-3, n_paths=300, seed=14, max_time=1.0)
    assert simulate_fpt_richardson(censored) == RichardsonFPT(
        coarse=_est(0.4969886363636364, 0.018500184254323516, 176, 124, 1e-3),
        fine=_est(0.5375165745856353, 0.019017159669281105, 181, 119, 5e-4),
        extrapolated=_est(0.4192290076335878, 0.0386083646492679, 131, 169, 1e-3))


def test_pinned_sphere_vs_cube_estimates():
    base = _config(2.0, "cube", n_paths=200, seed=13)
    comp = simulate_fpt_sphere_vs_cube(base.params, base)
    assert comp.sphere == _est(0.28955, 0.010541208320886253, 200, 0, 0.01)
    assert comp.cube == _est(0.3702500000000001, 0.013838704281142238, 200, 0, 0.01)
    assert (comp.ratio, comp.ratio_err) == (0.7820391627278863, 0.01857969201190384)
