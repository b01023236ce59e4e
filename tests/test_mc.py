"""Monte Carlo sampler: reproducibility, bias structure and agreement with
the closed forms. Seeds are fixed; every assertion that involves noise keeps
a three-standard-error margin or tests an ordering that holds at that seed.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from photofpt import mc
from photofpt.analytic import mean_fpt_1d, mean_fpt_3d
from photofpt.mc import (
    C_COARSE,
    C_FINE,
    EventStream,
    FPTEstimate,
    MCConfig,
    RichardsonFPT,
    _sample,
    _sample_times,
    _substreams,
    simulate_event_stream,
    simulate_fpt,
    simulate_fpt_richardson,
    simulate_fpt_sphere_vs_cube,
    zscore,
)
from photofpt.params import DetectorParams, params_for_intensity
from photofpt.validation import radial_mean_exit_time

UNIT = DetectorParams(e_m=1.0, sigma=1.0)


@pytest.fixture(scope="module")
def richardson_unit_seed7():
    cfg = MCConfig(params=UNIT, dt=5e-3, n_paths=20000, seed=7)
    return simulate_fpt_richardson(cfg)


def test_simulation_is_deterministic():
    cfg = MCConfig(params=params_for_intensity(2.0), dt=5e-3, n_paths=300, seed=123)
    assert simulate_fpt(cfg) == simulate_fpt(cfg)
    other = MCConfig(params=params_for_intensity(2.0), dt=5e-3, n_paths=300, seed=124)
    assert simulate_fpt(other).mean != simulate_fpt(cfg).mean


def test_path_subsets_are_prefix_stable():
    """Per-path substreams: a smaller ensemble is a bitwise prefix of a
    larger one at the same seed."""
    p = params_for_intensity(2.0)
    small = _sample_times(MCConfig(params=p, dt=5e-3, n_paths=150, seed=123), 5e-3)
    large = _sample_times(MCConfig(params=p, dt=5e-3, n_paths=300, seed=123), 5e-3)
    assert np.array_equal(small, large[:150], equal_nan=True)


def test_richardson_matches_closed_form(richardson_unit_seed7):
    assert mean_fpt_1d(UNIT) == 1.0
    assert abs(zscore(1.0, richardson_unit_seed7.extrapolated)) < 3.0


def test_richardson_bias_structure(richardson_unit_seed7):
    """Positive O(sqrt(dt)) bias: coarse above fine, extrapolation closest."""
    for rich in (richardson_unit_seed7,
                 simulate_fpt_richardson(MCConfig(params=UNIT, dt=5e-3,
                                                  n_paths=20000, seed=8))):
        assert rich.coarse.mean >= rich.fine.mean
        assert abs(rich.extrapolated.mean - 1.0) <= abs(rich.coarse.mean - 1.0)
        assert rich.fine.dt_used == rich.coarse.dt_used / 2.0


def test_extrapolation_weights():
    assert C_FINE - C_COARSE == pytest.approx(1.0, rel=1e-15)
    assert C_FINE / C_COARSE == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_bias_shrinks_with_dt():
    means = [simulate_fpt(MCConfig(params=UNIT, dt=dt, n_paths=2000, seed=11)).mean
             for dt in (0.01, 0.005, 0.0025)]
    assert means[0] > means[1] > means[2] > 1.0


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


def test_sphere_inside_cube():
    base = MCConfig(params=UNIT, dt=5e-3, n_paths=500, seed=5,
                    dimension=3, boundary="cube")
    comp = simulate_fpt_sphere_vs_cube(UNIT, base)
    assert comp.pathwise_sphere_le_cube
    assert comp.sphere.mean < comp.cube.mean
    assert 0.65 < comp.ratio < 0.82
    assert comp.ratio_err < 0.05


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
    probe = _sample_times(cfg, cfg.dt)  # first 100 substreams
    cum = np.cumsum(probe)
    assert np.array_equal(np.asarray(stream.event_times)[:100], cum)
    assert np.allclose(stream.interarrivals()[:100], probe, rtol=0.0, atol=1e-12)


def test_event_stream_rate_matches_inverse_mean(stream_x2):
    cfg, stream = stream_x2
    gaps = stream.interarrivals()
    est = FPTEstimate.from_samples(gaps, 0, cfg.dt)
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
    dict(boundary="cube"),               # and cube needs dim 3
    dict(seed=2 ** 64),
    dict(seed=-1),
    dict(max_time=50.0),                 # below 100 * time scale
    dict(params=params_for_intensity(11.0)),  # dt above 0.05 * e_m/i_s
])
def test_config_validation(kwargs):
    base = dict(params=UNIT, dt=5e-3, n_paths=200, seed=1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        MCConfig(**base)


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
    with pytest.raises(ValueError):
        EventStream(event_times=(), horizon=0.0)
    empty = EventStream(event_times=(), horizon=2.0)
    assert empty.count == 0
    assert empty.rate == 0.0
    assert empty.interarrivals().size == 0


def test_estimate_properties():
    est = FPTEstimate.from_samples(np.array([1.0, 2.0, 3.0]), 1, 0.01)
    assert est.mean == 2.0
    assert est.std_err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert est.n_paths == 4
    assert est.censored_fraction == 0.25
    assert est.unreliable
    clean = FPTEstimate.from_samples(np.array([1.0, 2.0]), 0, 0.01)
    assert not clean.unreliable
    with pytest.raises(ValueError):
        FPTEstimate.from_samples(np.array([1.0]), 0, 0.01)


@pytest.mark.xfail(strict=True,
                   reason="adding drift does not shorten every individual path: "
                          "with shared noise, a fifth of the paths absorb later "
                          "under drift (only the mean is ordered)")
def test_drift_speeds_up_every_path():
    dark = MCConfig(params=UNIT, dt=1e-3, n_paths=3000, seed=3)
    lit = MCConfig(params=DetectorParams(e_m=1.0, sigma=1.0, i_s=2.0),
                   dt=1e-3, n_paths=3000, seed=3)
    t_dark = _sample_times(dark, 1e-3)
    t_lit = _sample_times(lit, 1e-3)
    assert np.all(t_lit <= t_dark)


# ---------------------------------------------------------------------------
# the shared-draw Euler kernel

def _config(x, boundary, dt=1e-2, n_paths=100, seed=3, max_time=None):
    cfg = MCConfig(params=params_for_intensity(x), dt=dt, n_paths=n_paths, seed=seed,
                   dimension=1 if boundary == "interval" else 3, boundary=boundary)
    if max_time is not None:
        # below the validated minimum, so that paths get censored
        object.__setattr__(cfg, "max_time", max_time)
    return cfg


def test_substream_reset_matches_fresh_generator():
    substream = _substreams(99)
    for index in (5, 0, 2 ** 40):
        rng = substream(3)
        rng.standard_normal(7)                 # partly consumed Philox block
        rng.random(dtype=np.float32)           # and a buffered 32-bit half
        fresh = Generator(Philox(key=99, counter=[0, 0, 0, index]))
        assert np.array_equal(substream(index).standard_normal(1001),
                              fresh.standard_normal(1001))


@pytest.mark.parametrize("config, dts, boundaries", [
    (_config(2.0, "interval"), (1e-2, 5e-3), None),
    (_config(0.0, "cube"), (1e-2, 5e-3), None),
    (_config(1.0, "cube"), (1e-2,), ("sphere", "cube")),
    (_config(0.0, "interval", max_time=0.3), (1e-2, 5e-3), None),
    (_config(0.0, "sphere", max_time=0.2), (1e-2, 5e-3), None),
], ids=["rich1d", "rich_cube", "sphere_vs_cube", "censored_1d", "censored_sphere"])
def test_hit_times_do_not_depend_on_chunk_schedule(monkeypatch, config, dts, boundaries):
    default = _sample(config, dts, boundaries)
    monkeypatch.setattr(mc, "_MIN_CHUNK", 3)
    monkeypatch.setattr(mc, "_CHUNK_COST", 0.0)    # 3 steps per chunk
    tiny = _sample(config, dts, boundaries)
    monkeypatch.setattr(mc, "_CHUNK_COST", 1e12)   # the whole step cap in one chunk
    whole = _sample(config, dts, boundaries)
    assert np.array_equal(default, tiny, equal_nan=True)
    assert np.array_equal(default, whole, equal_nan=True)
    if config.max_time < 1.0:
        assert np.isnan(default).any() and not np.isnan(default).all()


@pytest.mark.parametrize("boundary", ["interval", "cube", "sphere"])
def test_richardson_legs_are_single_leg_samples(boundary):
    cfg = _config(1.0, boundary, n_paths=200, seed=4)
    legs = _sample(cfg, (cfg.dt, cfg.dt / 2.0))
    assert np.array_equal(legs[:, 0], _sample_times(cfg, cfg.dt))
    assert np.array_equal(legs[:, 1], _sample_times(cfg, cfg.dt / 2.0))
    rich = simulate_fpt_richardson(cfg)
    assert rich.coarse == simulate_fpt(cfg)
    assert rich.fine == simulate_fpt(replace(cfg, dt=cfg.dt / 2.0))


def test_sphere_vs_cube_times_are_each_boundary_alone():
    base = _config(2.0, "cube", n_paths=200, seed=6)
    sphere = replace(base, boundary="sphere")
    both = _sample(base, (base.dt,), ("sphere", "cube"))
    assert np.array_equal(both[:, 0], _sample_times(sphere, base.dt))
    assert np.array_equal(both[:, 1], _sample_times(base, base.dt))
    comp = simulate_fpt_sphere_vs_cube(base.params, base)
    assert comp.sphere == simulate_fpt(sphere)
    assert comp.cube == simulate_fpt(base)


def _est(mean, std_err, n_absorbed, n_censored, dt_used):
    return FPTEstimate(mean=mean, std_err=std_err, n_absorbed=n_absorbed,
                       n_censored=n_censored, dt_used=dt_used)


# Estimates computed by the earlier implementation, which walked every leg
# and boundary on its own substream pass; the shared-draw kernel must
# reproduce them exactly.
def test_pinned_richardson_estimates():
    assert simulate_fpt_richardson(_config(2.0, "interval", n_paths=300, seed=11)) == RichardsonFPT(
        coarse=_est(0.47930000000000006, 0.01547333917404691, 300, 0, 0.01),
        fine=_est(0.48028333333333334, 0.01707110218259868, 300, 0, 0.005),
        extrapolated=_est(0.48265731000300016, 0.0470063045598808, 300, 0, 0.01))
    assert simulate_fpt_richardson(_config(0.0, "sphere", n_paths=200, seed=12)) == RichardsonFPT(
        coarse=_est(0.35814999999999997, 0.014935552926022867, 200, 0, 0.01),
        fine=_est(0.38292499999999996, 0.017951087840246373, 200, 0, 0.005),
        extrapolated=_est(0.44273714100779343, 0.057474927917328535, 200, 0, 0.01))
    # paths of 5000 to 10000 steps, several chunks each
    assert simulate_fpt_richardson(_config(0.0, "cube", dt=1e-4, seed=6)) == RichardsonFPT(
        coarse=_est(0.5034730000000001, 0.039272186777063046, 100, 0, 1e-4),
        fine=_est(0.45773350000000007, 0.028687775025023527, 100, 0, 5e-5),
        extrapolated=_est(0.34730857876383586, 0.07958223139684278, 100, 0, 1e-4))
    censored = _config(0.0, "interval", dt=1e-3, n_paths=300, seed=14, max_time=1.0)
    assert simulate_fpt_richardson(censored) == RichardsonFPT(
        coarse=_est(0.49960119047619045, 0.018698570069940145, 168, 132, 1e-3),
        fine=_est(0.5439608938547486, 0.01931693281126968, 179, 121, 5e-4),
        extrapolated=_est(0.37504233095852224, 0.07023154182758293, 126, 174, 1e-3))


def test_pinned_sphere_vs_cube_estimates():
    base = _config(2.0, "cube", n_paths=200, seed=13)
    comp = simulate_fpt_sphere_vs_cube(base.params, base)
    assert comp.sphere == _est(0.32435, 0.012525467022055625, 200, 0, 0.01)
    assert comp.cube == _est(0.40340000000000004, 0.014313686039598641, 200, 0, 0.01)
    assert (comp.ratio, comp.ratio_err) == (0.8040406544372831, 0.016515733644097714)
