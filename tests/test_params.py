import math
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, strategies as st

from photofpt.params import (
    DEFAULT_SEED,
    AtomModel,
    DetectorParams,
    SeriesControl,
    dimensionless_intensity,
    params_for_intensity,
    tolerance_for,
)


def test_defaults_are_dark_unit_detector():
    p = DetectorParams(e_m=1.0, sigma=1.0)
    assert p.i_s == 0.0
    assert p.cross_section == 1.0
    assert p.time_scale == 1.0


def test_time_scale_units():
    p = DetectorParams(e_m=2.0, sigma=0.5)
    assert p.time_scale == pytest.approx(16.0, rel=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(e_m=0.0, sigma=1.0),
    dict(e_m=-1.0, sigma=1.0),
    dict(e_m=1.0, sigma=0.0),
    dict(e_m=1.0, sigma=-2.0),
    dict(e_m=1.0, sigma=1.0, i_s=-0.5),
    dict(e_m=1.0, sigma=1.0, cross_section=0.0),
    dict(e_m=math.nan, sigma=1.0),
    dict(e_m=1.0, sigma=math.inf),
    dict(e_m=1.0, sigma=1.0, i_s=math.nan),
    dict(e_m=1.0, sigma=1.0, i_s=math.inf),
    dict(e_m=1.0, sigma=1.0, cross_section=math.inf),
    dict(e_m=1e-200, sigma=1.0),   # time scale underflows to 0
    dict(e_m=1.0, sigma=1e-200),   # sigma**2 underflows to 0
    dict(e_m=1e200, sigma=1.0),    # e_m**2 overflows
    dict(e_m=1e160, sigma=1e-160),  # time scale overflows
    dict(e_m=1e-160, sigma=1e-160),  # both squares subnormal
    dict(e_m=1e-160, sigma=1.0),
    dict(e_m=1.0, sigma=1e-160),
    dict(e_m=1e10, sigma=1.0, i_s=1e300),  # i_s*e_m/sigma**2 overflows
    dict(e_m=1e-150, sigma=1e11),  # normal squares, subnormal time scale
])
def test_rejects_bad_detector_values(kwargs):
    with pytest.raises(ValueError):
        DetectorParams(**kwargs)


def test_detector_params_frozen():
    p = DetectorParams(e_m=1.0, sigma=1.0)
    with pytest.raises(FrozenInstanceError):
        p.e_m = 2.0


def test_dimensionless_group():
    p = DetectorParams(e_m=2.0, sigma=0.5, i_s=3.0)
    assert dimensionless_intensity(p) == pytest.approx(24.0, rel=1e-15)


@given(x=st.floats(0.0, 50.0), e_m=st.floats(1e-3, 1e3), sigma=st.floats(1e-3, 1e3))
def test_intensity_round_trip(x, e_m, sigma):
    p = params_for_intensity(x, e_m=e_m, sigma=sigma)
    assert dimensionless_intensity(p) == pytest.approx(x, rel=1e-12, abs=0.0)


def test_intensity_rejects_negative():
    with pytest.raises(ValueError):
        params_for_intensity(-0.1)


def test_tolerance_floor():
    # abs floor wins for small values, rel for large ones
    assert tolerance_for(1e-6) == 1e-12
    assert tolerance_for(-1e-6) == 1e-12
    assert tolerance_for(10.0) == pytest.approx(1e-8, rel=1e-15)


@pytest.mark.parametrize("kwargs", [
    dict(n_images=0),
    dict(kl_max=0),
])
def test_series_control_validation(kwargs):
    with pytest.raises(ValueError):
        SeriesControl(**kwargs)


def test_only_truncation_orders_are_settable():
    # the tolerances are package constants and the atom has no settings
    assert [f.name for f in fields(SeriesControl)] == ["n_images", "kl_max"]
    assert fields(AtomModel) == ()
    assert AtomModel() == AtomModel()


def test_default_seed_fits_rng_key():
    assert isinstance(DEFAULT_SEED, int)
    assert 0 <= DEFAULT_SEED < 2 ** 64
