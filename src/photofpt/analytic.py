"""Closed-form and series evaluation of the threshold-detector model.

The accumulator diffuses with coefficient sigma**2/2 per axis and drifts at
i_s along the third axis; a count fires when it first reaches the absorbing
boundary, the interval ends +-e_m in 1D or the cube faces |E_i| = e_m in 3D.
Detection rates are inverse mean first-passage times times the cross section.

Two representations of the per-axis survival factor are provided: an image
sum (accurate at small times) and a spectral eigenfunction series (driftless
axes only, accurate at large times). Both are checked against each other and
against an independent finite-difference solver in the validation module.
"""
from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .params import (ABS_TOL, DetectorParams, SeriesControl, TruncationError,
                     dimensionless_intensity, tolerance_for)

_SMALL_X = 1e-4


def _tanh_over_x(x: float) -> float:
    # series branch keeps the x -> 0 limit exact instead of dividing 0/0
    if abs(x) < _SMALL_X:
        x2 = x * x
        return 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    return math.tanh(x) / x


def mean_fpt_1d(params: DetectorParams) -> float:
    """Mean first-passage time out of (-e_m, e_m) for the drifted accumulator.

    Equals (e_m/i_s)*tanh(i_s*e_m/sigma**2); the driftless limit
    e_m**2/sigma**2 is taken analytically through the tanh(x)/x branch.
    """
    return params.time_scale * _tanh_over_x(dimensionless_intensity(params))


def _rate(cross_section: float, mean: float) -> float:
    # a mean that underflows to 0 has no finite reciprocal
    if not 0 < mean < math.inf:
        raise ValueError(f"mean first-passage time {mean} is not a positive finite number")
    rate = cross_section / mean
    if rate == math.inf:
        raise ValueError(f"rate cross_section/mean = {cross_section:g}/{mean:g} overflows")
    # a subnormal rate has lost digits, as DetectorParams refuses a subnormal e_m^2/sigma^2
    if rate < sys.float_info.min:
        raise ValueError(f"rate cross_section/mean = {cross_section:g}/{mean:g} is below "
                         "the smallest normal double")
    return rate


def _finite_excess(value: float, x: float) -> float:
    # about 1/x, so it overflows for x below about 1e-308
    if not math.isfinite(value):
        raise ValueError(f"the excess fraction overflows at x = {x:g}")
    return value


def rate_1d(params: DetectorParams) -> float:
    """1D detection rate, the exact reciprocal of mean_fpt_1d times the
    cross section. rate_1d * mean_fpt_1d == cross_section to round-off."""
    return _rate(params.cross_section, mean_fpt_1d(params))


@functools.lru_cache(maxsize=16)
def _euler_weights(n: int) -> np.ndarray:
    """Read-only binomial weights C(m, j)/2**m, j = 0..m, for m = n - 2.

    Integer numerator and power-of-two denominator make each weight the
    correctly rounded quotient.
    """
    m = n - 2
    w = np.array([math.comb(m, j) / 2 ** m for j in range(m + 1)])
    w.flags.writeable = False
    return w


def _accelerated_alternating_sum(signed_terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum alternating series along the last axis by the Euler transform of
    their partial sums.

    The transform is m = n - 2 rounds of pairwise averaging of the n partial
    sums s_0..s_{n-1}, which leave two entries. Each round is linear, and m
    rounds weight s_{i+j} by C(m, j)/2**m, so the two entries are
    a = s_0..s_{n-2} . w and b = s_1..s_{n-1} . w with those binomial
    weights w: one contraction each instead of m passes. Their mean is the
    accelerated value and half their gap estimates the remaining truncation
    error. For alternating series with smoothly decreasing terms this
    converges far below the first-omitted-term bound of the plain partial
    sum. Returns (values, error estimates), one per series.
    """
    s = np.cumsum(np.asarray(signed_terms, dtype=float), axis=-1)
    if s.shape[-1] == 1:
        # no acceleration possible; the single term is also the only
        # available scale for the unknown tail
        return s[..., 0], np.abs(s[..., 0])
    w = _euler_weights(s.shape[-1])
    a = s[..., :-1] @ w
    b = s[..., 1:] @ w
    return 0.5 * (a + b), 0.5 * np.abs(b - a)


def _times(t) -> tuple[np.ndarray, bool]:
    """t as a flat float array, and whether it was given as a scalar."""
    ts = np.asarray(t, dtype=float)
    flat = ts.reshape(-1)
    # a NaN fails both comparisons
    if flat.size and not (flat.min() > 0 and flat.max() < math.inf):
        bad = flat[~((flat > 0) & (flat < math.inf))]
        raise ValueError(f"t must be finite and > 0, got {bad[0]}")
    return flat, ts.ndim == 0


def _unit_interval(value: np.ndarray, ts: np.ndarray, what: str) -> np.ndarray:
    # only a finite value is clipped; a NaN or an infinity must not pass as 0 or 1
    finite = np.isfinite(value)
    if not finite.all():
        raise ValueError(f"{what} is not finite at t = {ts[~finite][0]}")
    return np.minimum(np.maximum(value, 0.0), 1.0)


def _as_given(value: np.ndarray, t, scalar: bool):
    return float(value[0]) if scalar else value.reshape(np.shape(t))


def axis_survival_image(t, drift: float, params: DetectorParams,
                        ctrl: SeriesControl | None = None):
    """Survival probability of one axis by the method of images.

    Probability that a diffusion with the given drift and diffusion
    coefficient sigma**2/2, started at 0, has not reached +-e_m by time t.
    Each image term is the exact Gaussian integral over (-e_m, e_m), so no
    quadrature over the state is involved; weights and normal CDFs are
    combined in log space to keep large-drift terms finite.

    t may be a float, which gives a float, or an array of finite positive
    times, which gives an array of their survivals: the image sums are laid
    out one row per time and each element meets the truncation guards on
    its own. The survival is even in the drift, so -drift gives the value
    at +drift. A NaN drift, or terms that overflow where the drift or t is
    extreme, raise ValueError.
    """
    from scipy.special import log_ndtr

    ctrl = ctrl or SeriesControl()
    ts, scalar = _times(t)
    drift = abs(drift)
    a = params.e_m
    sig2 = params.sigma ** 2
    root_t = params.sigma * np.sqrt(ts)[:, None]

    n = np.arange(-ctrl.n_images, ctrl.n_images + 1)
    centers = 2.0 * a * n
    # overflows give +-inf bounds and weights; a term they make NaN or
    # infinite is rejected below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        shift = drift * ts[:, None]
        log_weight = -centers * drift / sig2
        upper = (centers + a - shift) / root_t
        lower = (centers - a - shift) / root_t
        terms = np.exp(log_weight + log_ndtr(upper)) - np.exp(log_weight + log_ndtr(lower))
        signed = np.where(n % 2 == 0, terms, -terms)
    value = signed.sum(axis=-1)

    # alternating image shells |term(-j)| + |term(+j)| decrease once past the
    # direct term, so the first omitted shell is bounded by the last kept one
    mags = np.abs(terms[:, [0, 1, -2, -1]])
    tail = mags[:, 3] + mags[:, 0]
    if ctrl.n_images >= 2:
        growing = (tail > mags[:, 2] + mags[:, 1]) & (tail > ABS_TOL)
        if growing.any():
            raise TruncationError(f"image shells still growing at n_images={ctrl.n_images} "
                                  f"(t={ts[growing][0]}, drift={drift})")
    over = tail > tolerance_for(value)
    if over.any():
        raise TruncationError(f"image tail {tail[over][0]:.3e} exceeds tolerance at "
                              f"n_images={ctrl.n_images} (t={ts[over][0]})")
    return _as_given(_unit_interval(value, ts, f"the image sum at drift {drift:g}"), t, scalar)


def axis_survival_spectral(t, params: DetectorParams,
                           ctrl: SeriesControl | None = None):
    """Driftless-axis survival by the absorbing-interval eigenfunction series.

    K(t) = (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 sigma^2 t / (8 e_m^2)),
    Euler-accelerated so the slowly alternating small-t regime still meets
    tolerance at the default truncation. t may be a float or an array of
    finite positive times, as for axis_survival_image.
    """
    ctrl = ctrl or SeriesControl()
    ts, scalar = _times(t)
    k = np.arange(ctrl.kl_max)
    odd = 2.0 * k + 1.0
    # an exponent that overflows to -inf decays to the right 0
    with np.errstate(over="ignore"):
        decay = np.exp(-odd ** 2 * math.pi ** 2 * params.sigma ** 2 * ts[:, None]
                       / (8.0 * params.e_m ** 2))
    signed = (4.0 / math.pi) * np.where(k % 2 == 0, 1.0, -1.0) / odd * decay
    # each time's series as a 1 x kl_max matrix, so that the Euler contraction
    # is one dot product per time and a time sums alike alone or in a batch
    value, residual = (v[:, 0] for v in _accelerated_alternating_sum(signed[:, None, :]))
    over = residual > tolerance_for(value)
    if over.any():
        raise TruncationError(f"spectral tail estimate {residual[over][0]:.3e} exceeds "
                              f"tolerance at kl_max={ctrl.kl_max} (t={ts[over][0]})")
    return _as_given(_unit_interval(value, ts, "the spectral sum"), t, scalar)


def survival_3d(t, params: DetectorParams, ctrl: SeriesControl | None = None):
    """Cube survival probability at time t, K**2 * L: K is the factor of each
    driftless axis (image form at drift 0), L that of the drift axis. t may
    be a float or an array, as for axis_survival_image."""
    k_fac = axis_survival_image(t, 0.0, params, ctrl)
    l_fac = axis_survival_image(t, params.i_s, params, ctrl) if params.i_s else k_fac
    return k_fac ** 2 * l_fac


def f3_series(x: float, ctrl: SeriesControl | None = None) -> float:
    """The cube-model double series F(x).

    F(x) = sum_{k,l>=0} (-1)^(k+l) G_kl(x) / (S_kl (2k+1)(2l+1)) with
    S_kl = (2k+1)^2 + (2l+1)^2 and
    G_kl(x) = 1 - cosh(x)/cosh(sqrt(x^2 + pi^2 S_kl / 4)),
    evaluated per (k, l) term. The cosh ratio is formed in log space, with
    log cosh x - log cosh y = -c/(x + y) + log1p(e^-2x) - log1p(e^-2y) and
    c = pi^2 S_kl / 4: large x and large indices cannot overflow, and the
    small gap y - x is never found by subtracting y from x, which would lose
    it to rounding once x^2 dwarfs c. Rows are summed over l with Euler
    acceleration, then the alternating row sums are accelerated over k; the
    acceleration residual is the reported tail estimate.
    """
    ctrl = ctrl or SeriesControl()
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    odd = 2.0 * np.arange(ctrl.kl_max) + 1.0
    ok = odd[:, None]
    ol = odd[None, :]
    s = ok ** 2 + ol ** 2
    c = 0.25 * math.pi ** 2 * s
    scale = 1.0
    if x * x < math.inf:
        y = np.sqrt(x * x + c)
        g = -np.expm1(np.log1p(np.exp(-2.0 * x)) - np.log1p(np.exp(-2.0 * y)) - c / (x + y))
    else:
        # once x*x overflows, y = x and G_kl = c/(2x) to double precision;
        # near x = 1e308 that is subnormal, so the series sums x G_kl = c/2
        # and the sum is divided by x
        g = 0.5 * c
        scale = x
    mag = g / (s * ok * ol)

    even = np.arange(ctrl.kl_max) % 2 == 0
    row_val, row_res = _accelerated_alternating_sum(np.where(even, mag, -mag))
    value, outer_res = map(float, _accelerated_alternating_sum(np.where(even, row_val, -row_val)))
    value /= scale
    tail = (outer_res + float(row_res.max())) / scale
    if tail > tolerance_for(value):
        raise TruncationError(
            f"double-series tail estimate {tail:.3e} exceeds tolerance at kl_max={ctrl.kl_max}")
    return value


def mean_fpt_3d(params: DetectorParams, ctrl: SeriesControl | None = None) -> float:
    """Mean first-passage time to the cube surface:
    (128/pi^4) (e_m^2/sigma^2) F(i_s e_m/sigma^2)."""
    x = dimensionless_intensity(params)
    return (128.0 / math.pi ** 4) * params.time_scale * f3_series(x, ctrl)


def rate_3d(params: DetectorParams) -> float:
    """Cube-model detection rate, cross_section / mean_fpt_3d."""
    return _rate(params.cross_section, mean_fpt_3d(params))


def dark_fraction(x: float) -> float:
    """Fractional excess coth x - 1 of the interval model's rate over the
    linear rate i_s/e_m, at unit cross section, formed without cancellation.

    Diverges as x -> 0 even though the dark rate itself stays finite, so
    x = 0 is rejected. The cube model's excess is rate_point's.
    """
    if not x > 0:
        raise ValueError(f"the excess fraction diverges as x -> 0; need x > 0, got {x}")
    # not 2/expm1(2x): math.expm1 raises OverflowError from x ~ 355
    return _finite_excess(2.0 * math.exp(-2.0 * x) / -math.expm1(-2.0 * x), x)


def rate_point(params: DetectorParams, ctrl: SeriesControl | None = None) -> dict:
    """The `photofpt rate` record at one parameter point.

    Keys, in order: x, the interval and cube means and rates, and each
    model's dark excess rate*e_m/i_s - 1 at unit cross section, None at
    x = 0 where it diverges. The cube values come from one evaluation of F.
    """
    x = dimensionless_intensity(params)
    mean_3d = mean_fpt_3d(params, ctrl)
    rate = _rate(params.cross_section, mean_3d)
    excess_3d = None
    if x > 0:
        excess_3d = _finite_excess(_rate(1.0, mean_3d) * params.e_m / params.i_s - 1.0, x)
    return {
        "x": x,
        "mean_fpt_1d": mean_fpt_1d(params),
        "mean_fpt_3d": mean_3d,
        "rate_1d": rate_1d(params),
        "rate_3d": rate,
        "dark_fraction_1d": dark_fraction(x) if x > 0 else None,
        "dark_fraction_3d": excess_3d,
    }
