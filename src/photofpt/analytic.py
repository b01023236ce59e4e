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


def _normal_mean(mean: float) -> float:
    # a subnormal mean has lost digits and one that underflows to 0 has no
    # reciprocal, as DetectorParams refuses a subnormal e_m^2/sigma^2
    if not sys.float_info.min <= mean < math.inf:
        raise ValueError(f"mean first-passage time {mean:g} is outside the normal double range")
    return mean


def mean_fpt_1d(params: DetectorParams) -> float:
    """Mean first-passage time out of (-e_m, e_m) for the drifted accumulator.

    Equals (e_m/i_s)*tanh(i_s*e_m/sigma**2), and e_m**2/sigma**2 without
    drift. Raises ValueError where it is below the smallest normal double.
    """
    x = dimensionless_intensity(params)
    # tanh(x)/x is within 2.7e-16 relative of the exact ratio down to x = 5e-324
    return _normal_mean(params.time_scale * (math.tanh(x) / x if x else 1.0))


def _rate(cross_section: float, mean: float) -> float:
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


# the image sum keeps shells n = 0, +-1, ..., +-N_IMAGES and the spectral
# series N_SPECTRAL terms; the read-only image edges m = -N_IMAGES - 1, ...,
# N_IMAGES, edge m bounding image m above, and the parity signs of the images
N_IMAGES = 30
N_SPECTRAL = 60
_EDGES = np.arange(-N_IMAGES - 1, N_IMAGES + 1)
_SIGNS = np.where(_EDGES[1:] % 2 == 0, 1.0, -1.0)
_EDGES.flags.writeable = _SIGNS.flags.writeable = False


def _image_sums(t, drifts: tuple[float, ...], params: DetectorParams):
    """Yield axis_survival_image at each drift in turn, all from one log Phi call."""
    from scipy.special import log_ndtr

    ts, scalar = _times(t)
    drift = np.abs(np.asarray(drifts, dtype=float))[:, None, None]
    root_t = params.sigma * np.sqrt(ts)[:, None]
    centers = 2.0 * params.e_m * _EDGES
    # overflows give +-inf bounds and weights; a term they make NaN or
    # infinite is rejected below rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        shift = drift * ts[:, None]
        log_weight = -centers[1:] * drift / params.sigma ** 2
        log_phi = log_ndtr((centers + params.e_m - shift) / root_t)
        terms = np.exp(log_weight + log_phi[..., 1:]) - np.exp(log_weight + log_phi[..., :-1])
    values = (terms * _SIGNS).sum(axis=-1)

    # alternating image shells |term(-j)| + |term(+j)| decrease once past the
    # direct term, so the first omitted shell is bounded by the last kept one
    mags = np.abs(terms[..., [0, 1, -2, -1]])
    for d, value, mag in zip(map(abs, drifts), values, mags):
        tail = mag[:, 3] + mag[:, 0]
        growing = (tail > mag[:, 2] + mag[:, 1]) & (tail > ABS_TOL)
        if growing.any():
            raise TruncationError(f"image shells still growing at n_images={_SIGNS.size // 2} "
                                  f"(t={ts[growing][0]}, drift={d})")
        over = tail > tolerance_for(value)
        if over.any():
            raise TruncationError(f"image tail {tail[over][0]:.3e} exceeds tolerance at "
                                  f"n_images={_SIGNS.size // 2} (t={ts[over][0]})")
        yield _as_given(_unit_interval(value, ts, f"the image sum at drift {d:g}"), t, scalar)


def axis_survival_image(t, drift: float, params: DetectorParams):
    """Survival probability of one axis by the method of images.

    Probability that a diffusion with the given drift and diffusion
    coefficient sigma**2/2, started at 0, has not reached +-e_m by time t.
    Each image term is the exact Gaussian integral over (-e_m, e_m), so no
    quadrature over the state is involved; weights and normal CDFs, one CDF
    per image edge, are combined in log space to keep large-drift terms finite.

    t may be a float, which gives a float, or an array of finite positive
    times, which gives an array of their survivals: the image sums are laid
    out one row per time and each element meets the truncation guards on
    its own. The survival is even in the drift, so -drift gives the value
    at +drift. A NaN drift, or terms that overflow where the drift or t is
    extreme, raise ValueError. The N_IMAGES = 30 shells each side suit small
    and moderate times: without drift the sum raises TruncationError from
    about t = 69 e_m**2/sigma**2, at a drift of 0.1 sigma**2/e_m from about
    t = 71 e_m**2/sigma**2; the spectral series covers the long-time tail.
    """
    return next(_image_sums(t, (drift,), params))


def axis_survival_spectral(t, params: DetectorParams):
    """Driftless-axis survival by the absorbing-interval eigenfunction series.

    K(t) = (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 sigma^2 t / (8 e_m^2)),
    its first N_SPECTRAL = 60 terms Euler-accelerated, which meet tolerance
    at every t in [1e-300, 1e300] e_m**2/sigma**2. t may be a float or an
    array of finite positive times, as for axis_survival_image.
    """
    ts, scalar = _times(t)
    k = np.arange(N_SPECTRAL)
    odd = 2.0 * k + 1.0
    # an exponent that overflows to -inf decays to the right 0
    with np.errstate(over="ignore"):
        decay = np.exp(-odd ** 2 * math.pi ** 2 * params.sigma ** 2 * ts[:, None]
                       / (8.0 * params.e_m ** 2))
    signed = (4.0 / math.pi) * np.where(k % 2 == 0, 1.0, -1.0) / odd * decay
    # each time's series as a one-row matrix, so that the Euler contraction
    # is one dot product per time and a time sums alike alone or in a batch
    value, residual = (v[:, 0] for v in _accelerated_alternating_sum(signed[:, None, :]))
    over = residual > tolerance_for(value)
    if over.any():
        raise TruncationError(f"spectral tail estimate {residual[over][0]:.3e} exceeds "
                              f"tolerance at n_terms={k.size} (t={ts[over][0]})")
    return _as_given(_unit_interval(value, ts, "the spectral sum"), t, scalar)


def survival_3d(t, params: DetectorParams):
    """Cube survival probability at time t, K**2 * L: K is the factor of each
    driftless axis, L that of the drift axis, both from one image-sum call.
    t may be a float or an array, as for axis_survival_image."""
    fac = [*_image_sums(t, (0.0, params.i_s) if params.i_s else (0.0,), params)]
    return fac[0] ** 2 * fac[-1]


@functools.lru_cache(maxsize=8)
def _lattice(kl_max: int) -> tuple[np.ndarray, ...]:
    """F's read-only x-free arrays: c = pi^2 S/4 once per distinct S, ascending,
    ranked without a sort as S_kl = 8 m + 2, m = k(k+1)/2 + l(l+1)/2; the index
    of each (k, l) into c; R_l/d_kl, with d_kl = S_kl (2k+1)(2l+1) signed by
    the parity of l; and the maps of G onto the value and the outer residual,
    Cv_s the sum of e_k V_k V_l/d_kl over the (k, l) with S_kl = s, e_k the
    parity sign of k, and Co_s that with R_k for V_k.

    The Euler sum of a series T is T.V and its residual |T.R|: a = s[:-1].w
    weights T_i by Wa_i = sum_{j>=i} w_j (Wa_{n-1} = 0) and b = s[1:].w by
    Wb_i = Wa_{i-1} (Wb_0 = 1), so V = (Wa + Wb)/2 and R = (Wb - Wa)/2."""
    v = r = np.ones(1)  # one term is its own value and tail
    if kl_max > 1:
        wa = np.append(np.cumsum(_euler_weights(kl_max)[::-1])[::-1], 0.0)
        wb = np.append(1.0, wa[:-1])
        v, r = 0.5 * (wa + wb), 0.5 * (wb - wa)
    j = np.arange(kl_max)
    m = (j * (j + 1) // 2)[:, None] + j * (j + 1) // 2
    seen = np.zeros(m[-1, -1] + 1, dtype=bool)
    seen[m] = True
    odd = 2.0 * j + 1.0
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    den = sign * (8.0 * m + 2.0) * odd[:, None] * odd
    index = np.cumsum(seen, dtype=np.int32)[m] - 1
    c = 0.25 * math.pi ** 2 * (8.0 * np.flatnonzero(seen) + 2.0)
    maps = [np.bincount(index.ravel(), (sign[:, None] * outer[:, None] * v / den).ravel(), c.size)
            for outer in (v, r)]
    lattice = (c, index, r / den, np.array(maps))
    for a in lattice:
        a.flags.writeable = False
    return lattice


# at most this many doubles in any one temporary of _f3_values, half of
# mc._BLOCK_NORMALS as a few coexist; one point's rows are more from kl_max 182
_F3_BLOCK = 2 ** 15


def _f3_values(xs, kl_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F at each x >= 0 of xs in units of that x's scale (see f3_series):
    the Euler sums, their tail estimates and the scales. Every contraction
    is a per-row numpy sum, not a BLAS product, so a point sums alike alone
    and in any batch. Raises nothing; the caller judges each tail."""
    c, index, row_map, maps = _lattice(kl_max)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    values, tails, scales = (np.empty(xs.size) for _ in range(3))
    step = max(1, _F3_BLOCK // max(index.size, maps.size))
    for start in range(0, xs.size, step):
        part = slice(start, start + step)
        x = xs[part]
        # once x*x overflows, y = x and G_kl = c/(2x) to double precision; near
        # x = 1e308 that is subnormal, so the series sums x G_kl = c/2 instead,
        # and those rows are evaluated at x = 0 and replaced below
        xl = x.tolist()
        huge = [v * v == math.inf for v in xl]
        # a power of two while x*x is finite, so the digits do not change
        scale = np.array([v if h else 2.0 ** max(0, math.frexp(v)[1]) for v, h in zip(xl, huge)])
        if any(huge):
            x = np.where(huge, 0.0, x)
            xl = x.tolist()
        xc = x[:, None]
        # past c = (x + 40)^2 - x^2, y - x = c/(x + y) > 40 makes G exactly 1.0
        k = int(np.searchsorted(c, 80.0 * max(xl) + 1600.0, side="right"))
        y = np.sqrt(xc * xc + c[:k])
        log1p_x = np.log1p(np.exp(-2.0 * xc))
        # y ascends with c and with x. Past a row's cut log1p(e^-2y) < ulp(log1p_x)/8
        # cannot change log1p_x (8, not 4, allows for rounding), and past y = 373 numpy's
        # exp is slow; so it is evaluated only where the least x's y is within the
        # largest x's cut, and left 0 elsewhere
        arg = np.zeros_like(y)
        cut = min(373.0, 0.5 * (math.log(8.0) - math.log(math.ulp(float(log1p_x.min())))))
        n = int(np.searchsorted(y[int(x.argmin())], cut, side="right"))
        arg[:, :n] = np.log1p(np.exp(-2.0 * y[:, :n]))
        # in place, so that the temporaries stay within the block
        np.subtract(log1p_x, arg, out=arg)
        y += xc
        arg -= np.divide(c[:k], y, out=y)
        g = np.empty((x.size, c.size))
        g[:] = scale[:, None]
        g[:, :k] *= -np.expm1(arg, out=arg)
        if any(huge):
            g[huge] = 0.5 * c
        # the value and the outer residual, then the residuals of the rows
        values[part], outer = (g[:, None] * maps).sum(axis=-1).T
        rows = np.einsum("ckl,kl->ck", g.take(index, axis=-1), row_map)
        tails[part] = np.abs(outer) + np.abs(rows).max(axis=-1)
        scales[part] = scale
    return values, tails, scales


def _f3_checked(xs, kl_max: int):
    """Yield F at each x of xs in turn from one _f3_values call, or raise
    the TruncationError of the first whose tail exceeds tolerance."""
    values, tails, scales = _f3_values(xs, kl_max)
    over = tails > tolerance_for(values)
    for value, tail, scale, bad in zip(*(a.tolist() for a in (values, tails, scales, over))):
        if bad:
            raise TruncationError(f"double-series tail estimate {tail / scale:.3e} exceeds "
                                  f"tolerance at kl_max={kl_max}")
        yield value / scale


def f3_series(x: float, ctrl: SeriesControl | None = None) -> float:
    """The cube-model double series F(x).

    F(x) = sum_{k,l>=0} (-1)^(k+l) G_kl(x) / (S_kl (2k+1)(2l+1)) with
    S_kl = (2k+1)^2 + (2l+1)^2 and
    G_kl(x) = 1 - cosh(x)/cosh(sqrt(x^2 + pi^2 S_kl / 4)),
    evaluated once per distinct S_kl of the cached lattice. The cosh ratio
    is formed in log space, with
    log cosh x - log cosh y = -c/(x + y) + log1p(e^-2x) - log1p(e^-2y) and
    c = pi^2 S_kl / 4: large x and large indices cannot overflow, and the
    small gap y - x is never found by subtracting y from x, which would lose
    it to rounding once x^2 dwarfs c. Rows are summed over l with Euler
    acceleration, then the alternating row sums are accelerated over k. Both
    transforms are linear, so the sum is G times a cached x-free vector per
    distinct S; the acceleration residuals are the reported tail estimate.
    It is judged on the sum times about x (a power of two while x*x is
    finite), as F ~ 0.76/x.
    """
    ctrl = ctrl or SeriesControl()
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    [f] = _f3_checked([x], ctrl.kl_max)
    return f


def _mean_3d(params: DetectorParams, f: float) -> float:
    # time_scale last: (128/pi^4)*time_scale overflows where the mean is finite
    return _normal_mean(params.time_scale * ((128.0 / math.pi ** 4) * f))


def mean_fpt_3d(params: DetectorParams) -> float:
    """Mean first-passage time to the cube surface:
    (128/pi^4) (e_m^2/sigma^2) F(i_s e_m/sigma^2). Raises ValueError where it
    is below the smallest normal double or overflows."""
    return _mean_3d(params, f3_series(dimensionless_intensity(params)))


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


def rate_point(params: DetectorParams) -> dict:
    """The `photofpt rate` record at one parameter point, the one-point case
    of _rate_points. Keys, in order: x, the interval and cube means and
    rates, and each model's dark excess rate*e_m/i_s - 1 at unit cross
    section, None at x = 0 where it diverges."""
    return next(_rate_points([params]))


def _rate_points(grid, ctrl: SeriesControl = SeriesControl()):
    """Yield rate_point's record at each DetectorParams of grid in turn, the
    only builder of that record: F is evaluated at all of them in one call,
    and a point fails as it does alone."""
    xs = [dimensionless_intensity(p) for p in grid]
    for params, x, f in zip(grid, xs, _f3_checked(xs, ctrl.kl_max)):
        mean_3d = _mean_3d(params, f)
        rate = _rate(params.cross_section, mean_3d)
        excess_3d = None
        if x > 0:
            excess_3d = _finite_excess(_rate(1.0, mean_3d) * params.e_m / params.i_s - 1.0, x)
        yield {
            "x": x,
            "mean_fpt_1d": (mean_1d := mean_fpt_1d(params)),
            "mean_fpt_3d": mean_3d,
            "rate_1d": _rate(params.cross_section, mean_1d),
            "rate_3d": rate,
            "dark_fraction_1d": dark_fraction(x) if x > 0 else None,
            "dark_fraction_3d": excess_3d,
        }
