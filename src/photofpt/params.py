"""Parameter containers shared by the analytic, field and Monte Carlo modules.

All quantities are kept in the user's units; the only derived group is the
dimensionless intensity i_s*e_m/sigma**2 that controls every rate curve.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np


# default RNG seed for every command that is not given one explicitly,
# fixed (not wall clock) so unseeded runs are reproducible
DEFAULT_SEED = 2718281828


class TruncationError(RuntimeError):
    """A series truncation tail bound exceeded the requested tolerance."""


class QuadratureError(RuntimeError):
    """Two successive levels of the tanh-sinh rule still differ by more than
    the requested tolerance when its levels run out."""


@dataclass(frozen=True)
class DetectorParams:
    """Threshold detector driven by white noise plus a constant signal drift.

    e_m : float
        Absorption threshold on the accumulated energy (energy units).
    sigma : float
        Noise amplitude; sigma**2 is the white-noise strength per axis,
        so each axis diffuses with coefficient sigma**2 / 2.
    i_s : float
        Signal intensity, a constant drift along the third axis
        (energy / time). Zero models a dark detector.
    cross_section : float
        Area factor multiplying final rates.
    """

    e_m: float
    sigma: float
    i_s: float = 0.0
    cross_section: float = 1.0

    def __post_init__(self):
        for name in ("e_m", "sigma", "i_s", "cross_section"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.e_m > 0:
            raise ValueError(f"e_m must be > 0, got {self.e_m}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.i_s < 0:
            raise ValueError(f"i_s must be >= 0, got {self.i_s}")
        if not self.cross_section > 0:
            raise ValueError(f"cross_section must be > 0, got {self.cross_section}")
        # a subnormal square carries fewer significant digits into the time
        # scale and x
        for name in ("e_m", "sigma"):
            value = getattr(self, name)
            if value * value < sys.float_info.min:
                raise ValueError(f"{name}**2 must be at least the smallest normal double "
                                 f"{sys.float_info.min:g}, got {name}={value}")
        try:
            ts = self.time_scale
        except OverflowError:
            ts = math.inf
        # a subnormal time scale carries fewer digits into every mean and rate
        if not sys.float_info.min <= ts < math.inf:
            raise ValueError(f"e_m**2/sigma**2 must be finite and at least the smallest normal "
                             f"double {sys.float_info.min:g}, got {ts} "
                             f"for e_m={self.e_m}, sigma={self.sigma}")
        x = dimensionless_intensity(self)
        # a positive i_s whose x underflows to 0 would pass for a dark detector
        if not math.isfinite(x) or x == 0 < self.i_s:
            raise ValueError(f"i_s*e_m/sigma**2 must be finite, and nonzero for i_s > 0, got {x} "
                             f"for i_s={self.i_s}, e_m={self.e_m}, sigma={self.sigma}")

    @property
    def time_scale(self) -> float:
        """Diffusive time scale e_m**2 / sigma**2 of the driftless problem."""
        return self.e_m ** 2 / self.sigma ** 2


def dimensionless_intensity(params: DetectorParams) -> float:
    """The group i_s * e_m / sigma**2 controlling all rate curves."""
    return params.i_s * params.e_m / params.sigma ** 2


def params_for_intensity(intensity: float, e_m: float = 1.0, sigma: float = 1.0,
                         cross_section: float = 1.0) -> DetectorParams:
    """Build DetectorParams realizing a given dimensionless intensity.

    Round-trips with dimensionless_intensity for any (e_m, sigma) choice.
    """
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    return DetectorParams(e_m=e_m, sigma=sigma,
                          i_s=intensity * sigma ** 2 / e_m,
                          cross_section=cross_section)


# A series tail or quadrature error estimate passes if it is at most
# tolerance_for(value) = max(ABS_TOL, REL_TOL * |value|); otherwise the
# evaluation raises TruncationError or QuadratureError.
ABS_TOL = 1e-12
REL_TOL = 1e-9


def tolerance_for(value):
    # element by element for an array of values
    return np.maximum(ABS_TOL, REL_TOL * np.abs(value))


# tanh-sinh nodes u = k h cover |u| <= _TS_U; the step h halves from 1/2 at
# most _TS_LEVELS times
_TS_U = 3.2
_TS_LEVELS = 10


def _tanh_sinh(f, hi: float) -> float:
    """int_0^hi f(t) dt by the tanh-sinh rule of Takahasi & Mori (Publ. RIMS
    9 (1974) 721): t = hi s with s = 1/(e^(-pi sinh u) + 1), so that ds/du
    falls double exponentially at both ends, and the trapezoid rule in u
    with steps h = 1/2, 1/4, ... over |u| <= _TS_U. hi = inf takes the
    exp-sinh map t = e^(pi sinh u) of the same u-grid instead (Mori &
    Sugihara, J. Comput. Appl. Math. 127 (2001) 287), in unit scale. Each
    halving reuses every earlier node and evaluates f once, on the array of
    the new ones; nodes whose t is not in (0, inf) are dropped. The rule
    returns once two successive levels of int_0^1 f(hi s) ds agree within
    tolerance_for, a test in units of hi, so that it holds alike whatever
    the unit of time, and raises QuadratureError if they still differ after
    _TS_LEVELS halvings."""
    scale = 1.0 if hi == math.inf else hi
    h, total = 0.5, 0.0
    for level in range(_TS_LEVELS + 1):
        k = np.arange(-int(_TS_U / h), int(_TS_U / h) + 1)
        if level:
            k = k[k % 2 == 1]  # the even multiples of h are the last level's nodes
        u = k * h
        q = np.exp(-math.pi * np.sinh(u))
        if hi == math.inf:
            t, w = 1.0 / q, math.pi * np.cosh(u) / q
        else:
            t, w = hi / (q + 1.0), math.pi * np.cosh(u) * q / (q + 1.0) ** 2
        keep = (t > 0.0) & (t < math.inf)
        previous, total = total, 0.5 * total + h * float(np.dot(w[keep], f(t[keep])))
        if level and abs(total - previous) <= tolerance_for(total):
            return scale * total
        h *= 0.5
    raise QuadratureError(f"tanh-sinh levels at step {2.0 * h:g} still differ by "
                          f"{abs(total - previous):.3e} of an integral {total:.6e}, "
                          f"in units of {scale:g}")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation order of the cube's double series.

    kl_max : int
        Per-axis truncation of the (k, l) double series F. The image sum
        and the spectral series have fixed lengths, analytic.N_IMAGES and
        analytic.N_SPECTRAL.
    """

    kl_max: int = 60

    def __post_init__(self):
        if operator.index(self.kl_max) < 1:
            raise ValueError(f"kl_max must be >= 1, got {self.kl_max}")


@dataclass(frozen=True)
class AtomModel:
    """Exponential effective atomic density, in natural units hbar = c = a = 1.

    The absorber is smeared over a density that falls off as exp(-r/a)
    from its centre and integrates to one over all space; a is the decay
    length. Its Fourier transform is 1/(1 + (k a)**2)**2, and the
    field module's correlation kernel x**3/(x**2 + 1)**4 is the vacuum
    spectrum x**3 weighted by that transform squared.
    """
