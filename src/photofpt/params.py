"""Parameter containers shared by the analytic, field and Monte Carlo modules.

All quantities are kept in the user's units; the only derived group is the
dimensionless intensity i_s*e_m/sigma**2 that controls every rate curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


# default RNG seed for every command that is not given one explicitly,
# fixed (not wall clock) so unseeded runs are reproducible
DEFAULT_SEED = 2718281828


class TruncationError(RuntimeError):
    """A series truncation tail bound exceeded the requested tolerance."""


class QuadratureError(RuntimeError):
    """An adaptive quadrature failed to converge to the requested tolerance."""


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
        try:
            ts = self.time_scale
        except (OverflowError, ZeroDivisionError):
            ts = math.inf
        if not 0 < ts < math.inf:
            raise ValueError(f"e_m**2/sigma**2 must be a positive finite number, got {ts} "
                             f"for e_m={self.e_m}, sigma={self.sigma}")
        x = dimensionless_intensity(self)
        if not math.isfinite(x):
            raise ValueError(f"i_s*e_m/sigma**2 must be finite, got {x} for i_s={self.i_s}, "
                             f"e_m={self.e_m}, sigma={self.sigma}")

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


@dataclass(frozen=True)
class SeriesControl:
    """Truncation orders and tolerances for series and quadratures.

    n_images : int
        Image-sum truncation; shells n = 0, +-1, ..., +-n_images are kept.
    kl_max : int
        Per-axis truncation of the (k, l) double series and of the
        spectral eigenfunction series.
    abs_tol, rel_tol : float
        A tail estimate passes if it is <= max(abs_tol, rel_tol * |value|);
        otherwise the evaluation raises TruncationError / QuadratureError.
    """

    n_images: int = 30
    kl_max: int = 60
    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.n_images < 1:
            raise ValueError(f"n_images must be >= 1, got {self.n_images}")
        if self.kl_max < 1:
            raise ValueError(f"kl_max must be >= 1, got {self.kl_max}")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be > 0")

    def tolerance_for(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass(frozen=True)
class QuantumDetectorParams:
    """Idealized linear detector: rate = eta * k_const * i_s."""

    eta: float
    k_const: float

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not self.k_const > 0:
            raise ValueError(f"k_const must be > 0, got {self.k_const}")

    @property
    def threshold_equivalent(self) -> float:
        """The threshold e_m = 1/(k_const*eta) at which the classical model
        reproduces this detector's high-intensity rate."""
        return 1.0 / (self.k_const * self.eta)


@dataclass(frozen=True)
class AtomModel:
    """Exponential effective atomic density, natural units by default.

    The absorber is smeared over a density that falls off as exp(-r/a)
    from its centre and integrates to one over all space; a is the decay
    length. Its Fourier transform is 1/(1 + (k a)**2)**2, and the
    field module's correlation kernel x**3/(x**2 + 1)**4 is the vacuum
    spectrum x**3 weighted by that transform squared.
    """

    a: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.a > 0 and self.hbar > 0 and self.c > 0):
            raise ValueError("a, hbar, c must all be > 0")

    @property
    def sigma_unit(self) -> float:
        """Physical unit hbar * c**1.5 * a**-3.5 carried by the noise amplitude."""
        return self.hbar * self.c ** 1.5 * self.a ** -3.5
