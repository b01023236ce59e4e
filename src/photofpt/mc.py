"""Monte Carlo first-passage sampling for the accumulator process.

Euler-Maruyama paths from the origin with per-axis increments
drift_i*dt + sigma*sqrt(dt)*N(0,1); the drift acts on the third axis (the
only axis in 1D). Absorption is checked after each full step against the
configured boundary: interval ends +-e_m, cube faces |E_i| = e_m, or the
sphere |E| = e_m.

Every path draws from its own counter-derived Philox substream, so results
are a pure function of (config, seed): any path subset, evaluation order or
worker layout reproduces the single-threaded ensemble bit for bit.

One chunked kernel walks every path. It draws each chunk of a path's
normals once and feeds every leg that reads them: the dt and dt/2 legs of
a Richardson pair scale the same normals by their own sigma*sqrt(dt) and
drift, and the sphere and the cube are tested on the same positions.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .params import DetectorParams

_BOUNDARIES = ("interval", "cube", "sphere")

# one-level Richardson weights for the O(sqrt(dt)) first-passage bias:
# ext = C_FINE*m(dt/2) - C_COARSE*m(dt)
C_FINE = math.sqrt(2.0) / (math.sqrt(2.0) - 1.0)
C_COARSE = 1.0 / (math.sqrt(2.0) - 1.0)

# Chunk size of the Euler kernel. A path of about mu steps cut into chunks
# of k steps pays the per-chunk numpy calls about mu/k times and draws about
# k/2 steps past its exit; k = sqrt(2*c*mu), with c the per-chunk cost in
# steps, minimises the sum. c is _CHUNK_COST normals, so _CHUNK_COST/dim
# steps, and mu is the exit-time scale over the smallest dt: the smaller of
# the driftless mean exit from the inscribed ball, e_m**2/(dim*sigma**2),
# and the drift time e_m/i_s. No chunk is shorter than _MIN_CHUNK steps.
# Hit steps do not depend on the chunk size; only the normals drawn past the
# exit do.
_CHUNK_COST = 500
_MIN_CHUNK = 64


@dataclass(frozen=True)
class MCConfig:
    """Simulation layout; fully determines a reproducible ensemble."""

    params: DetectorParams
    dt: float
    n_paths: int
    seed: int
    dimension: int = 1
    boundary: str = "interval"
    max_time: float | None = None

    def __post_init__(self):
        ts = self.params.time_scale
        if self.dimension not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.dimension}")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")
        if (self.boundary == "interval") != (self.dimension == 1):
            raise ValueError("interval boundary pairs with dimension 1, cube/sphere with 3")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.dt > 0.01 * ts * (1.0 + 1e-12):
            raise ValueError(
                f"dt={self.dt:g} too coarse; need dt <= 0.01*e_m**2/sigma**2 = {0.01 * ts:g}")
        # at least 20 coarse steps per drift time e_m/i_s
        if self.dt * self.params.i_s / self.params.e_m > 0.05:
            raise ValueError(
                f"dt={self.dt:g} too coarse for the drift; need dt <= 0.05*e_m/i_s = "
                f"{0.05 * self.params.e_m / self.params.i_s:g}")
        if self.n_paths < 100:
            raise ValueError(f"n_paths must be >= 100, got {self.n_paths}")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.max_time is None:
            object.__setattr__(self, "max_time", 100.0 * ts)
        if self.max_time < 100.0 * ts * (1.0 - 1e-12):
            raise ValueError(
                f"max_time={self.max_time:g} too short; need >= 100*e_m**2/sigma**2 = {100.0 * ts:g}")

    def steps_cap(self, dt: float) -> int:
        return int(math.ceil(self.max_time / dt))


@dataclass(frozen=True)
class FPTEstimate:
    """Sample mean and standard error of absorption times; censored paths
    (still alive at max_time) are excluded from the moments and counted."""

    mean: float
    std_err: float
    n_absorbed: int
    n_censored: int
    dt_used: float

    @property
    def n_paths(self) -> int:
        return self.n_absorbed + self.n_censored

    @property
    def censored_fraction(self) -> float:
        return self.n_censored / self.n_paths

    @property
    def unreliable(self) -> bool:
        return self.censored_fraction > 1e-3

    @classmethod
    def from_samples(cls, samples: np.ndarray, n_censored: int, dt_used: float) -> "FPTEstimate":
        n = samples.size
        if n < 2:
            raise ValueError("need at least 2 absorbed paths for a standard error")
        return cls(mean=float(samples.mean()),
                   std_err=float(samples.std(ddof=1) / math.sqrt(n)),
                   n_absorbed=n, n_censored=n_censored, dt_used=dt_used)


@dataclass(frozen=True)
class RichardsonFPT:
    """Paired-seed estimates at dt and dt/2 plus their extrapolation."""

    coarse: FPTEstimate
    fine: FPTEstimate
    extrapolated: FPTEstimate


@dataclass(frozen=True)
class SphereCubeComparison:
    """Common-random-number comparison of the two 3D boundaries."""

    sphere: FPTEstimate
    cube: FPTEstimate
    ratio: float
    ratio_err: float
    pathwise_sphere_le_cube: bool


@dataclass(frozen=True)
class EventStream:
    """Detection times over a horizon; the accumulator restarts from the
    origin after each event, so interarrivals are i.i.d. first passages."""

    event_times: tuple[float, ...]
    horizon: float

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        times = np.asarray(self.event_times, dtype=float)
        if times.size:
            if times[0] <= 0 or np.any(np.diff(times) <= 0):
                raise ValueError("event times must be strictly increasing and positive")
            if times[-1] > self.horizon:
                raise ValueError("event beyond horizon")

    @property
    def count(self) -> int:
        return len(self.event_times)

    @property
    def rate(self) -> float:
        return self.count / self.horizon

    def interarrivals(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], np.asarray(self.event_times))))


def _walks(config: MCConfig, dts: tuple[float, ...],
           boundaries: tuple[str, ...] | None = None) -> Iterator[list[float]]:
    """Hit times of paths 0, 1, 2, ...: one per (dt, boundary) pair, dt-major,
    nan where the leg reached its step cap first.

    Path i resets one generator to Philox substream i. Each chunk of normals
    is drawn once: normal k drives step k of the leg at every dt, and every
    boundary is tested on that leg's positions.
    """
    p = config.params
    boundaries = boundaries or (config.boundary,)
    legs = [(p.sigma * math.sqrt(dt), p.i_s * dt, config.steps_cap(dt)) for dt in dts]
    longest = max(cap for *_, cap in legs)
    t_ref = p.time_scale / config.dimension
    if p.i_s > 0:
        t_ref = min(t_ref, p.e_m / p.i_s)
    mu = t_ref / min(dts)
    chunk = math.ceil(math.sqrt(2.0 * _CHUNK_COST / config.dimension * mu))
    chunk = max(_MIN_CHUNK, min(longest, chunk))
    spheres = [b == "sphere" for b in boundaries]
    substream = _substreams(config.seed)
    for index in itertools.count():
        hits = _walk(substream(index), p.e_m, config.dimension, legs, spheres, chunk, longest)
        yield [s * dt if s else math.nan for dt, leg in zip(dts, hits) for s in leg]


def _substreams(seed: int) -> Callable[[int], Generator]:
    """index -> Generator(Philox(key=seed, counter=[0, 0, 0, index])), one
    generator reset to that state each time, which is cheaper than building
    one per path. The index lives in the top counter word; a path would have
    to consume 2**192 blocks to collide with its neighbour."""
    bitgen = Philox(key=seed)
    fresh = bitgen.state  # counter [0, 0, 0, 0], empty buffer
    rng = Generator(bitgen)

    def reset(index: int) -> Generator:
        fresh["state"]["counter"][3] = index
        bitgen.state = fresh
        return rng
    return reset


def _walk(rng: Generator, em: float, dim: int, legs: list[tuple[float, float, int]],
          spheres: list[bool], chunk: int, longest: int) -> list[list[int]]:
    """Hit step per boundary of every leg on one path, 0 where censored.

    Positions are one running sum from the origin: each chunk's carry is
    folded into its first increment, so hit steps do not depend on chunking.
    """
    hits = [[0] * len(spheres) for _ in legs]
    carry = [None] * len(legs)
    live = list(range(len(legs)))
    done = 0
    while live:
        m = min(chunk, longest - done)
        # normals 3k..3k+2 drive step k in 3D; one contiguous row per axis
        z = np.ascontiguousarray(rng.standard_normal((m, dim)).T)
        for j in live[:]:
            sig_step, drift_step, cap = legs[j]
            n = min(m, cap - done)
            pos = z[:, :n] * sig_step
            if drift_step:
                pos[-1] += drift_step
            if done:
                pos[:, 0] += carry[j]
            np.add.accumulate(pos, axis=1, out=pos)
            leg = hits[j]
            for b, sphere in enumerate(spheres):
                if not leg[b]:
                    i = _first_exit(pos, em, sphere)
                    if i < n:
                        leg[b] = done + i + 1
            if all(leg) or done + n == cap:
                live.remove(j)
            else:
                carry[j] = pos[:, -1]
        done += m
    return hits


def _first_exit(pos: np.ndarray, em: float, sphere: bool) -> int:
    """First column of pos (axes x steps) on or beyond the boundary, or the
    column count when there is none: |E| >= e_m for the sphere, any
    |E_i| >= e_m for the interval and the cube."""
    if sphere:
        hit = (pos * pos).sum(axis=0) >= em * em
    elif len(pos) == 1:
        hit = np.abs(pos[0]) >= em
    else:
        hit = (np.abs(pos) >= em).any(axis=0)
    i = int(hit.argmax())
    return i if hit[i] else pos.shape[1]


def _sample(config: MCConfig, dts: tuple[float, ...],
            boundaries: tuple[str, ...] | None = None) -> np.ndarray:
    """(n_paths, len(dts) * len(boundaries)) array of _walks rows."""
    return np.array(list(itertools.islice(_walks(config, dts, boundaries), config.n_paths)))


def _sample_times(config: MCConfig, dt: float) -> np.ndarray:
    """Absorption time per path (nan where censored at max_time)."""
    return _sample(config, (dt,))[:, 0]


def _estimate(times: np.ndarray, dt: float) -> FPTEstimate:
    """Moments of the absorbed paths; a nan time marks a censored path."""
    censored = np.isnan(times)
    return FPTEstimate.from_samples(times[~censored], int(censored.sum()), dt)


def simulate_fpt(config: MCConfig) -> FPTEstimate:
    """Estimate the mean first-passage time at the configured step size."""
    return _estimate(_sample_times(config, config.dt), config.dt)


def simulate_fpt_richardson(config: MCConfig) -> RichardsonFPT:
    """Run at dt and dt/2 from the same per-path substreams and extrapolate
    away the leading O(sqrt(dt)) discretization bias.

    The shared streams correlate the two legs path by path, so the
    extrapolated standard error comes from the per-path combination
    C_FINE*t_fine - C_COARSE*t_coarse rather than from independent errors;
    a path censored on either leg is censored in the combination.
    """
    coarse_t, fine_t = _sample(config, (config.dt, config.dt / 2.0)).T
    return RichardsonFPT(
        coarse=_estimate(coarse_t, config.dt),
        fine=_estimate(fine_t, config.dt / 2.0),
        extrapolated=_estimate(C_FINE * fine_t - C_COARSE * coarse_t, config.dt))


def simulate_fpt_sphere_vs_cube(params: DetectorParams, base: MCConfig) -> SphereCubeComparison:
    """Evaluate both 3D boundaries on the same trajectories.

    The inscribed sphere |E| = e_m lies inside the cube |E_i| = e_m, so on a
    common path the sphere absorbs no later; both hit conditions are checked
    on identical positions, making the comparison exactly paired.
    """
    if base.dimension != 3:
        raise ValueError("sphere/cube comparison requires a 3D base config")
    t_sphere, t_cube = _sample(replace(base, params=params), (base.dt,), ("sphere", "cube")).T
    sphere_est = _estimate(t_sphere, base.dt)
    cube_est = _estimate(t_cube, base.dt)
    paired = ~(np.isnan(t_sphere) | np.isnan(t_cube))
    ts = t_sphere[paired]
    tc = t_cube[paired]
    n = ts.size
    ms, mc = ts.mean(), tc.mean()
    cov = np.cov(ts, tc, ddof=1)
    ratio = ms / mc
    ratio_var = (cov[0, 0] / mc ** 2 + ms ** 2 * cov[1, 1] / mc ** 4
                 - 2.0 * ms * cov[0, 1] / mc ** 3) / n
    pathwise = bool(np.all(ts <= tc))
    return SphereCubeComparison(sphere=sphere_est, cube=cube_est,
                                ratio=float(ratio),
                                ratio_err=float(math.sqrt(max(ratio_var, 0.0))),
                                pathwise_sphere_le_cube=pathwise)


def simulate_event_stream(config: MCConfig, horizon: float) -> EventStream:
    """Renewal detection record: successive first passages, accumulator reset
    to the origin after each event, until the horizon is passed.

    Interval i draws from substream i, so the stream is reproducible and
    its prefix does not depend on the horizon. A censored interval (no
    absorption within max_time) advances the clock without an event.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    events: list[float] = []
    clock = 0.0
    for t, in _walks(config, (config.dt,)):
        clock += config.max_time if math.isnan(t) else t
        if clock > horizon:
            break
        if not math.isnan(t):
            events.append(clock)
    return EventStream(event_times=tuple(events), horizon=horizon)


def zscore(analytic: float, est: FPTEstimate) -> float:
    """Standardized deviation (est.mean - analytic)/est.std_err."""
    if est.n_absorbed < 2:
        raise ValueError("z-score needs at least 2 absorbed paths")
    return (est.mean - analytic) / est.std_err
