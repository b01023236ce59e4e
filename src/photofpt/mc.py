"""Monte Carlo first-passage sampling for the accumulator process.

Euler-Maruyama paths from the origin with per-axis increments
drift_i*dt + sigma*sqrt(dt)*N(0,1); the drift acts on the third axis (the
only axis in 1D). Absorption is checked after each full step against the
configured boundary moved inwards by BETA*sigma*sqrt(dt): interval ends
+-e_m', cube faces |E_i| = e_m' or the sphere |E| = e_m', with
e_m' = e_m - BETA*sigma*sqrt(dt). A walk checked only at step ends misses
the excursions across the boundary between them, which delays the hit by
O(sqrt(dt)); the shift is the continuity correction of Broadie, Glasserman
and Kou (Math. Finance 7 (1997) 325), proved for smooth domains by Gobet
and Menozzi (Stoch. Proc. Appl. 120 (2010) 130), and leaves an O(dt) bias.

Every path draws from its own counter-derived Philox substream, so results
are a pure function of (config, seed): any path subset, evaluation order or
worker layout reproduces the single-threaded ensemble bit for bit.

Paths walk in lockstep blocks, each step one numpy call over the block.
Each chunk of a path's normals is drawn once and feeds every leg that reads
it: the dt and dt/2 legs of a Richardson pair scale the same normals by
their own sigma*sqrt(dt) and drift, and the sphere and the cube are tested
on the same positions.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import zeta

from .params import DetectorParams

_BOUNDARIES = ("interval", "cube", "sphere")

# boundary shift per sigma*sqrt(dt): -zeta(1/2)/sqrt(2 pi), the mean
# overshoot of a standard Gaussian random walk over a distant level
BETA = -float(zeta(0.5)) / math.sqrt(2.0 * math.pi)

# Lockstep blocks of _BLOCK paths. A path of about mu steps, cut into chunks
# of k steps, pays its draw call and its share of the block's numpy calls
# mu/k times and draws about k/2 steps past its exit; k = sqrt(2*c*mu) with
# c = _CHUNK_COST/dim steps minimises the sum. mu is the exit-time scale at
# the smallest dt: the smaller of e_m**2/(dim*sigma**2), the driftless mean
# exit from the inscribed ball, and the drift time e_m/i_s. k >= _MIN_CHUNK,
# and a block's chunk holds at most _BLOCK_NORMALS normals, to bound memory.
_BLOCK = 128
_CHUNK_COST = 32
_MIN_CHUNK = 16
_BLOCK_NORMALS = 2 ** 16


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
        if not math.isfinite(self.max_time):
            raise ValueError(f"max_time must be finite, got {self.max_time}")
        if self.max_time < 100.0 * ts * (1.0 - 1e-12):
            raise ValueError(
                f"max_time={self.max_time:g} too short; need >= 100*e_m**2/sigma**2 = {100.0 * ts:g}")
        # the dt/2 leg has the larger step cap
        if self.max_time / (0.5 * self.dt) == math.inf:
            raise ValueError(f"max_time={self.max_time:g} gives a step cap max_time/(dt/2) "
                             f"that overflows at dt={self.dt:g}")

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


def _walks(config: MCConfig, dts: tuple[float, ...], boundaries: tuple[str, ...] | None = None,
           n_paths: int | None = None) -> Iterator[np.ndarray]:
    """Hit times of paths 0, 1, 2, ... (up to n_paths; without end if None),
    one (paths, legs) array per block: one column per (dt, boundary) pair,
    dt-major, nan where the leg reached its step cap first.

    Paths walk in blocks of _BLOCK; without an end the blocks double from 1,
    so a caller that stops early has walked at most as many paths again.
    Row k of a block resets the k-th generator of one pool to its path's
    Philox substream. Normal k drives step k of every leg, and each boundary
    is tested against its leg's threshold e_m - BETA*sigma*sqrt(dt).
    """
    p = config.params
    dim = config.dimension
    boundaries = boundaries or (config.boundary,)
    sigs = [p.sigma * math.sqrt(dt) for dt in dts]
    legs = [(s, p.i_s * dt, config.steps_cap(dt), p.e_m - BETA * s) for dt, s in zip(dts, sigs)]
    longest = max(leg[2] for leg in legs)
    mu = min(p.time_scale / dim, p.e_m / p.i_s if p.i_s > 0 else math.inf) / min(dts)
    chunk = math.ceil(math.sqrt(2.0 * _CHUNK_COST / dim * mu))
    chunk = min(longest, max(_MIN_CHUNK, min(chunk, _BLOCK_NORMALS // (_BLOCK * dim))))
    spheres = [b == "sphere" for b in boundaries]
    step_dt = np.repeat(dts, len(boundaries))
    pool: list[Callable[[int], Generator]] = []
    start, size = 0, 1
    while n_paths is None or start < n_paths:
        size = min(_BLOCK, size if n_paths is None else n_paths - start)
        pool += [_substreams(config.seed) for _ in range(size - len(pool))]
        steps = _block([pool[k](start + k) for k in range(size)], dim, legs, spheres,
                       chunk, longest)
        yield np.where(steps > 0, steps * step_dt, math.nan)
        start, size = start + size, 2 * size


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


def _block(rngs: list[Generator], dim: int, legs: list[tuple[float, float, int, float]],
           spheres: list[bool], chunk: int, longest: int) -> np.ndarray:
    """(paths, legs * boundaries) hit steps of one block, 0 where censored.

    Per chunk, each of the d paths that some leg still walks draws from its
    row's generator into one (d, steps, dim) array, normal dim*s + i driving
    axis i of step s; each leg then scales, drifts, carries, sums and tests
    its paths in one numpy call each. The carry is folded into a chunk's
    first increment, so positions are one running sum and hit steps depend
    on neither chunk nor block size.
    """
    size = len(rngs)
    need = size * chunk
    zbuf, pbuf = np.empty(need * dim), np.empty(need * dim)
    fbuf, tbuf, hbuf = np.empty(need), np.empty(need), np.empty(need, dtype=bool)
    hits = np.zeros((size, len(legs), len(spheres)), dtype=np.int64)
    live = [np.arange(size)] * len(legs)
    carry = [None] * len(legs)
    drawing = live[0]
    done = 0
    while drawing.size:
        m = min(chunk, longest - done)
        z = zbuf[:drawing.size * m * dim].reshape(drawing.size, m, dim)
        for r, k in enumerate(drawing.tolist()):
            rngs[k].standard_normal(out=z[r])
        for j, (sig_step, drift_step, cap, threshold) in enumerate(legs):
            rows = live[j]
            if not rows.size:
                continue
            n = min(m, cap - done)
            pos = pbuf[:rows.size * n * dim].reshape(rows.size, n, dim)
            if rows.size == drawing.size:
                np.multiply(z[:, :n], sig_step, out=pos)
            else:
                np.take(z[:, :n], np.searchsorted(drawing, rows), axis=0, out=pos, mode="clip")
                pos *= sig_step
            if drift_step:
                pos[..., -1] += drift_step
            if done:
                pos[:, 0] += carry[j]
            np.add.accumulate(pos, axis=1, out=pos)
            far, tmp, hit = (w[:rows.size * n].reshape(rows.size, n) for w in (fbuf, tbuf, hbuf))
            for b, sphere in enumerate(spheres):
                # (E_x^2 + E_y^2) + E_z^2 >= e_m'^2, or max_i |E_i| >= e_m'
                norm, fold, level = ((np.square, np.add, threshold * threshold) if sphere
                                     else (np.abs, np.maximum, threshold))
                norm(pos[..., 0], out=far)
                for axis in range(1, dim):
                    fold(far, norm(pos[..., axis], out=tmp), out=far)
                np.greater_equal(far, level, out=hit)
                first = hit.argmax(axis=1)
                new = hit[np.arange(rows.size), first] & (hits[rows, j, b] == 0)
                hits[rows[new], j, b] = done + 1 + first[new]
            keep = (hits[rows, j] == 0).any(axis=1) & (done + n < cap)
            live[j] = rows[keep]
            carry[j] = pos[keep, -1]
        drawing = np.unique(np.concatenate(live))
        done += m
    return hits.reshape(size, -1)


def _sample(config: MCConfig, dts: tuple[float, ...],
            boundaries: tuple[str, ...] | None = None) -> np.ndarray:
    """(n_paths, len(dts) * len(boundaries)) array of _walks blocks."""
    return np.concatenate(list(_walks(config, dts, boundaries, config.n_paths)))


def _estimate(times: np.ndarray, dt: float) -> FPTEstimate:
    """Moments of the absorbed paths; a nan time marks a censored path."""
    censored = np.isnan(times)
    samples = times[~censored]
    n = samples.size
    if n < 2:
        raise ValueError("need at least 2 absorbed paths for a standard error")
    return FPTEstimate(mean=float(samples.mean()),
                       std_err=float(samples.std(ddof=1) / math.sqrt(n)),
                       n_absorbed=n, n_censored=int(censored.sum()), dt_used=dt)


def simulate_fpt_richardson(config: MCConfig) -> RichardsonFPT:
    """Run at dt and dt/2 from the same per-path substreams and extrapolate
    away the leading O(dt) discretization bias of the shifted boundary.

    The shared streams correlate the two legs path by path, so the
    extrapolated standard error comes from the per-path combination
    2*t_fine - t_coarse rather than from independent errors; a path
    censored on either leg is censored in the combination.
    """
    coarse_t, fine_t = _sample(config, (config.dt, config.dt / 2.0)).T
    return RichardsonFPT(
        coarse=_estimate(coarse_t, config.dt),
        fine=_estimate(fine_t, config.dt / 2.0),
        extrapolated=_estimate(2.0 * fine_t - coarse_t, config.dt))


def simulate_fpt_sphere_vs_cube(params: DetectorParams, base: MCConfig) -> SphereCubeComparison:
    """Evaluate both 3D boundaries on the same trajectories.

    The inscribed sphere |E| = e_m' lies inside the cube |E_i| = e_m' (both
    shifted to the same e_m'), so on a common path the sphere absorbs no
    later; both hit conditions are checked on identical positions, making
    the comparison exactly paired.
    """
    if base.dimension != 3:
        raise ValueError("sphere/cube comparison requires a 3D base config")
    t_sphere, t_cube = _sample(replace(base, params=params), (base.dt,), ("sphere", "cube")).T
    sphere_est = _estimate(t_sphere, base.dt)
    cube_est = _estimate(t_cube, base.dt)
    paired = ~(np.isnan(t_sphere) | np.isnan(t_cube))
    ts, tc = t_sphere[paired], t_cube[paired]
    n = ts.size
    ms, mc = ts.mean(), tc.mean()
    cov = np.cov(ts, tc, ddof=1)
    ratio = ms / mc
    ratio_var = (cov[0, 0] / mc ** 2 + ms ** 2 * cov[1, 1] / mc ** 4
                 - 2.0 * ms * cov[0, 1] / mc ** 3) / n
    return SphereCubeComparison(sphere=sphere_est, cube=cube_est,
                                ratio=float(ratio),
                                ratio_err=float(math.sqrt(max(ratio_var, 0.0))),
                                pathwise_sphere_le_cube=bool(np.all(ts <= tc)))


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
    times = (t for block in _walks(config, (config.dt,)) for t in block[:, 0].tolist())
    for t in times:
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
    # every path absorbed at the same step leaves no spread to scale by
    if not est.std_err > 0:
        raise ValueError(f"z-score needs a positive standard error, got {est.std_err}")
    return (est.mean - analytic) / est.std_err
