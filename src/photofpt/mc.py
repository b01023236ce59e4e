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
Paths still walking at MCConfig.max_time = 100 e_m**2/sigma**2 are censored.

Every path draws from its own counter-derived Philox substream, so results
are a pure function of (config, seed): any path subset, evaluation order or
worker layout reproduces the single-threaded ensemble bit for bit. That
holds for threads too, since each thread resets generators of its own pool.

Paths walk in lockstep blocks of _BLOCK, only a counted run's last holding
fewer, each step one numpy call over the block. Each chunk of a path's normals
is drawn once and feeds every leg that reads it: the dt and dt/2 legs of a
Richardson pair scale the same normals by their own sigma*sqrt(dt) and drift,
and the sphere and the cube are tested on the same positions.
"""
from __future__ import annotations

import math
import operator
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.random import Generator, Philox

from .params import DetectorParams

BOUNDARIES = {"interval": 1, "cube": 3, "sphere": 3}

# boundary shift per sigma*sqrt(dt): -zeta(1/2)/sqrt(2 pi), the mean
# overshoot of a standard Gaussian random walk over a distant level; the
# literal equals -float(scipy.special.zeta(0.5))/math.sqrt(2*math.pi) bit
# for bit, so importing mc loads no scipy
BETA = 0.5825971579390107

# Lockstep blocks of _BLOCK paths. A path of about mu steps, cut into chunks
# of k steps, pays its draw call and its share of the block's numpy calls
# mu/k times and draws about k/2 steps past its exit; k = sqrt(2*c*mu) with
# c = _CHUNK_COST/dim steps minimises the sum. mu is MCConfig.exit_time over
# the smallest dt, the exit time being the smaller of e_m**2/(dim*sigma**2),
# the driftless mean exit from the inscribed ball, and the drift time e_m/i_s.
# A block's chunk holds at most _BLOCK_NORMALS normals, to bound memory. No
# other clamp is needed: MCConfig's dt bounds give 20 <= mu <= _MAX_EXIT_STEPS
# (the upper bound caps a path's work at a tiny dt), so k >= 21, and step
# caps of at least 100/0.01 = 1e4, above the memory bound of at most 512 steps.
_BLOCK = 128
_CHUNK_COST = 32
_BLOCK_NORMALS = 2 ** 16
_MAX_EXIT_STEPS = 1e6


@dataclass(frozen=True)
class MCConfig:
    """Simulation layout; fully determines a reproducible ensemble. The
    boundary fixes the dimension: BOUNDARIES[boundary], 1 or 3. The censoring
    cap max_time = 100 e_m**2/sigma**2 is derived: the driftless interval,
    the slowest geometry, outlives it with probability below 3.4e-54."""

    params: DetectorParams
    dt: float
    n_paths: int
    seed: int
    # derived; settable only because perfbench's configs pass it (checked)
    dimension: int | None = None
    boundary: str = "interval"
    max_time: float = field(init=False)

    def __post_init__(self):
        ts = self.params.time_scale
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {tuple(BOUNDARIES)}, got {self.boundary!r}")
        dimension = BOUNDARIES[self.boundary]
        if self.dimension not in (None, dimension):
            raise ValueError(f"the {self.boundary} boundary has dimension {dimension}, "
                             f"got {self.dimension}")
        object.__setattr__(self, "dimension", dimension)
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
        if operator.index(self.n_paths) < 100:
            raise ValueError(f"n_paths must be >= 100, got {self.n_paths}")
        # Philox would truncate a float or parse a str, running another seed
        if not 0 <= operator.index(self.seed) < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "max_time", 100.0 * ts)
        # the dt/2 leg has the larger step cap; half a subnormal dt is 0
        if not (0.5 * self.dt > 0 and math.isfinite(self.max_time / (0.5 * self.dt))):
            raise ValueError(f"dt={self.dt:g} and time scale e_m**2/sigma**2={ts:g} give "
                             "no finite step cap 100*time_scale/(dt/2)")
        if self.exit_time / (0.5 * self.dt) > _MAX_EXIT_STEPS:
            raise ValueError(f"dt={self.dt:g} too fine; need dt >= "
                             f"{2.0 * self.exit_time / _MAX_EXIT_STEPS:g}, at most "
                             f"{_MAX_EXIT_STEPS:g} steps of dt/2 per exit time "
                             "min(e_m**2/(dim*sigma**2), e_m/i_s)")

    def steps_cap(self, dt: float) -> int:
        return int(math.ceil(self.max_time / dt))

    @property
    def exit_time(self) -> float:
        """The exit-time scale min(e_m**2/(dim*sigma**2), e_m/i_s)."""
        p = self.params
        return min(p.time_scale / self.dimension, p.e_m / p.i_s if p.i_s > 0 else math.inf)


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
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        times = np.asarray(self.event_times, dtype=float)
        if times.size:
            # as positive comparisons, which a nan fails
            if not (times[0] > 0 and np.all(np.diff(times) > 0)):
                raise ValueError("event times must be finite, positive and strictly increasing")
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


def _walks(config: MCConfig, dts: tuple[float, ...], boundaries: tuple[str, ...] | None,
           n_paths: int) -> Iterator[np.ndarray]:
    """Hit times of paths 0, 1, ..., n_paths - 1, one (paths, legs) array
    per block: one column per (dt, boundary) pair, dt-major, nan where the
    leg reached its step cap first.

    Blocks hold _BLOCK paths, the last possibly fewer, so a caller that
    stops early has walked fewer than _BLOCK paths past its last one.
    Paths draw from one pool of _BLOCK generators per thread, built on first
    use and reset to the path's substream. A block is walked in full before
    it is yielded, so interleaved walks never share live generator state.
    Normal k drives step k of every leg, and each boundary is tested against
    its leg's threshold e_m - BETA*sigma*sqrt(dt).
    """
    p = config.params
    dim = config.dimension
    boundaries = boundaries or (config.boundary,)
    sigs = [p.sigma * math.sqrt(dt) for dt in dts]
    legs = [(s, p.i_s * dt, config.steps_cap(dt), p.e_m - BETA * s) for dt, s in zip(dts, sigs)]
    longest = max(leg[2] for leg in legs)
    mu = config.exit_time / min(dts)
    chunk = min(math.ceil(math.sqrt(2.0 * _CHUNK_COST / dim * mu)),
                _BLOCK_NORMALS // (_BLOCK * dim))
    spheres = [b == "sphere" for b in boundaries]
    step_dt = np.repeat(dts, len(boundaries))
    fresh = Philox(key=config.seed).state  # the seed's key, counter [0, 0, 0, 0]
    # as lists, which the state setter reads in half the time of arrays
    fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    for start in range(0, n_paths, _BLOCK):
        rngs = _substreams(fresh, start, min(_BLOCK, n_paths - start))
        steps = _block(rngs, dim, legs, spheres, chunk, longest)
        yield np.where(steps > 0, steps * step_dt, math.nan)


_local = threading.local()


def _substreams(fresh: dict, start: int, size: int) -> list[Generator]:
    """Generators k = 0, ..., size - 1 of this thread's pool, each reset to
    Generator(Philox(key=seed, counter=[0, 0, 0, start + k])), where `fresh`
    is Philox(key=seed).state. Resetting a pooled generator is cheaper than
    building one per path, and the assignment rewrites key, counter and
    buffer, so nothing of an earlier seed or draw survives. The index lives
    in the top counter word; a path would have to consume 2**192 blocks to
    collide with its neighbour."""
    pool = _local.__dict__.setdefault("pool", [])
    pool += [Generator(Philox(key=0)) for _ in range(size - len(pool))]
    counter = fresh["state"]["counter"]
    for k, rng in enumerate(pool[:size]):
        counter[3] = start + k
        rng.bit_generator.state = fresh
    return pool[:size]


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
        # the sorted union without np.unique, which would import numpy.ma
        drawing = np.flatnonzero(np.bincount(np.concatenate(live), minlength=size))
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
    its prefix does not depend on the horizon; it walks full blocks and
    stops fewer than _BLOCK intervals past the horizon. A censored interval
    (no absorption within max_time) advances the clock without an event.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    events: list[float] = []
    clock = 0.0
    times = (t for b in _walks(config, (config.dt,), None, 2 ** 64) for t in b[:, 0].tolist())
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
