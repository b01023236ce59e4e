"""End-to-end acceptance checks, shared by the test suite and the CLI.

Each numbered check evaluates one acceptance criterion at its stated
tolerance and reports expected value, observed value and verdict. Checks
are honest: where a quoted reference figure is not reproduced by the
mathematics, the check fails and says what was found instead.

The module also houses the independent oracles used by those checks: a
Crank-Nicolson solver for the 1D absorbing-boundary density, a radial
finite-difference solver for the driftless sphere exit time, and direct
quadrature of survival curves for the mean/survival identity.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.integrate import quad, simpson
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from . import analytic, field, mc
from .params import (
    AtomModel,
    DEFAULT_SEED,
    DetectorParams,
    SeriesControl,
    params_for_intensity,
)


# ---------------------------------------------------------------------------
# independent oracles

def pde_survival_1d(t_target: float, drift: float, params: DetectorParams,
                    nx: int = 4001) -> float:
    """Survival at t_target from a Crank-Nicolson solve of the density
    equation df/dt = (sigma^2/2) f'' - drift f' with absorbing ends +-e_m.

    The delta initial condition is replaced by the exact free Gaussian at a
    small warm-up time t0 = e_m^2/(32 sigma^2); the march then uses an
    integer number of steps of at most 2.5e-4 landing exactly on t_target.
    """
    a = params.e_m
    diff = 0.5 * params.sigma ** 2
    t0 = a * a / (32.0 * params.sigma ** 2)
    if t_target <= 2.0 * t0:
        raise ValueError(f"t_target must exceed the warm-up time {t0:g}")
    x = np.linspace(-a, a, nx)
    dx = x[1] - x[0]
    var0 = params.sigma ** 2 * t0
    f = np.exp(-(x - drift * t0) ** 2 / (2.0 * var0)) / math.sqrt(2.0 * math.pi * var0)
    f[0] = f[-1] = 0.0

    nsteps = max(64, int(math.ceil((t_target - t0) / 2.5e-4)))
    dt = (t_target - t0) / nsteps
    al = diff * dt / (2.0 * dx * dx)
    be = drift * dt / (4.0 * dx)
    m = nx - 2
    # the implicit matrix is the same at every step: factor it once
    lu = dgttrf(np.full(m - 1, -al - be), np.full(m, 1.0 + 2.0 * al), np.full(m - 1, -al + be))
    if lu[-1]:
        raise np.linalg.LinAlgError(f"Crank-Nicolson matrix is singular (dgttrf info {lu[-1]})")
    for _ in range(nsteps):
        mid = f[1:-1]
        rhs = mid + al * (f[2:] - 2.0 * mid + f[:-2]) - be * (f[2:] - f[:-2])
        f[1:-1] = dgttrs(*lu[:-1], rhs)[0]
    return float(simpson(f, x=x))


def radial_mean_exit_time(e_m: float, sigma: float, nr: int = 4001) -> float:
    """Driftless mean exit time from the centered sphere of radius e_m by a
    finite-difference solve of (sigma^2/2)(u'' + 2u'/r) = -1, u(e_m) = 0,
    u'(0) = 0. Returns u(0)."""
    diff = 0.5 * sigma * sigma
    dr = e_m / (nr - 1)
    m = nr - 1
    c_lap = diff / dr ** 2
    # grid rows j = 1 .. m-1 at r = j dr; row m is the absorbing end u = 0
    c_drv = diff / (np.arange(1, m) * dr * dr)
    ab = np.zeros((3, m))
    ab[2, :-1] = c_lap - c_drv
    ab[1, 1:] = -2.0 * c_lap
    ab[0, 2:] = (c_lap + c_drv)[:-1]
    # r = 0: the radial Laplacian degenerates to 3 u''(0) with symmetric ghost
    ab[1, 0] = -6.0 * diff / dr ** 2
    ab[0, 1] = 6.0 * diff / dr ** 2
    u = solve_banded((1, 1), ab, np.full(m, -1.0))
    return float(u[0])


def reference_mean(params: DetectorParams, boundary: str) -> float | None:
    """The non-sampled mean that a Monte Carlo run on `boundary` is judged
    against: the closed form on the interval, the double series on the
    cube, the radial solve on the driftless sphere, and None on the drifted
    sphere, which has no such value here."""
    if boundary == "interval":
        return analytic.mean_fpt_1d(params)
    if boundary == "cube":
        return analytic.mean_fpt_3d(params)
    if boundary != "sphere":
        raise ValueError(f"no reference mean for boundary {boundary!r}")
    return None if params.i_s else radial_mean_exit_time(params.e_m, params.sigma)


def mean_fpt_quadrature(params: DetectorParams, ctrl: SeriesControl | None,
                        dimension: int) -> float:
    """Mean first-passage time as the integral of the survival curve."""
    if dimension == 1:
        def surv(t: float) -> float:
            return analytic.axis_survival_image(t, params.i_s, params, ctrl)
    elif dimension == 3:
        def surv(t: float) -> float:
            return analytic.survival_3d(t, params, ctrl)
    else:
        raise ValueError(f"dimension must be 1 or 3, got {dimension}")
    hi = params.time_scale
    while surv(hi) > 1e-13:
        hi *= 2.0
    val, _ = quad(surv, 0.0, hi, epsabs=1e-12, epsrel=1e-8, limit=300)
    return float(val)


# ---------------------------------------------------------------------------
# report plumbing

@dataclass(kw_only=True)
class CheckResult:
    # a check reports what it found; run_check adds its number, name and time
    cid: int = 0
    name: str = ""
    expected: str
    observed: str
    tolerance: str
    passed: bool
    source: str
    detail: str = ""
    elapsed_s: float = 0.0

    def __post_init__(self):
        # checks compute their verdicts with numpy; the report must stay JSON
        self.passed = bool(self.passed)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"[{self.cid:2d}] {verdict}  {self.name}: observed {self.observed}"
                f" | expected {self.expected} (tol {self.tolerance})")


@dataclass
class ValidationReport:
    checks: list[CheckResult] = dataclass_field(default_factory=list)
    seed: int = DEFAULT_SEED

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        n_fail = sum(not c.passed for c in self.checks)
        return (f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed"
                + ("" if not n_fail else f", {n_fail} FAILED"))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [vars(c) for c in self.checks],
        }


# ---------------------------------------------------------------------------
# the thirteen checks

def _z_line(pairs) -> str:
    return ", ".join(f"x={x:g}: z={z:+.2f}" for x, z in pairs)


def _richardson_legs(seed: int, xs, boundary: str,
                     n_paths: int = 100_000) -> tuple[list[tuple[float, float, float]], str]:
    """Richardson pairs at dt = 5e-3 on `boundary`, intensity xs[i] on seed
    seed + i: each x with its reference_mean and the z of the extrapolated
    mean against it, and a line stating the pairs' steps and paths."""
    legs = []
    for i, x in enumerate(xs):
        params = params_for_intensity(x)
        config = mc.MCConfig(params=params, dt=5e-3, n_paths=n_paths, seed=seed + i,
                             dimension=1 if boundary == "interval" else 3, boundary=boundary)
        rich = mc.simulate_fpt_richardson(config)
        ref = reference_mean(params, boundary)
        legs.append((x, ref, mc.zscore(ref, rich.extrapolated)))
    return legs, (f"Richardson pairs at dt = {config.dt:g} and {config.dt / 2:g}, "
                  f"{config.n_paths} paths")


def _richardson_check(seed: int, xs, boundary: str, source: str) -> CheckResult:
    legs, pairs = _richardson_legs(seed, xs, boundary)
    worst = max(abs(z) for _, _, z in legs)
    return CheckResult(
        expected="|z| <= 3 at x in {" + ", ".join(f"{x:g}" for x in xs) + "}",
        observed=f"max |z| = {worst:.2f}",
        tolerance="3 standard errors", passed=worst <= 3.0,
        source=source,
        detail=_z_line((x, z) for x, _, z in legs) + "; " + pairs)


def check_01_interval_mc(seed: int) -> CheckResult:
    return _richardson_check(seed, (0.0, 0.5, 1.0, 2.0, 5.0), "interval",
                             "closed form (e_m/i_s) tanh(x)")


def check_02_cube_mc(seed: int) -> CheckResult:
    return _richardson_check(seed + 100, (0.0, 1.0, 3.0), "cube",
                             "double series (128/pi^4) F(x)")


def check_03_dark_3d_constants(seed: int) -> CheckResult:
    point = analytic.rate_point(params_for_intensity(0.0))
    mean, rate = point["mean_fpt_3d"], point["rate_3d"]
    ok = abs(mean - 0.49) <= 0.005 and abs(rate - 2.0) <= 0.02
    return CheckResult(
        expected="mean 0.490 +- 0.005, rate 2.00 +- 0.02 (units e_m^2/sigma^2 and its inverse)",
        observed=f"mean {mean:.6f}, rate {rate:.6f}",
        tolerance="+-0.005 / +-0.02", passed=ok,
        source="reference constants",
        detail=f"the exact series gives 128/pi^4 * F(0) = {mean:.7f}, not 0.49; the "
               "simulation (check 2, x=0) confirms the series, so the quoted rounding "
               "is not reproducible from the stated model")


def check_04_asymptote(seed: int) -> CheckResult:
    scale = 128.0 / math.pi ** 4
    e50 = abs(50.0 * analytic.f3_series(50.0) * scale - 1.0)
    e500 = abs(500.0 * analytic.f3_series(500.0, SeriesControl(kl_max=160)) * scale - 1.0)
    ok = e50 < 0.01 and e500 < 0.001
    return CheckResult(
        expected="x F(x) -> pi^4/128: rel err < 1% at x=50, < 0.1% at x=500",
        observed=f"rel err {e50:.2e} at x=50, {e500:.2e} at x=500",
        tolerance="1% / 0.1%", passed=ok,
        source="series limit",
        detail="x=500 evaluated at kl_max=160 so the saturation edge of the double "
               "series is fully inside the truncation")


def check_05_high_rate(seed: int) -> CheckResult:
    worst = 0.0
    for x in (8.0, 10.0, 12.0, 16.0):
        params = params_for_intensity(x)
        worst = max(worst, abs(analytic.rate_1d(params) / (params.i_s / params.e_m)
                               - (1.0 + 2.0 * math.exp(-2.0 * x))))
    return CheckResult(
        expected="|rate/(i_s/e_m) - (1 + 2 exp(-2x))| < 1e-6 for x >= 8",
        observed=f"max deviation {worst:.2e}",
        tolerance="1e-6", passed=worst < 1e-6,
        source="coth expansion")


def check_06_dark_threshold(seed: int) -> CheckResult:
    val = analytic.dark_fraction(1.5)
    ok = 0.10 < val < 0.11
    return CheckResult(
        expected="coth(1.5) - 1 in (0.10, 0.11)",
        observed=f"{val:.6f}",
        tolerance="open interval (0.10, 0.11)", passed=ok,
        source="closed form")


def check_07_representations(seed: int) -> CheckResult:
    params = params_for_intensity(0.0)
    ts = np.geomspace(0.05, 10.0, 60)
    gap = max(abs(analytic.axis_survival_image(t, 0.0, params)
                  - analytic.axis_survival_spectral(t, params)) for t in ts)

    idents = []
    for x in (0.0, 1.0, 5.0):
        p = params_for_intensity(x)
        for dim, series in ((1, analytic.mean_fpt_1d(p)), (3, analytic.mean_fpt_3d(p))):
            q = mean_fpt_quadrature(p, None, dim)
            idents.append((dim, x, abs(q - series) / series))
    worst_ident = max(rel for _, _, rel in idents)
    ok = gap < 1e-10 and worst_ident < 1e-3
    return CheckResult(
        expected="image/spectral gap < 1e-10 on t in [0.05, 10]; mean = integral of survival to rel 1e-3",
        observed=f"max gap {gap:.2e}; worst identity rel err {worst_ident:.2e}",
        tolerance="1e-10 / 1e-3", passed=ok,
        source="dual representations",
        detail="; ".join(f"{d}D x={x:g}: rel {r:.1e}" for d, x, r in idents))


def check_08_pde(seed: int) -> CheckResult:
    diffs = []
    for x in (0.0, 2.0):
        params = params_for_intensity(x)
        t = 0.5 * params.time_scale
        pde = pde_survival_1d(t, params.i_s, params)
        img = analytic.axis_survival_image(t, params.i_s, params)
        diffs.append((x, abs(pde - img)))
    worst = max(d for _, d in diffs)
    return CheckResult(
        expected="|pde - image| < 1e-5 at x in {0, 2}, t = 0.5 e_m^2/sigma^2",
        observed=f"max |diff| = {worst:.2e}",
        tolerance="1e-5", passed=worst < 1e-5,
        source="Crank-Nicolson oracle",
        detail=", ".join(f"x={x:g}: {d:.2e}" for x, d in diffs)
               + "; fixes the tanh(i_s e_m/sigma^2) argument convention")


def check_09_field_correlation(seed: int) -> CheckResult:
    g0 = field.g_tau(0.0)
    d0 = abs(g0 - field.G0)

    taus = np.linspace(0.005, 0.05, 10)
    vals = np.array([field.g_tau(float(t)) for t in taus])
    t2 = taus ** 2
    curv = float(np.dot(vals / g0 - 1.0, t2) / np.dot(t2, t2))

    tail_taus = np.linspace(10.0, 20.0, 41)
    tail = np.array([field.g_tau(float(t)) for t in tail_taus])
    crossings = np.nonzero(tail[:-1] * tail[1:] < 0)[0]
    if crossings.size >= 2:
        spacing = float(np.mean(np.diff(tail_taus[crossings])))
        freq = math.pi / spacing
        freq_ok = abs(freq - math.sqrt(0.6)) / math.sqrt(0.6) < 0.01
        freq_txt = f"frequency {freq:.4f}"
    else:
        freq_ok = False
        freq_txt = f"{crossings.size} sign changes on [10, 20] (>= 2 needed for a frequency)"
    env_slope = float(np.polyfit(tail_taus, np.log(np.abs(tail)), 1)[0])
    env_ok = abs(env_slope - (-2.0 * math.sqrt(2.0) / 5.0)) <= 0.02 * (2.0 * math.sqrt(2.0) / 5.0)

    ok = d0 < 1e-8 and abs(curv + 1.0) < 0.01 and freq_ok and env_ok
    return CheckResult(
        expected="g(0) = 1/(18 pi) +- 1e-8; curvature -1 +- 1%; tail frequency "
                 "sqrt(3/5) +- 1% and log-envelope slope -2 sqrt(2)/5 +- 2%",
        observed=f"g(0) diff {d0:.1e}; curvature {curv:+.4f}; {freq_txt}; "
                 f"envelope slope {env_slope:+.4f}",
        tolerance="1e-8 / 1% / 1% / 2%", passed=ok,
        source="closed form in exponential integrals",
        # tail_taus[8] is tau = 12
        detail=f"closed form on [10, 20]: g(12) = {tail[8]:.3e}, g(20) = {tail[-1]:.3e}, "
               f"{crossings.size} sign changes, fitted log-envelope slope {env_slope:+.4f}; "
               "every coefficient of the large-lag expansion (2/3pi)(6/tau^4 + 480/tau^6 "
               "+ ...) is positive, so the tail neither oscillates nor decays "
               "exponentially, where the quoted form is a damped cosine")


def check_10_moment(seed: int) -> CheckResult:
    quad_val, exact = field.moment_integral()
    diff = abs(quad_val - exact)
    return CheckResult(
        expected=f"5 pi / 4096 = {5.0 * math.pi / 4096.0:.12e}",
        observed=f"quadrature {quad_val:.12e}, closed form {exact:.12e}",
        tolerance="1e-10", passed=diff < 1e-10,
        source="half-Beta identity B(7/2, 9/2)/2")


def check_11_sigma(seed: int) -> CheckResult:
    est = field.sigma_const(AtomModel())
    return CheckResult(
        expected="time-domain and Parseval routes agree to 1e-6 relative",
        observed=f"sigma = {est.sigma_time:.6e} (time) vs {est.sigma_freq:.6e} "
                 f"(Parseval), rel diff {est.rel_disagreement:.1e}",
        tolerance="1e-6 relative", passed=est.consistent,
        source="dual-route computation",
        detail=est.note)


def check_12_renewal(seed: int) -> CheckResult:
    zs = []
    for i, x in enumerate((0.0, 2.0)):
        params = params_for_intensity(x)
        mean_ref = analytic.mean_fpt_1d(params)
        config = mc.MCConfig(params=params, dt=5e-4, n_paths=100,
                             seed=seed + 200 + i, dimension=1, boundary="interval")
        stream = mc.simulate_event_stream(config, horizon=1e4 * mean_ref)
        gaps = stream.interarrivals()
        se_rate = gaps.std(ddof=1) / (gaps.mean() ** 2 * math.sqrt(gaps.size))
        zs.append((x, (stream.rate - 1.0 / mean_ref) / se_rate))
    worst = max(abs(z) for _, z in zs)
    return CheckResult(
        expected="|z| <= 3 at x in {0, 2}, horizon 1e4 mean interarrivals",
        observed=f"max |z| = {worst:.2f}",
        tolerance="3 standard errors", passed=worst <= 3.0,
        source="renewal identity rate = 1/mean",
        detail=_z_line(zs) + f"; one leg at dt = {config.dt:g}, whose O(dt) step bias "
               "stays below a third of a standard error")


def check_13_sphere_cube(seed: int) -> CheckResult:
    mean_ok = True
    pathwise_ok = True
    ratios = []
    for i, x in enumerate((0.0, 2.0)):
        params = params_for_intensity(x)
        base = mc.MCConfig(params=params, dt=5e-3, n_paths=30_000,
                           seed=seed + 300 + i, dimension=3, boundary="cube")
        comp = mc.simulate_fpt_sphere_vs_cube(params, base)
        mean_ok &= comp.sphere.mean <= comp.cube.mean
        pathwise_ok &= comp.pathwise_sphere_le_cube
        ratios.append((x, comp.ratio, comp.ratio_err))

    [(_, oracle, z)], pairs = _richardson_legs(seed + 310, (0.0,), "sphere", 30_000)

    ok = mean_ok and pathwise_ok and abs(z) <= 3.0
    return CheckResult(
        expected="sphere mean <= cube mean at every tested x; driftless sphere matches "
                 "the radial solver within 3 standard errors",
        observed=f"pathwise ordering {'held' if pathwise_ok else 'VIOLATED'}; "
                 f"sphere oracle z = {z:+.2f}",
        tolerance="ordering exact; 3 standard errors", passed=ok,
        source="containment + radial finite-difference oracle",
        detail="; ".join(f"x={x:g}: sphere/cube = {r:.4f} +- {e:.1e}" for x, r, e in ratios)
               + f" at dt = {base.dt:g}, {base.n_paths} paths; radial oracle mean "
               f"{oracle:.6f} e_m^2/sigma^2; sphere " + pairs)


CRITERIA: tuple[tuple[int, str, object], ...] = (
    (1, "1D closed form vs simulation", check_01_interval_mc),
    (2, "3D cube series vs simulation", check_02_cube_mc),
    (3, "zero-intensity 3D mean and rate", check_03_dark_3d_constants),
    (4, "large-x series asymptote", check_04_asymptote),
    (5, "high-intensity 1D rate expansion", check_05_high_rate),
    (6, "10% excess at x = 1.5", check_06_dark_threshold),
    (7, "survival representations and mean identity", check_07_representations),
    (8, "finite-difference solver pins the 1D survival", check_08_pde),
    (9, "correlation value, curvature and tail shape", check_09_field_correlation),
    (10, "spectral moment dual evaluation", check_10_moment),
    (11, "noise amplitude dual routes", check_11_sigma),
    (12, "event-stream rate equals inverse mean", check_12_renewal),
    (13, "sphere vs cube boundaries", check_13_sphere_cube),
)


def run_check(cid: int, seed: int = DEFAULT_SEED) -> CheckResult:
    for num, name, fn in CRITERIA:
        if num == cid:
            start = time.perf_counter()
            result = fn(seed)
            result.elapsed_s = time.perf_counter() - start
            result.cid, result.name = num, name
            return result
    raise ValueError(f"no check numbered {cid}")


def run_all(seed: int = DEFAULT_SEED, progress=None) -> ValidationReport:
    if not 0 <= seed < 2 ** 64 - 310:
        raise ValueError(f"the checks seed runs with seed to seed + 310, so the seed must "
                         f"be in [0, 2**64 - 311], got {seed}")
    report = ValidationReport(seed=seed)
    for cid, _, _ in CRITERIA:
        result = run_check(cid, seed)
        report.checks.append(result)
        if progress is not None:
            progress(result)
    return report
