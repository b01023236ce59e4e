"""End-to-end acceptance checks, shared by the test suite and the CLI.

Each numbered check evaluates one acceptance criterion at its stated
tolerance and reports expected value, observed value and verdict. Checks
are honest: where a quoted reference figure is not reproduced by the
mathematics, the check fails and says what was found instead.

The module also houses the independent oracles used by those checks: a
central-difference solver for the 1D absorbing-boundary density from a point
start (solved exactly in time in the sine eigenbasis of its matrix, at a
cost that does not grow with the target time, and valid while |drift| dx <
sigma^2), a radial finite-difference solver for the driftless sphere exit
time (its tridiagonal system solved in closed form), and direct quadrature
of survival curves for the mean/survival identity by the tanh-sinh rule of
params, the rule behind field's two integrals too. All three run on numpy
alone; the quadrature's image-sum survival loads scipy.special on its first
call, and scipy.integrate loads nowhere.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import analytic, field, mc
from .params import (
    AtomModel,
    DEFAULT_SEED,
    DetectorParams,
    SeriesControl,
    _tanh_sinh,
    params_for_intensity,
    tolerance_for,
)


# ---------------------------------------------------------------------------
# independent oracles

PDE_NX = 4001  # grid points of pde_survival_1d, ends included
# exp of a symmetrising exponent past this overflows
_LOG_SCALE_MAX = math.log(np.finfo(float).max)


def _dst1(v: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I of v, sqrt(2/(m+1)) sum_n v_n sin(pi (k+1)(n+1)/(m+1)),
    from the real FFT of the odd extension [0, v, 0, -v reversed]: its
    imaginary parts 1..m are -1/2 the unnormalised transform."""
    m = v.size
    ext = np.zeros(2 * (m + 1))
    ext[1:m + 1] = v
    ext[m + 2:] = -v[::-1]
    return np.fft.rfft(ext).imag[1:m + 1] * (-1.0 / math.sqrt(2 * (m + 1)))


def pde_survival_1d(t_target: float, drift: float, params: DetectorParams,
                    nx: int = PDE_NX) -> float:
    """Survival at t_target of the central-difference discretisation of the
    density equation df/dt = (sigma^2/2) f'' - drift f' with absorbing ends
    +-e_m, started from a point mass on the centre node and solved exactly
    in time.

    On the nx - 2 interior nodes the density obeys df/dt = -M f with
    M = tridiag(-(al+be), 2 al, -(al-be)), al = sigma^2/(2 dx^2),
    be = drift/(2 dx), and the survival is 1^T exp(-M t) e_c. D = diag(rho^j)
    with rho = sqrt((al+be)/(al-be)), scaled to 1 on the centre node, makes
    D^-1 M D symmetric Toeplitz, which the orthonormal DST-I S diagonalises
    with eigenvalues lam_k, so the survival is
    sum_k (S D 1)_k S_kc exp(-lam_k t): one transform (_dst1, a numpy real
    FFT), whatever t_target is, and no scipy.

    nx must be odd and at least 3, so that 0 is a node, and t_target finite
    and positive. rho is real only while |drift| dx < sigma^2, and the sum of
    rho^j over the grid must stay inside the float range; at large drift and
    small t the terms cancel, and where their rounding, eps sum |terms|,
    exceeds tolerance_for(survival) the value cannot be trusted. A
    ValueError is raised in each of these cases. For |drift| e_m/sigma^2 <= 3
    at t_target = 0.5 e_m^2/sigma^2 it agrees with the image sum to 1e-7.
    """
    if not (math.isfinite(t_target) and t_target > 0.0):
        raise ValueError(f"t_target must be finite and positive, got {t_target}")
    if not math.isfinite(drift):
        raise ValueError(f"drift must be finite, got {drift}")
    if nx < 3 or nx % 2 == 0:
        raise ValueError(f"nx must be odd and at least 3, so that 0 is a node, got {nx}")
    dx = 2.0 * params.e_m / (nx - 1)
    al = params.sigma ** 2 / (2.0 * dx * dx)
    be = drift / (2.0 * dx)
    if abs(be) >= al:
        raise ValueError(f"|drift| dx = {abs(drift) * dx:g} must be below sigma^2 = "
                         f"{params.sigma ** 2:g} for a real symmetrisation; raise nx")
    m = nx - 2
    j = np.arange(1, m + 1)
    # log rho^j relative to the centre node, so the scale spans exp(+-max); the
    # transform sums m of them
    log_scale = (j - 0.5 * (m + 1)) * math.atanh(be / al)
    if abs(log_scale[0]) + math.log(2 * m) > _LOG_SCALE_MAX:
        raise ValueError(f"|drift| = {abs(drift):g} makes rho^j span "
                         f"exp(+-{abs(log_scale[0]):.4g}), past the float range")
    # eigenvalues 2 al - 2 s cos(k pi/(m+1)), k = 1..m, with al - s written
    # as be^2/(al + s) so that nothing cancels at small k
    s = math.sqrt((al - be) * (al + be))
    lam = 2.0 * be * be / (al + s) + 4.0 * s * np.sin(j * (0.5 * math.pi / (m + 1))) ** 2
    # S_kc = sqrt(2/(m+1)) sin(k pi/2): 0 for even k, alternating signs for odd k
    column = np.where(j % 2, 1.0 - 2.0 * (j // 2 % 2), 0.0) * math.sqrt(2.0 / (m + 1))
    terms = _dst1(np.exp(log_scale)) * column * np.exp(-lam * t_target)
    survival = float(terms.sum())
    rounding = np.finfo(float).eps * float(np.abs(terms).sum())
    if not rounding <= tolerance_for(survival):
        raise ValueError(f"at drift = {drift:g} and t = {t_target:g} the terms cancel to "
                         f"{survival:.3g} with rounding {rounding:.2g}, past tolerance")
    return min(1.0, max(0.0, survival))


def radial_mean_exit_time(e_m: float, sigma: float, nr: int = 4001) -> float:
    """Driftless mean exit time from the centered sphere of radius e_m by a
    finite-difference solve of (sigma^2/2)(u'' + 2u'/r) = -1, u(e_m) = 0,
    u'(0) = 0, on nr grid points r_j = j dr, dr = e_m/m, m = nr - 1. Returns
    u(0).

    The tridiagonal system is solved in closed form. With D = sigma^2/2,
    rows j = 1..m-1 are (D/dr^2)(u_{j-1} - 2u_j + u_{j+1})
    + (D/(j dr^2))(u_{j+1} - u_{j-1}) = -1; in w_j = j u_j they become the
    second difference w_{j-1} - 2w_j + w_{j+1} = -j dr^2/D, with w_0 = 0 and
    w_m = 0 from the absorbing end u_m = 0. Its solution is
    w_j = j (m^2 - j^2) dr^2/(6D), so u_1 = (m^2 - 1) dr^2/(6D). Row 0, the
    Laplacian's limit 3u''(0) with a symmetric ghost point, gives
    u_1 - u_0 = -dr^2/(6D), hence u_0 = (m dr)^2/(6D). The scheme is exact
    on the quadratic solution u = (e_m^2 - r^2)/(3 sigma^2), so at every nr
    this is e_m^2/(3 sigma^2) up to the rounding of m dr. nr must be at
    least 3, and e_m and sigma finite and positive; a ValueError is raised
    otherwise.
    """
    if nr < 3:
        raise ValueError(f"nr must be at least 3, got {nr}")
    for name, value in (("e_m", e_m), ("sigma", sigma)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    diff = 0.5 * sigma * sigma
    m = nr - 1
    dr = e_m / m
    return (m * dr) ** 2 / (6.0 * diff)


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
    """Mean first-passage time as the integral of the survival curve,
    <t> = int_0^inf S(t) dt, with S the image-sum survival of the interval
    (dimension 1) or of the cube (dimension 3).

    The curve is cut at hi, which starts at min(e_m^2/sigma^2, e_m/i_s) and
    doubles while S(hi) > 1e-13, and [0, hi] is integrated by the tanh-sinh
    rule of params._tanh_sinh, each level one array call of the survival; it
    raises QuadratureError if its levels have not agreed after _TS_LEVELS
    halvings.
    A strong drift's survival falls at about e_m/i_s, so a bracket from
    e_m^2/sigma^2 would leave it to a sliver the rule cannot resolve
    (from x = 1e5).
    """
    if dimension == 1:
        def surv(t):
            return analytic.axis_survival_image(t, params.i_s, params, ctrl)
    elif dimension == 3:
        def surv(t):
            return analytic.survival_3d(t, params, ctrl)
    else:
        raise ValueError(f"dimension must be 1 or 3, got {dimension}")
    hi = params.time_scale
    if params.i_s:
        hi = min(hi, params.e_m / params.i_s)
    while surv(hi) > 1e-13:
        hi *= 2.0
    return _tanh_sinh(surv, hi)


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
    gap = float(np.max(np.abs(analytic.axis_survival_image(ts, 0.0, params)
                              - analytic.axis_survival_spectral(ts, params))))

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
        pde = pde_survival_1d(t, params.i_s, params, nx=PDE_NX)
        img = analytic.axis_survival_image(t, params.i_s, params)
        diffs.append((x, abs(pde - img)))
    worst = max(d for _, d in diffs)
    return CheckResult(
        expected="|pde - image| < 1e-5 at x in {0, 2}, t = 0.5 e_m^2/sigma^2",
        observed=f"max |diff| = {worst:.2e}",
        tolerance="1e-5", passed=worst < 1e-5,
        source="central-difference oracle, exact in time",
        detail=", ".join(f"x={x:g}: {d:.2e}" for x, d in diffs)
               + f"; central differences on {PDE_NX} grid points from a point mass at 0, "
               "solved exactly in time in the sine eigenbasis"
               "; fixes the tanh(i_s e_m/sigma^2) argument convention")


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
