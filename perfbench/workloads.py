"""The benchmark's workloads, their correctness gates and the layer probe.

A workload turns a seeded generator into one pass: a fixed list of
operations, each a call into photofpt's public API plus a gate that checks
its output. Every input comes from the generator, so the seed fixes the
pass. Operations look photofpt functions up at call time, through the
module attribute, so that the tracer's wrappers see them.

Every pass is followed by a chunk of single-point `photofpt rate` queries
(the rate stage), and every run checks two quoted spot values. A traced
run adds the layer probe: a small call of every measured function, so that
each per-layer metric is measured on every workload.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from numpy.random import Generator, Philox

from photofpt import analytic, cli, field, mc, validation
from photofpt.params import AtomModel, SeriesControl, params_for_intensity

# the traced layers, in report order
LAYERS = (mc, analytic, field, validation, cli)

# wide enough that a correct program passes at any seed
Z_GATE = 5.0
# `photofpt validate` takes 321 s on a 2-core Xeon, too long for one run:
# its Monte Carlo path counts and stream horizons are divided by this factor,
# while dt, seeds and tolerances stay the program's own
VALIDATE_SCALE = 100
PROBE_SCALE = 300
EXPECTED_FAILING_CHECKS = frozenset({3, 9})  # fail by design, see README
MC_CHECKS = frozenset({1, 2, 12, 13})
PROBE_RATE_QUERIES = 10
MEAN_3D_DARK = 0.4497026  # 128/pi^4 F(0), quoted to 7 decimals


@dataclass(frozen=True)
class Op:
    """One timed call. gate(output, outputs so far by op name) returns a
    failure message, or None when the output is correct."""
    name: str
    run: Callable[[], Any]
    gate: Callable[[Any, dict], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Generator], list[Op]]
    first_calls: tuple[Callable[[], Any], ...]


def pass_rng(seed: int, *key: int) -> Generator:
    return np.random.default_rng([seed, *key])


def _seeds(rng: Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 32, size=n)]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _config(x: float, dimension: int, boundary: str, dt: float, n_paths: int,
            seed: int) -> mc.MCConfig:
    return mc.MCConfig(params=params_for_intensity(x), dt=dt, n_paths=n_paths,
                       seed=seed, dimension=dimension, boundary=boundary)


# ---------------------------------------------------------------------------
# Monte Carlo operations

def _reference_mean(config: mc.MCConfig) -> float:
    p = config.params
    if config.boundary == "interval":
        return analytic.mean_fpt_1d(p)
    if config.boundary == "cube":
        return analytic.mean_fpt_3d(p)
    return validation.radial_mean_exit_time(p.e_m, p.sigma)


def _rich(name: str, config: mc.MCConfig) -> Op:
    def gate(rich, done):
        est = rich.extrapolated
        if not (_finite(est.mean, est.std_err) and est.std_err > 0):
            return "non-finite extrapolated estimate"
        if rich.coarse.unreliable or rich.fine.unreliable:
            return "censoring above 0.1%"
        z = mc.zscore(_reference_mean(config), est)
        return None if abs(z) <= Z_GATE else f"|z| = {abs(z):.2f} > {Z_GATE}"
    return Op(name, lambda: mc.simulate_fpt_richardson(config), gate)


def _sphere_vs_cube(name: str, base: mc.MCConfig) -> Op:
    def gate(comp, done):
        if not comp.pathwise_sphere_le_cube:
            return "the sphere absorbed after the cube on some path"
        if not (_finite(comp.ratio, comp.ratio_err) and 0 < comp.ratio < 1
                and comp.ratio_err > 0):
            return f"ratio {comp.ratio} +- {comp.ratio_err} outside (0, 1)"
        return None
    return Op(name, lambda: mc.simulate_fpt_sphere_vs_cube(base.params, base), gate)


def _stream(name: str, paired: str, config: mc.MCConfig, events: int) -> Op:
    """Event stream on the config of the Richardson op named `paired`:
    interval i replays path i of that op's coarse leg, so the renewal rate
    must match the inverse of that leg's mean."""
    horizon = events * analytic.mean_fpt_1d(config.params)

    def gate(stream, done):
        gaps = stream.interarrivals()
        if gaps.size < 2:
            return f"only {gaps.size} events"
        se_rate = gaps.std(ddof=1) / (gaps.mean() ** 2 * math.sqrt(gaps.size))
        z = (stream.rate - 1.0 / done[paired].coarse.mean) / se_rate
        return None if abs(z) <= Z_GATE else f"renewal |z| = {abs(z):.2f} > {Z_GATE}"
    return Op(name, lambda: mc.simulate_event_stream(config, horizon), gate)


def _cli_mc(name: str, argv: list[str]) -> Op:
    def gate(out, done):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        z = json.loads(text)["z_extrapolated"]
        return None if math.isfinite(z) and abs(z) <= Z_GATE else f"z_extrapolated = {z}"
    return Op(name, lambda: _cli(argv), gate)


# ---------------------------------------------------------------------------
# the acceptance suite at reduced Monte Carlo size

class _ScaledMC:
    """Stands in for `photofpt.mc` inside `validation`: divides the path
    counts and stream horizons the checks ask for by `factor`."""

    def __init__(self, module, factor: int):
        self._module = module
        self._factor = factor

    def __getattr__(self, name):
        return getattr(self._module, name)

    def MCConfig(self, *, n_paths: int, **kwargs):
        return self._module.MCConfig(n_paths=max(100, round(n_paths / self._factor)), **kwargs)

    def simulate_event_stream(self, config, horizon: float):
        return self._module.simulate_event_stream(config, horizon / self._factor)


@contextlib.contextmanager
def _scaled_checks(factor: int):
    real = validation.mc
    validation.mc = _ScaledMC(real, factor)
    try:
        yield
    finally:
        validation.mc = real


def _z_within_gate(check) -> bool:
    # a Monte Carlo check may miss its 3-SE verdict by chance at reduced size;
    # it still passes the benchmark's gate when every z it reports is within 5
    zs = [float(z) for z in re.findall(r"z ?= ?([+-]?\d+\.\d+)", check.observed + check.detail)]
    return bool(zs) and "VIOLATED" not in check.observed and max(map(abs, zs)) <= Z_GATE


def _verdict_gate(report, done) -> str | None:
    if sorted(c.cid for c in report.checks) != list(range(1, 14)):
        return "report does not hold checks 1..13"
    bad = [c.cid for c in report.checks
           if bool(c.passed) == (c.cid in EXPECTED_FAILING_CHECKS)
           and not (c.cid in MC_CHECKS and _z_within_gate(c))]
    return f"unexpected verdicts on checks {bad}" if bad else None


def _run_all(name: str, seed: int, factor: int) -> Op:
    def run():
        with _scaled_checks(factor):
            return validation.run_all(seed)
    return Op(name, run, _verdict_gate)


# ---------------------------------------------------------------------------
# analytic, field and oracle operations

def _sweep(name: str, xs: np.ndarray) -> Op:
    def gate(curve, done):
        rows = np.array(curve.rows)
        if rows.shape != (len(xs), 6) or not np.isfinite(rows).all():
            return "missing or non-finite rows"
        i_s, r1, r3, _, d1, _ = rows.T
        if not ((np.diff(i_s) > 0).all() and (np.diff(r1) > 0).all() and (np.diff(r3) > 0).all()):
            return "rates not increasing with intensity"
        # towards x = 100 both rates approach i_s/e_m and the excess 0, so the
        # orders hold up to round-off
        if not ((r3 >= r1 * (1 - 1e-9)).all() and (d1 >= -1e-12).all()
                and (np.diff(d1) <= 1e-12).all()):
            return "cube slower than interval, or excess rising with intensity"
        return None
    return Op(name, lambda: cli.build_rate_curve(1.0, 1.0, 1.0, xs, SeriesControl()), gate)


def _f3_large(name: str, x: float) -> Op:
    def gate(value, done):
        err = abs(x * value * 128.0 / math.pi ** 4 - 1.0)
        return None if err < 1e-3 else f"x F(x) off its asymptote by {err:.2e}"
    return Op(name, lambda: analytic.f3_series(x, SeriesControl(kl_max=160)), gate)


def _g_table(name: str, tau_max: float) -> Op:
    taus = np.linspace(0.0, tau_max, 81)

    def gate(values, done):
        g = np.array(values)
        if not np.isfinite(g).all() or abs(g[0] - field.G0) > 1e-8:
            return f"g(0) = {g[0]!r}, expected 1/(18 pi)"
        return None if np.abs(g).max() <= field.G0 * (1 + 1e-9) else "|g| above g(0)"
    return Op(name, lambda: [field.g_tau(float(t)) for t in taus], gate)


def _sigma_gate(est, done) -> str | None:
    ok = _finite(est.sigma) and est.sigma > 0 and est.rel_disagreement < 1e-6
    return None if ok else f"sigma routes disagree by {est.rel_disagreement:.1e}"


def _sigma(name: str) -> Op:
    return Op(name, lambda: field.sigma_const(AtomModel()), _sigma_gate)


def _quadrature(name: str, x: float, dimension: int) -> Op:
    params = params_for_intensity(x)

    def gate(value, done):
        series = analytic.mean_fpt_1d(params) if dimension == 1 else analytic.mean_fpt_3d(params)
        rel = abs(value - series) / series
        return None if rel < 1e-3 else f"quadrature off the series by {rel:.1e}"
    return Op(name, lambda: validation.mean_fpt_quadrature(params, None, dimension), gate)


def _pde(name: str, x: float) -> Op:
    params = params_for_intensity(x)
    t = 0.5 * params.time_scale

    def gate(value, done):
        diff = abs(value - analytic.axis_survival_image(t, params.i_s, params))
        return None if diff < 1e-5 else f"PDE off the image sum by {diff:.1e}"
    return Op(name, lambda: validation.pde_survival_1d(t, params.i_s, params), gate)


def _rate(name: str, x: float) -> Op:
    def gate(out, done):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        r = json.loads(text)
        values = [r[k] for k in ("mean_fpt_1d", "mean_fpt_3d", "rate_1d", "rate_3d")]
        if not _finite(*values) or min(values) <= 0:
            return "non-finite or non-positive rate"
        if max(abs(r["rate_1d"] * r["mean_fpt_1d"] - 1),
               abs(r["rate_3d"] * r["mean_fpt_3d"] - 1)) > 1e-12:
            return "rate is not the inverse mean"
        return None
    return Op(name, lambda: _cli(["rate", "--is", repr(x)]), gate)


# ---------------------------------------------------------------------------
# workloads

def _validate(rng: Generator) -> list[Op]:
    return [_run_all("run_all", _seeds(rng, 1)[0], VALIDATE_SCALE)]


def _mc_long(rng: Generator) -> list[Op]:
    s = _seeds(rng, 7)
    return [
        _cli_mc("photofpt mc (default)", ["mc", "--seed", str(s[0])]),
        _rich("rich1d x=0 dt=1e-4", _config(0.0, 1, "interval", 1e-4, 300, s[1])),
        _rich("rich_cube x=0", _config(0.0, 3, "cube", 5e-4, 800, s[2])),
        _rich("rich_cube x=3", _config(3.0, 3, "cube", 5e-4, 800, s[3])),
        _rich("rich_sphere x=0", _config(0.0, 3, "sphere", 5e-4, 800, s[4])),
        _sphere_vs_cube("sphere_vs_cube x=0", _config(0.0, 3, "cube", 5e-4, 800, s[5])),
        _sphere_vs_cube("sphere_vs_cube x=2", _config(2.0, 3, "cube", 5e-4, 800, s[6])),
    ]


def _mc_short(rng: Generator) -> list[Op]:
    s = _seeds(rng, 3)
    x8 = _config(8.0, 1, "interval", 1e-3, 4000, s[0])
    return [
        _rich("rich1d x=8", x8),
        _rich("rich1d x=20", _config(20.0, 1, "interval", 1e-3, 4000, s[1])),
        _rich("rich_cube x=20", _config(20.0, 3, "cube", 5e-4, 3000, s[2])),
        _stream("stream x=8", "rich1d x=8", x8, 4000),
    ]


def _analytic_curves(rng: Generator) -> list[Op]:
    lo = 10.0 ** rng.uniform(-2.3, -1.7, size=2)
    hi = 10.0 ** rng.uniform(1.5, 2.0, size=2)
    x_quad = rng.uniform(0.0, 5.0)
    ops = [_sweep(f"sweep {i}", np.geomspace(lo[i], hi[i], 50)) for i in range(2)]
    ops += [_f3_large(f"f3_series kl=160 #{i}", float(x))
            for i, x in enumerate(rng.uniform(100.0, 500.0, size=4))]
    ops += [
        _g_table("g_tau table", float(rng.uniform(15.0, 25.0))),
        _sigma("sigma_const"),
        _quadrature("mean_fpt_quadrature 1D", x_quad, 1),
        _quadrature("mean_fpt_quadrature 3D", x_quad, 3),
        _pde("pde_survival_1d", float(rng.uniform(0.0, 3.0))),
    ]
    return ops


def rate_stage(rng: Generator, n: int) -> list[Op]:
    return [_rate(f"photofpt rate #{i}", float(x))
            for i, x in enumerate(10.0 ** rng.uniform(-2.0, 2.0, size=n))]


def spot_ops() -> list[Op]:
    def mean_gate(value, done):
        return None if abs(value - MEAN_3D_DARK) <= 5e-8 else f"mean_fpt_3d(x=0) = {value!r}"
    return [Op("spot mean_fpt_3d(x=0)",
               lambda: analytic.mean_fpt_3d(params_for_intensity(0.0)), mean_gate),
            _sigma("spot sigma_const")]


def probe_ops(rng: Generator) -> list[Op]:
    """One small call of every measured function (traced runs only)."""
    s = _seeds(rng, 6)
    x8 = _config(8.0, 1, "interval", 1e-3, 300, s[0])
    return [
        _rich("probe rich1d x=8", x8),
        _stream("probe stream x=8", "probe rich1d x=8", x8, 250),
        _rich("probe rich_cube x=0", _config(0.0, 3, "cube", 5e-4, 100, s[1])),
        _rich("probe rich_sphere x=0", _config(0.0, 3, "sphere", 5e-4, 100, s[2])),
        _sphere_vs_cube("probe sphere_vs_cube x=0", _config(0.0, 3, "cube", 5e-4, 100, s[3])),
        _run_all("probe run_all", s[4], PROBE_SCALE),
        _cli_mc("probe photofpt mc (default)", ["mc", "--seed", str(s[5])]),
        _sweep("probe sweep", np.geomspace(0.01, 100.0, 50)),
        *rate_stage(rng, PROBE_RATE_QUERIES),
    ]


def rng_floor(seed: int, n: int = 2000) -> dict[str, float]:
    """numpy's own cost of a Philox substream and of a normal draw, the
    floor under the Monte Carlo kernels."""
    start = time.perf_counter()
    for i in range(n):
        Generator(Philox(key=seed, counter=[0, 0, 0, i]))
    per_stream = (time.perf_counter() - start) / n
    gen = Generator(Philox(key=seed))
    start = time.perf_counter()
    for _ in range(n):
        gen.standard_normal(750)
    per_normal = (time.perf_counter() - start) / (750 * n)
    return {"us_per_substream": per_stream * 1e6, "ns_per_normal": per_normal * 1e9}


# ---------------------------------------------------------------------------
# first calls: what a fresh interpreter runs before its first result

def _first_mc():
    cube = _config(20.0, 3, "cube", 1e-3, 100, 1)
    mc.simulate_fpt_richardson(_config(20.0, 1, "interval", 1e-3, 100, 1))
    mc.simulate_fpt_richardson(cube)
    mc.simulate_fpt_sphere_vs_cube(cube.params, cube)


def _first_stream():
    config = _config(20.0, 1, "interval", 1e-3, 100, 1)
    mc.simulate_event_stream(config, 20 * analytic.mean_fpt_1d(config.params))


def _first_analytic():
    p = params_for_intensity(1.0)
    analytic.f3_series(1.0)
    analytic.axis_survival_image(0.5, 0.0, p)
    analytic.axis_survival_spectral(0.5, p)


def _first_field():
    field.g_tau(0.1)
    field.g_tau(1.0)


def _first_oracles():
    p = params_for_intensity(1.0)
    validation.radial_mean_exit_time(1.0, 1.0, nr=101)
    validation.pde_survival_1d(0.07, 1.0, p, nx=101)


def _first_rate():
    _cli(["rate", "--is", "1"])


WORKLOADS = {w.name: w for w in (
    Workload(
        "validate",
        "the acceptance suite, the one workload whose dt and path counts come "
        "from the program's own accuracy targets; MC path counts divided by 100 to fit a run",
        _validate,
        (_first_mc, _first_stream, _first_analytic, _first_field, _first_oracles,
         lambda: validation.run_check(6), _first_rate)),
    Workload(
        "mc-long-paths",
        "fixed MC configs of 600 to 20000 steps per path, so time goes to the "
        "per-step Euler kernel",
        _mc_long,
        (_first_mc, lambda: _cli(["mc", "--is", "20", "--paths", "100"]),
         _first_oracles, _first_rate)),
    Workload(
        "mc-short-paths",
        "fixed MC configs of 50 to 250 steps per path, so time goes to per-path "
        "set-up: substream creation and the first chunk",
        _mc_short,
        (_first_mc, _first_stream, _first_rate)),
    Workload(
        "analytic-curves",
        "no MC: sweeps, series, field quadrature and oracles on fresh seeded "
        "inputs each pass, so exact-input caching gains nothing",
        _analytic_curves,
        (_first_analytic, _first_field, _first_oracles,
         lambda: cli.build_rate_curve(1.0, 1.0, 1.0, [1.0], SeriesControl()), _first_rate)),
)}
