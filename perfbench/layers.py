"""Per-layer metrics, derived from the spans of one traced run.

Monte Carlo work is counted from the returned estimates: a path absorbed
at time t took t/dt steps and a censored path took the full step cap.
The stream's horizon/dt steps cover every interval but the overshoot of
the one that crosses the horizon.
"""
from __future__ import annotations

import math
from collections import defaultdict

from tracing import Span, Tracer

KINDS = ("rich1d", "rich_cube", "rich_sphere", "sphere_vs_cube", "stream")
# normal draws per path-step
NORMALS = {"rich1d": 1, "rich_cube": 3, "rich_sphere": 3, "sphere_vs_cube": 3, "stream": 1}
CHECK_IDS = range(1, 14)


def _arg(span: Span, index: int, name: str):
    return span.args[index] if len(span.args) > index else span.kwargs[name]


def _leg_steps(est, dt: float, config) -> float:
    return est.mean * est.n_absorbed / dt + est.n_censored * config.steps_cap(dt)


def mc_work(span: Span):
    """(kind, path-steps, paths, absorbed paths, relative SE) of one MC call,
    or None for a call that is not one of the measured kinds."""
    res = span.result
    if span.name == "mc.simulate_fpt_richardson":
        config = _arg(span, 0, "config")
        kind = {"interval": "rich1d", "cube": "rich_cube", "sphere": "rich_sphere"}[config.boundary]
        legs = ((res.coarse, config.dt), (res.fine, config.dt / 2.0))
        steps = sum(_leg_steps(e, dt, config) for e, dt in legs)
        paths = sum(e.n_paths for e, _ in legs)
        absorbed = sum(e.n_absorbed for e, _ in legs)
        rse = res.extrapolated.std_err / res.extrapolated.mean
    elif span.name == "mc.simulate_fpt_sphere_vs_cube":
        config = _arg(span, 1, "base")
        kind = "sphere_vs_cube"
        steps = _leg_steps(res.cube, config.dt, config)
        paths, absorbed = res.cube.n_paths, res.cube.n_absorbed
        rse = res.ratio_err / res.ratio
    elif span.name == "mc.simulate_event_stream":
        config = _arg(span, 0, "config")
        kind = "stream"
        steps = _arg(span, 1, "horizon") / config.dt
        paths, absorbed = res.count + 1, res.count
        gaps = res.interarrivals()
        rse = gaps.std(ddof=1) / (gaps.mean() * math.sqrt(gaps.size))
    else:
        return None
    return kind, round(steps), paths, absorbed, rse


def _mean(values: list[float], what: str) -> float:
    if not values:
        raise RuntimeError(f"the traced run made no call of {what}")
    return sum(values) / len(values)


def _raised_here(tracer: Tracer, error: str) -> list[Span]:
    # an exception marks every span it passes through; count where it started
    passed_up = {s.parent for s in tracer.spans if s.error == error}
    return [s for i, s in enumerate(tracer.spans) if s.error == error and i not in passed_up]


def layer_metrics(tracer: Tracer, floor: dict[str, float], overhead_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    spans = tracer.spans
    own = tracer.self_times()
    busy = defaultdict(float)
    for s, t in zip(spans, own):
        busy[s.layer] += t
    by_name = defaultdict(list)
    for s in spans:
        if s.error is None:
            by_name[s.name].append(s)

    out = {}
    # -- mc
    per_kind = {k: [0.0, 0, 0] for k in KINDS}  # seconds, steps, paths
    total_steps = total_paths = total_absorbed = 0
    to_1pct = 0.0
    for i, s in enumerate(spans):
        work = mc_work(s) if s.layer == "mc" and s.error is None else None
        if work is None:
            continue
        kind, steps, paths, absorbed, rse = work
        acc = per_kind[kind]
        acc[0] += s.duration
        acc[1] += steps
        acc[2] += paths
        total_steps += steps
        total_paths += paths
        total_absorbed += absorbed
        # MC inside a validation check runs at the check's own size; the
        # accuracy-normalised time covers the benchmark's fixed configs only
        if not tracer.has_ancestor(i, "validation"):
            to_1pct += s.duration * (rse / 0.01) ** 2
    for kind, (secs, steps, paths) in per_kind.items():
        if not steps:
            raise RuntimeError(f"the traced run made no {kind} call")
        ns_step = secs / steps * 1e9
        out[f"mc.{kind}.ns_per_step"] = (ns_step, "ns")
        out[f"mc.{kind}.us_per_path"] = (secs / paths * 1e6, "us")
        out[f"mc.{kind}.floor_ratio"] = (ns_step / (NORMALS[kind] * floor["ns_per_normal"]), "ratio")
    out["mc.path_steps"] = (total_steps, "count")
    out["mc.paths"] = (total_paths, "count")
    out["mc.absorbed_frac"] = (total_absorbed / total_paths, "ratio")
    out["mc.busy_s"] = (busy["mc"], "s")
    out["mc.time_to_1pct_rse_s"] = (to_1pct, "s")
    out["mc.rng_floor.ns_per_normal"] = (floor["ns_per_normal"], "ns")
    out["mc.rng_floor.us_per_substream"] = (floor["us_per_substream"], "us")

    # -- analytic
    f3 = defaultdict(list)
    for s in by_name["analytic.f3_series"]:
        ctrl = s.args[1] if len(s.args) > 1 else s.kwargs.get("ctrl")
        f3[ctrl.kl_max if ctrl is not None else 60].append(s.duration)
    for kl in (60, 160):
        out[f"analytic.f3_series.kl{kl}_us"] = (_mean(f3[kl], f"f3_series at kl_max={kl}") * 1e6, "us")
    for fn in ("axis_survival_image", "axis_survival_spectral"):
        out[f"analytic.{fn}_us"] = (_mean([s.duration for s in by_name[f"analytic.{fn}"]], fn) * 1e6, "us")
    out["analytic.busy_s"] = (busy["analytic"], "s")
    out["analytic.truncation_errors"] = (len(_raised_here(tracer, "TruncationError")), "count")

    # -- field
    lags = defaultdict(list)
    for s in by_name["field.g_tau"]:
        lags["small" if _arg(s, 0, "tau") < 0.5 else "large"].append(s.duration)
    for lag in ("small", "large"):
        out[f"field.g_tau.{lag}_lag_us"] = (_mean(lags[lag], f"g_tau at {lag} lag") * 1e6, "us")
    out["field.sigma_const_ms"] = (_mean([s.duration for s in by_name["field.sigma_const"]], "sigma_const") * 1e3, "ms")
    out["field.busy_s"] = (busy["field"], "s")
    out["field.quadrature_errors"] = (len(_raised_here(tracer, "QuadratureError")), "count")

    # -- validation
    quad = defaultdict(list)
    for s in by_name["validation.mean_fpt_quadrature"]:
        quad[_arg(s, 2, "dimension")].append(s.duration)
    for dim in (1, 3):
        out[f"validation.mean_fpt_quadrature_{dim}d_ms"] = (_mean(quad[dim], f"{dim}D quadrature") * 1e3, "ms")
    for fn in ("pde_survival_1d", "radial_mean_exit_time"):
        out[f"validation.{fn}_ms"] = (_mean([s.duration for s in by_name[f"validation.{fn}"]], fn) * 1e3, "ms")
    checks = defaultdict(float)
    for s in by_name["validation.run_check"]:
        checks[s.result.cid] += s.result.elapsed_s
    for cid in CHECK_IDS:
        if cid not in checks:
            raise RuntimeError(f"the traced run made no check {cid}")
        out[f"validation.check_{cid:02d}_s"] = (checks[cid], "s")
    out["validation.busy_s"] = (busy["validation"], "s")

    # -- cli
    curves = by_name["cli.build_rate_curve"]
    points = sum(len(_arg(s, 3, "xs")) for s in curves)
    out["cli.build_rate_curve.ms_per_point"] = (sum(s.duration for s in curves) / points * 1e3, "ms")
    mains = by_name["cli.main"]
    default_mc = [s.duration for s in mains if s.args[0][0] == "mc" and s.args[0][1] == "--seed"
                  and len(s.args[0]) == 3]
    out["cli.mc_default_s"] = (_mean(default_mc, "the default photofpt mc"), "s")
    rate = [s.duration for s in mains if s.args[0][0] == "rate"]
    out["cli.rate_query_ms"] = (_mean(rate, "photofpt rate") * 1e3, "ms")
    out["cli.busy_s"] = (busy["cli"], "s")

    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.spans"] = (len(spans), "count")
    return out
