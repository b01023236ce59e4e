"""Benchmark for photofpt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all             # every workload in turn

Run from anywhere; photofpt is imported from src/ next to this directory and
nowhere else. The workloads and the reason for each are in workloads.py.

--trace 0 measures the end-to-end metrics: set-up time in fresh
interpreters, then passes of the workload, each followed by a chunk of
`photofpt rate` queries, until S seconds are spent, then the spot checks.
--trace 1 measures the per-layer metrics: one untraced and one traced pass
on the same inputs, whose outputs must be bit-identical, then the layer
probe, traced as well. It makes no repeated passes: its exact counts must
repeat for a seed.

Every metric is printed as `workload name value unit samples`; the last line
is one JSON object {correct, attempted, failed, metrics}. The full report
(and, traced, the spans) goes to perfbench/out/. Exit status: 0, 1 when a
correctness gate failed, 2 when photofpt's source is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the workloads are single-threaded; set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
RATE_MIN, RATE_BATCH, RATE_SHARE = 24, 8, 0.1  # rate queries after each pass
# per-pass timings that must not enter the identity comparison
VOLATILE = frozenset({"elapsed_s", "timestamp"})


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="photofpt benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser


def _setup_child(name: str) -> int:
    """Import photofpt and make the workload's first calls; print seconds."""
    start = time.perf_counter()
    import workloads
    for call in workloads.WORKLOADS[name].first_calls:
        call()
    print(time.perf_counter() - start)
    return 0


def _measure_setup(name: str) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--setup-child"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_ops(ops, tracer=None):
    """Time each op and gate its output; returns (times, outputs, failures)."""
    times, outputs, failures, done = [], [], [], {}
    for op in ops:
        if tracer is not None:
            tracer.op = (tracer.op or 0) + 1
        start = time.perf_counter()
        try:
            out = op.run()
            fail = None
        except Exception as exc:  # a raising call is a failed operation
            out, fail = None, f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if fail is None:
            try:
                fail = op.gate(out, done)
            except Exception as exc:
                fail = f"gate raised {type(exc).__name__}: {exc}"
        done[op.name] = out
        outputs.append(out)
        if fail is not None:
            failures.append(f"{op.name}: {fail}")
    return times, outputs, failures


def _canon(outputs) -> str:
    import report

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in VOLATILE}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    return json.dumps(strip(report.plain(outputs)), sort_keys=True)


def _untraced(wl, workloads, args):
    setup = _measure_setup(wl.name)
    for call in wl.first_calls:
        call()
    # rate queries follow every pass, taking about a tenth of its time, so
    # that a burst of load on the host lands on few of them
    walls, rate, attempted, failures = [], [], 0, []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        ops = wl.build(workloads.pass_rng(args.seed, 0, len(walls)))
        ops_times, _, fails = run_ops(ops)
        attempted += len(ops)
        failures += fails
        rng = workloads.pass_rng(args.seed, 1, len(walls))
        walls.append(sum(ops_times))
        first = len(rate)
        while len(rate) - first < RATE_MIN or sum(rate[first:]) < RATE_SHARE * walls[-1]:
            rate_ops = workloads.rate_stage(rng, RATE_BATCH)
            rate_times, _, fails = run_ops(rate_ops)
            rate += rate_times
            attempted += len(rate_ops)
            failures += fails
    spot = workloads.spot_ops()
    failures += run_ops(spot)[2]
    attempted += len(spot)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "rate_p90_ms": (statistics.quantiles(rate, n=10)[8] * 1e3, "ms", len(rate)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    # on a shared host whose speed switches between states the median query
    # can sit on either mode, so it is reported, not gated
    detail = {"setup_s": setup, "pass_wall_s": walls,
              "rate_p50_ms": statistics.median(rate) * 1e3, "rate_samples": len(rate)}
    return metrics, attempted, failures, detail, None


def _traced(wl, workloads, args):
    import layers
    from tracing import Tracer

    for call in wl.first_calls:
        call()
    plain_times, plain_out, failures = run_ops(wl.build(workloads.pass_rng(args.seed, 0, 0)))
    ops = wl.build(workloads.pass_rng(args.seed, 0, 0))
    probe = workloads.probe_ops(workloads.pass_rng(args.seed, 2)) + workloads.spot_ops()
    with Tracer(workloads.LAYERS) as tracer:
        traced_times, traced_out, fails = run_ops(ops, tracer)
        failures += fails + run_ops(probe, tracer)[2]
    if _canon(plain_out) != _canon(traced_out):
        failures.append("trace: traced and untraced outputs differ")
    floor = workloads.rng_floor(args.seed)
    overhead = sum(traced_times) - sum(plain_times)
    metrics = {name: (value, unit, 1) for name, (value, unit)
               in layers.layer_metrics(tracer, floor, overhead).items()}
    attempted = 2 * len(ops) + len(probe) + 1
    return metrics, attempted, failures, {"rng_floor": floor}, tracer


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "photofpt" / "__init__.py").is_file():
        print(f"error: photofpt source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return _setup_child(args.workload)

    import photofpt
    if not Path(photofpt.__file__).resolve().is_relative_to(SRC):
        print(f"error: photofpt imported from {photofpt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import report
    import workloads

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], timeout=600).returncode
                 for name in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    measure = _traced if args.trace else _untraced
    metrics, attempted, failures, detail, tracer = measure(wl, workloads, args)

    for name, (value, unit, n) in metrics.items():
        print(f"{wl.name:16s} {name:40s} {value:14.6g} {unit:6s} n={n}")
    print(f"{wl.name:16s} {'failed_frac':40s} {len(failures) / attempted:14.6g} "
          f"{'ratio':6s} n={attempted}")
    for failure in failures:
        print(f"{wl.name:16s} FAILED {failure}", file=sys.stderr)

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report.write_json(OUT / f"{stem}.json", {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": report.provenance(ROOT, THREAD_VARS),
        "attempted": attempted, "failures": failures, "detail": detail,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    })
    if tracer is not None:
        report.write_json(OUT / f"{stem}-spans.json", tracer.records(), indent=None)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(report.plain(result), allow_nan=False))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
