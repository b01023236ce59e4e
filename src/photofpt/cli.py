"""Command-line front end: rates, sweeps, simulations, field tables and the
acceptance suite. Curves go out as CSV (17 significant digits, '.' decimal
separator), single results and reports as JSON; every command that draws
random numbers honors --seed and falls back to the fixed documented default.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, analytic, field, mc, validation
from .params import (
    ABS_TOL,
    REL_TOL,
    AtomModel,
    DEFAULT_SEED,
    DetectorParams,
    QuadratureError,
    SeriesControl,
    TruncationError,
    dimensionless_intensity,
    params_for_intensity,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_QUALITY = 3


@dataclass(frozen=True)
class RateCurve:
    """Sweep rows (i_s, rate_1d, rate_3d, rate_quantum, dark_fraction_1d,
    dark_fraction_3d), sorted by i_s, plus run metadata."""

    rows: list[tuple[float, float, float, float, float, float]]
    metadata: dict

    HEADER = ("i_s", "rate_1d", "rate_3d", "rate_quantum",
              "dark_fraction_1d", "dark_fraction_3d")


def _in_place(path) -> bool:
    # an existing FIFO or device, which a rename would replace
    return os.path.exists(path) and not os.path.isfile(path)


def _write_file(path, text: str) -> None:
    """Write through a temporary file and a rename onto the path with its
    symlinks resolved, so that a failed run leaves no partial file and a
    symlink stays a link to the new file. A FIFO or device is written in
    place."""
    if _in_place(path):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _emit(text: str, path=None) -> None:
    """Write text to stdout, or to the file at path."""
    if path is None:
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    # NaN and infinity are not JSON; refusing them raises ValueError (exit 2)
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# the model flags; each command declares only those it reads
_PARAM_FLAGS = {
    "--em": dict(type=float, default=1.0, help="absorption threshold e_m (default 1)"),
    "--sigma": dict(type=float, default=1.0, help="noise amplitude (default 1)"),
    "--is": dict(dest="i_s", type=float, default=0.0,
                 help="signal intensity i_s (default 0; equals x when em=sigma=1)"),
    "--cross-section": dict(type=float, default=1.0, help="area factor on rates (default 1)"),
}


def _add_param_flags(sub, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, **_PARAM_FLAGS[flag])


def cmd_rate(args) -> int:
    _emit(_json_text(analytic.rate_point(DetectorParams(
        e_m=args.em, sigma=args.sigma, i_s=args.i_s, cross_section=args.cross_section))))
    return EXIT_OK


def build_rate_curve(e_m: float, sigma: float, cross_section: float,
                     xs, ctrl: SeriesControl) -> RateCurve:
    """One row per grid intensity x, its columns those of `photofpt rate`
    at that point; undefined dark excesses become nan. rate_quantum is the
    linear detector's cross_section*i_s/e_m, the strong-signal limit of
    both models."""
    # rejects a bad e_m before anything divides by it
    DetectorParams(e_m=e_m, sigma=sigma, cross_section=cross_section)
    # the cross section multiplies last: cross_section*i_s can overflow
    # where the rate itself is finite
    slope = 1.0 / e_m
    grid, failure = [], None
    try:
        for x in sorted(float(v) for v in xs):
            grid.append(params_for_intensity(x, e_m, sigma, cross_section))
    except ValueError as exc:
        failure = exc
    # F at every point in one call, at each point's own x (the round trip
    # through i_s can move x by an ulp); the first point to fail, in
    # ascending x, raises what its lone record would
    rows = []
    for params, point in zip(grid, analytic._rate_points(grid, ctrl)):
        rows.append((
            params.i_s,
            point["rate_1d"],
            point["rate_3d"],
            cross_section * (slope * params.i_s),
            *(math.nan if point[k] is None else point[k]
              for k in ("dark_fraction_1d", "dark_fraction_3d")),
        ))
    if failure is not None:
        raise failure
    metadata = {
        "e_m": e_m, "sigma": sigma, "cross_section": cross_section,
        "n_images": analytic.N_IMAGES, "kl_max": ctrl.kl_max,
        "abs_tol": ABS_TOL, "rel_tol": REL_TOL,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    return RateCurve(rows=rows, metadata=metadata)


def _grid(args) -> np.ndarray:
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    if not (math.isfinite(args.x_min) and math.isfinite(args.x_max)):
        raise ValueError("--x-min and --x-max must be finite")
    if args.x_max < args.x_min:
        raise ValueError("--x-max must be >= --x-min")
    if args.points == 1:
        return np.array([args.x_min])
    if args.grid == "log":
        if args.x_min <= 0:
            raise ValueError("log grid needs --x-min > 0")
        return np.geomspace(args.x_min, args.x_max, args.points)
    return np.linspace(args.x_min, args.x_max, args.points)


def cmd_sweep(args) -> int:
    curve = build_rate_curve(args.em, args.sigma, args.cross_section,
                             _grid(args), SeriesControl())
    if args.format == "csv":
        # a FIFO or device gets no sidecar: none can be written beside it
        sidecar_beside = args.out is not None and not _in_place(args.out)
        _emit(_csv_text(RateCurve.HEADER, curve.rows), args.out)
        if sidecar_beside:
            sidecar = {"columns": list(RateCurve.HEADER), **curve.metadata}
            _write_file(args.out + ".meta.json", _json_text(sidecar))
    else:
        payload = {"columns": list(RateCurve.HEADER),
                   "rows": [[None if isinstance(v, float) and math.isnan(v) else v
                             for v in row] for row in curve.rows],
                   "metadata": curve.metadata}
        _emit(_json_text(payload), args.out)
    return EXIT_OK


def _estimate_payload(est: mc.FPTEstimate) -> dict:
    return {
        "mean": est.mean, "std_err": est.std_err,
        "n_absorbed": est.n_absorbed, "n_censored": est.n_censored,
        "censored_fraction": est.censored_fraction, "dt_used": est.dt_used,
    }


def cmd_mc(args) -> int:
    # mc reports means, not rates, so it takes no cross section
    params = DetectorParams(e_m=args.em, sigma=args.sigma, i_s=args.i_s)
    config = mc.MCConfig(params=params, dt=args.dt, n_paths=args.paths,
                         seed=args.seed, boundary=args.boundary)
    rich = mc.simulate_fpt_richardson(config)
    ref = validation.reference_mean(params, config.boundary)
    payload = {
        "boundary": config.boundary, "dimension": config.dimension,
        "x": dimensionless_intensity(params),
        "coarse": _estimate_payload(rich.coarse),
        "fine": _estimate_payload(rich.fine),
        "extrapolated": _estimate_payload(rich.extrapolated),
        "analytic_mean": ref,
        "z_extrapolated": None if ref is None else mc.zscore(ref, rich.extrapolated),
    }
    _emit(_json_text(payload))
    if rich.coarse.unreliable or rich.fine.unreliable:
        print("censoring above 0.1%: estimates unreliable", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


def cmd_field(args) -> int:
    taus = _grid(args)
    rows = [(t, field.g_tau(t), field.g_tau_small(t),
             field.g_tau_large(t) if t > 0 else math.nan) for t in taus]
    table = _csv_text(("tau", "g", "g_small", "g_large"), rows)
    est = field.sigma_const(AtomModel())
    report = {
        "sigma_natural_time_domain": est.sigma_time,
        "sigma_natural_frequency_domain": est.sigma_freq,
        "rel_disagreement": est.rel_disagreement,
        "consistent_1e-6": est.consistent,
        "unit": field.SIGMA_UNIT,
        "reference_figures": {
            "quoted constant": field.REPORTED_SIGMA_CONSTANT,
            "quoted order of magnitude": field.REPORTED_SIGMA_ORDER,
        },
        "note": est.note,
    }
    # nothing goes out until both parts are computed; keep stdout parseable
    # when the table goes there too
    text = _json_text(report)
    _emit(table, args.out)
    (sys.stdout if args.out is not None else sys.stderr).write(text)
    return EXIT_OK


def _check_writable(path) -> None:
    """Fail before a long run, not after it, when _write_file could not
    write path."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path!r}: it is a directory")
    in_place = _in_place(path)
    where = path if in_place else os.path.dirname(os.path.realpath(path))
    if not ((in_place or os.path.isdir(where)) and os.access(where, os.W_OK)):
        raise ValueError(f"cannot write {path!r}: {where!r} is not writable")


def cmd_validate(args) -> int:
    def progress(result):
        print(result.line(), flush=True)

    if args.out is not None:
        _check_writable(args.out)
    report = validation.run_all(seed=args.seed, progress=progress)
    print(report.summary())
    if args.out is not None:
        _write_file(args.out, _json_text(report.to_dict()))
    return EXIT_OK if report.passed else EXIT_VALIDATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. It holds no
    function: main looks up cmd_<command> at call time."""
    parser = argparse.ArgumentParser(
        prog="photofpt",
        description="Threshold photodetector model: analytic rates, first-passage "
                    "Monte Carlo, vacuum-field correlations and the acceptance suite.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="print rates and mean FPTs for one parameter point")
    _add_param_flags(p_rate, *_PARAM_FLAGS)

    p_sweep = sub.add_parser("sweep", help="rate curve over an intensity grid")
    _add_param_flags(p_sweep, "--em", "--sigma", "--cross-section")
    p_sweep.add_argument("--x-min", type=float, default=0.01)
    p_sweep.add_argument("--x-max", type=float, default=100.0)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--grid", choices=("log", "lin"), default="log")
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_mc = sub.add_parser("mc", help="Richardson-extrapolated first-passage simulation")
    _add_param_flags(p_mc, "--em", "--sigma", "--is")
    p_mc.add_argument("--boundary", choices=tuple(mc.BOUNDARIES), default="interval",
                      help="interval (1D, the default), cube or sphere (3D)")
    p_mc.add_argument("--dt", type=float, default=1e-3)
    p_mc.add_argument("--paths", type=int, default=10_000)
    p_mc.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_field = sub.add_parser("field", help="correlation table and noise-amplitude report")
    p_field.add_argument("--x-min", type=float, default=0.0, help="first lag tau")
    p_field.add_argument("--x-max", type=float, default=20.0, help="last lag tau")
    p_field.add_argument("--points", type=int, default=81)
    p_field.add_argument("--grid", choices=("log", "lin"), default="lin")
    p_field.add_argument("--out", default=None, help="CSV path (default stdout; the "
                         "noise report then goes to stderr)")

    p_val = sub.add_parser("validate", help="run the full acceptance suite")
    p_val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_val.add_argument("--out", default=None, help="also write the report as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError, MemoryError) as exc:
        return _fail(exc, EXIT_USAGE)
    except (TruncationError, QuadratureError) as exc:
        return _fail(exc, EXIT_QUALITY)


def _fail(exc: Exception, code: int) -> int:
    # one line, whatever the message, for callers that read stderr line by
    # line; a message raised below the package (numpy, the OS) may span several
    print("error: " + " ".join(str(exc).split()), file=sys.stderr)
    return code


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
