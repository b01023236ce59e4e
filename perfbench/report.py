"""Provenance block and the strict JSON writer for benchmark reports."""
from __future__ import annotations

import dataclasses
import json
import os
import platform
from pathlib import Path

import numpy as np
import scipy

def _git_sha(root: Path) -> str | None:
    # read .git directly: a checkout without one must not report the SHA of
    # some enclosing repository
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(root: Path, thread_vars: tuple[str, ...]) -> dict:
    src = root / "src" / "photofpt"
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
        # information only, not a metric: a change that needs code is no regression
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def plain(obj):
    """JSON-ready copy: numpy scalars and arrays become Python values (check
    12's verdict is a numpy.bool_), dataclasses become dicts."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def write_json(path: Path, obj, indent: int | None = 2) -> None:
    """Write atomically; a NaN or infinity anywhere raises ValueError."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(plain(obj), fh, indent=indent, allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)
