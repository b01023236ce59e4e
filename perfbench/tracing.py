"""Span recording around photofpt's public functions.

The tracer replaces every public function of the traced modules with a
wrapper at its module attribute. Calls that go through a module global,
such as validation -> mc or sigma_const -> g_tau, are therefore caught;
the names re-exported by ``photofpt/__init__.py`` were bound at import and
are not. Spans are kept in memory and written out once the run ends.
"""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str          # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int | None     # benchmark operation the call belongs to
    args: tuple
    kwargs: dict
    result: object = None
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: wraps on entry, restores the originals on exit."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.op, args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def has_ancestor(self, index: int, layer: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].layer == layer:
                return True
            parent = self.spans[parent].parent
        return False

    def records(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "error": s.error} for s in self.spans]
