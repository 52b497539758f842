"""Span recording around qtetra's public functions, installed from outside.

``install`` replaces every public function of the seven qtetra modules, in
every module namespace that bound it, by a wrapper that records a span when
the tracer is enabled. The validators of ``InvariantTensor`` and
``DensityMatrix`` and the solver call ``geometry.least_squares`` are wrapped
too. No qtetra source file changes.

A span is ``(name, start_ns, end_ns, parent, request, error)``: ``parent`` is
the index of the enclosing span in the same list (-1 for none), ``request``
the request id current when it started, and ``error`` the class name of an
exception that left the span, or None.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

MODULES = (
    "spin_algebra", "tetrahedron", "geometry", "amplitude", "named_states", "tomography", "cli",
)

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "request", "error")


class Tracer:
    """In-memory span store; spans are written out once, at the end."""

    def __init__(self):
        self.enabled = False
        self.spans: list = []
        self.stack: list[int] = []
        self.request = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request, error)

        return traced

    @contextmanager
    def request_span(self, request, kind: str):
        """Root span of one benchmark request; a no-op while disabled."""
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        self.request = request
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (f"request.{kind}", start, end, -1, request, None)
            self.request = None


def install(tracer: Tracer) -> None:
    """Wrap qtetra's public functions and validators; call once per process."""
    import qtetra

    modules = {short: importlib.import_module(f"qtetra.{short}") for short in MODULES}
    wrapped = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for module in (qtetra, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    for cls, name in (
        (modules["tetrahedron"].InvariantTensor, "tetrahedron.InvariantTensor"),
        (modules["tomography"].DensityMatrix, "tomography.DensityMatrix"),
    ):
        cls.__post_init__ = tracer.wrap(name, cls.__post_init__)
    geometry = modules["geometry"]
    geometry.least_squares = tracer.wrap("geometry.least_squares", geometry.least_squares)


def write_spans(path: str, spans) -> None:
    """JSON lines: a header naming SPAN_FIELDS, then one span per line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(SPAN_FIELDS) + "\n")
        for span in spans:
            handle.write(json.dumps(span) + "\n")
