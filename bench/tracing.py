"""Layer spans recorded from outside the package.

A layer is one ``fusedstar`` module.  ``wrapped`` replaces each public
function of the seven modules (see ``traced_functions``), at every module
attribute that binds it (``fusedstar.cli.optimal_weights`` as well as
``fusedstar.optimizer.optimal_weights``), with a wrapper that reports the
call to a recorder, and restores the originals on exit.  Nothing in the
package itself changes.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Iterator

LAYERS = ("cli", "optimizer", "spectral", "certificate", "topology", "weighting", "simulation")
PACKAGE = "fusedstar"
# Called once per node or edge: a span each would cost more than the call
# itself and swamp the trace, so their time stays in the caller's self time.
PER_ELEMENT = frozenset({"node_index", "edge_orbit"})


@dataclass
class Span:
    """One call of a public function: name, interval, cause and request."""

    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    error: str | None = None
    info: dict[str, Any] = field(default_factory=dict)


def _worst_residual(residuals) -> float:
    values = residuals.as_dict()
    values["feasibility_min_eig"] = max(0.0, -values["feasibility_min_eig"])
    return max(abs(v) for v in values.values())


def _steps(args: tuple, kwargs: dict) -> int:
    return kwargs["steps"] if "steps" in kwargs else args[3]


# What each span records about its call, read from arguments and result.
OBSERVERS: dict[str, Callable[[tuple, dict, Any], dict[str, Any]]] = {
    "optimizer.solve_theta_roots": lambda a, k, r: {"roots": int(r.roots.size)},
    "topology.build_topology": lambda a, k, r: {"nodes": r.params.n_nodes},
    "certificate.verify_certificate": lambda a, k, r: {
        "passes": bool(r.passes()),
        "worst_residual": _worst_residual(r),
    },
    "simulation.distributed_iterate": lambda a, k, r: {
        "node_rounds": a[0].params.n_nodes * _steps(a, k),
    },
}


class SpanRecorder:
    """Keeps spans in memory; ``request`` tags the spans of one request."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        observe = OBSERVERS.get(name)
        if observe is not None:
            span.info = observe(args, kwargs, result)
        return result


class AllocRecorder:
    """Peak ``tracemalloc`` allocation per function, nested calls included.

    Each call resets the tracemalloc peak on entry, so the recorder keeps
    the peak each enclosing call had seen before that reset.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [current at entry, peak seen]

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            top = max(frame[1], tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], top)
            self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), top - frame[0])


def traced_functions(module: ModuleType) -> dict[str, Callable]:
    """Public functions defined in ``module``, except per-element helpers
    and generator functions (a span would end before their work starts)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and name not in PER_ELEMENT
        and not inspect.isgeneratorfunction(obj)
    }


def _package_modules() -> list[ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextlib.contextmanager
def wrapped(recorder) -> Iterator[list[tuple[ModuleType, str, Callable]]]:
    """Route every public layer function through ``recorder.call``.

    Yields the list of (module, attribute, original) bindings replaced;
    all of them are restored when the block exits, also on error.
    """
    names: dict[Callable, str] = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for name, fn in traced_functions(module).items():
            names[fn] = f"{layer}.{name}"

    def make_wrapper(fn: Callable, span_name: str) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(span_name, fn, args, kwargs)

        return wrapper

    wrappers = {fn: make_wrapper(fn, name) for fn, name in names.items()}
    replaced: list[tuple[ModuleType, str, Callable]] = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    replaced.append((module, attr, value))
        yield replaced
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def bindings() -> dict[tuple[str, str], Callable]:
    """Every function bound to an attribute of a loaded package module."""
    return {
        (module.__name__, attr): value
        for module in _package_modules()
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        inner = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(index, [])
            if end > span.start and start < span.end
        ]
        out.append(span.end - span.start - _covered(inner))
    return out
