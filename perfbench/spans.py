"""In-memory spans around calls into a package's functions, recorded from outside.

A :class:`Tracer` replaces module attributes with wrappers while it is
installed.  For each target it patches the defining module's name and every
other name, in the package's loaded modules, bound to the same function
object, so calls through ``from .walk import fourier_matrix`` bindings are
seen too.  Wrappers return the wrapped function's result unchanged.

Spans are kept in memory under a lock, because wrapped functions can run
on worker threads.  A span's parent is the innermost open span of its own
thread or, on a thread with no open span, the innermost open span of the
thread that installed the tracer (the one that started the workers).  A
span's self time is its duration minus the union of its children's
intervals, so overlapping children on two threads are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Span:
    ident: int
    parent: int | None
    name: str
    phase: object
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr``, recorded under ``name``.

    ``before`` sees the bound arguments before the call; ``counts`` sees the
    bound arguments, the result and ``before``'s value, and returns counters.
    """

    module: str
    attr: str
    name: str
    counts: Callable[[dict, object, object], dict] | None = None
    before: Callable[[dict], object] | None = None


class Tracer:
    def __init__(self, targets: tuple[Target, ...], package: str = "sqsa"):
        self.targets = targets
        self.package = package
        self.phase: object = None
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread: int | None = None
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for target in self.targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, target: Target) -> Callable:
        signature = inspect.signature(function)

        def wrapper(*args, **kwargs):
            arguments = None
            if target.before or target.counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            before = target.before(arguments) if target.before else None
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            with self._lock:
                ident = next(self._ids)
            phase = self.phase
            stack.append(ident)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self._record(Span(ident, parent, target.name, phase, start, end, {"raised": 1}))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = target.counts(arguments, result, before) if target.counts else {}
            self._record(Span(ident, parent, target.name, phase, start, end, counts))
            return result

        return functools.wraps(function)(wrapper)

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def take(self) -> list[Span]:
        """Remove and return every span recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def covered_length(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = _children(spans)
    return {
        span.ident: span.duration - covered_length(
            [(child.start, child.end) for child in children.get(span.ident, [])],
            span.start, span.end,
        )
        for span in spans
    }


def nesting_violations(spans: list[Span]) -> list[str]:
    """Children that leave their parent's interval, or self times out of range.

    Either would let a child's self time exceed its parent's span.
    """
    by_id = {span.ident: span for span in spans}
    selfs = self_times(spans)
    problems = []
    for span in spans:
        if not 0.0 <= selfs[span.ident] <= span.duration:
            problems.append(f"{span.name} self time {selfs[span.ident]!r} outside its span")
        parent = by_id.get(span.parent)
        if parent is not None and not (parent.start <= span.start and span.end <= parent.end):
            problems.append(f"{span.name} leaves its parent {parent.name}")
    return problems


@dataclass
class Layer:
    """Totals of one span name: calls, inclusive and self seconds, counters."""

    calls: int = 0
    inclusive: float = 0.0
    self: float = 0.0
    durations: list[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)


class Layers(dict):
    """Span name -> :class:`Layer`; names never recorded read as empty layers."""

    def __missing__(self, name: str) -> Layer:
        return Layer()


def aggregate(spans: list[Span]) -> Layers:
    selfs = self_times(spans)
    layers = Layers()
    for span in spans:
        layer = layers.setdefault(span.name, Layer())
        layer.calls += 1
        layer.inclusive += span.duration
        layer.self += selfs[span.ident]
        layer.durations.append(span.duration)
        layer.counts.update(span.counts)
    return layers
