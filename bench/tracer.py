"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public callables by name, from outside the package: it
replaces a function on its home module and on every module of the scanned
package that holds a reference to the same object, so calls made through
``from .x import f`` bindings are caught too. Spans stay in memory; self time
is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

Probe = Callable[[Counter, tuple, dict, object], None]


class Target(NamedTuple):
    """A callable to trace: ``module.attr``, reported as span ``name``."""

    name: str
    module: str
    attr: str
    probe: Probe | None = None


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    op: int
    name: str
    start: float
    end: float
    self_s: float
    error: str | None


class Tracer:
    """Records one span per call of every installed target."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span_id, child time] of open spans
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, probe: Probe | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([span_id, 0.0])
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span_id, parent, name, start, type(exc).__name__)
                raise
            self._close(span_id, parent, name, start, None)
            if probe is not None:
                probe(self.counts, args, kwargs, result)
            return result

        return traced

    def _close(self, span_id, parent, name, start, error) -> None:
        end = self.clock()
        _, child = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += end - start
        self.spans.append(Span(span_id, parent, self.op, name, start, end, end - start - child, error))

    @contextmanager
    def installed(self, targets, package: str):
        """Wrap every target while the block runs; restore every name afterwards.

        Besides the home module, each module under ``package`` that binds the
        same function object (under any name) gets the wrapper.
        """
        try:
            for target in targets:
                home = importlib.import_module(target.module)
                original = getattr(home, target.attr)
                wrapper = self.wrap(target.name, original, target.probe)
                sites = [home] + [
                    module
                    for key, module in list(sys.modules.items())
                    if (key == package or key.startswith(package + ".")) and module is not home
                ]
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._patches.append((site, key, original))
                            setattr(site, key, wrapper)
            yield self
        finally:
            for site, key, original in reversed(self._patches):
                setattr(site, key, original)
            self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and errors by type."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": Counter()})
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.self_s
            if span.error is not None:
                entry["errors"][span.error] += 1
        return out
