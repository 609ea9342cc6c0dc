"""In-memory spans and counters for the traced run.

A span has a name, start and end (``perf_counter`` seconds), the id of
the span that caused it, and the trace id shared by all spans of one
traced query. Counters are recorded on the span where the work happened.
Spans stay in memory and are written as JSON when the run ends.

A span's self time is its duration minus its child spans' durations.
Driver-side calls nest in time. Spark executes lazily, so a Spark layer
is timed by materializing its plan prefix to the ``noop`` sink over
cached input, longest prefix first: each shorter prefix is then timed
as a child of the layer that consumes its output, so the consumer's
self time is its prefix minus the shorter one.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    trace_id: str
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        """Time the ``with`` body. ``parent`` defaults to the innermost
        open span."""
        if parent is None and self._stack:
            parent = self._stack[-1].id
        s = Span(len(self.spans), self.trace_id, name, parent,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_time(self, span: Span) -> float:
        return span.duration - sum(
            c.duration for c in self.spans if c.parent == span.id)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f, indent=1)
