"""In-memory spans around the benchmark's calls into spinlab.

A span records a name, start and end (perf_counter seconds), the span that
caused it, the item it belongs to, the problem size N of the call and
whether the call raised.  Items are the root spans; every call into a
spinlab module is a child of the item that made it.  Spans stay in memory
and are written out by the runner when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    item: int
    n: int | None
    start: float
    end: float = 0.0
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Forwards calls into spinlab, recording a span per call when enabled.

    A disabled tracer adds one Python call per forwarded call and records
    nothing, so the end-to-end runs measure the program, not the tracing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._item = -1

    def _open(self, name: str, n: int | None) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, parent, self._item, n, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    @contextlib.contextmanager
    def item(self, index: int, name: str):
        """Root span of one item of user work."""
        if not self.enabled:
            yield
            return
        self._item = index
        span = self._open(name, None)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(span, failed)

    def call(self, name: str, n: int | None, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) under a span called name (layer.call)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self._open(name, n)
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self._close(span, failed)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child = {s.span_id: 0.0 for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return {s.span_id: s.duration - child[s.span_id] for s in self.spans}

    def as_records(self) -> list[dict]:
        return [
            {
                "id": s.span_id,
                "name": s.name,
                "parent": s.parent,
                "item": s.item,
                "n": s.n,
                "start": s.start,
                "end": s.end,
                "failed": s.failed,
            }
            for s in self.spans
        ]
