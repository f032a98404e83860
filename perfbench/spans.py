"""In-memory spans recorded around the library's public calls.

Each span has a name, start and end (``perf_counter`` seconds), its parent
span and the id of the query it belongs to. Spans stay in memory until the
run ends; :func:`self_times` turns them into per-layer self time: a span's
duration minus the part of its interval its children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    qid: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "query": self.qid,
            "attrs": self.attrs,
        }


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, qid: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            name,
            time.perf_counter(),
            parent=parent.sid if parent else None,
            qid=qid if qid is not None else (parent.qid if parent else None),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def child(self, name: str, start: float, seconds: float, **attrs) -> Span:
        """A finished child of the current span, from a duration the library
        measured itself (ReadCSR's ``read_seconds``)."""
        parent = self._stack[-1]
        span = Span(
            len(self.spans),
            name,
            start,
            start + seconds,
            parent=parent.sid,
            qid=parent.qid,
            attrs=attrs,
        )
        self.spans.append(span)
        return span


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: dict[str, float] = {}
    for span in spans:
        own = span.duration - covered(children.get(span.sid, []))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals
