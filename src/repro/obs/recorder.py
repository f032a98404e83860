"""The flight recorder: an always-on ring buffer of typed engine events.

Run-reports and span trees describe a run *after* it finished; the flight
recorder answers the operational question "what was the engine doing just
before it stopped?". It is a fixed-capacity ring buffer of small typed
events — tick samples, governor degradation rungs, checkpoint writes,
fault-site firings, stop reasons, run start/end markers — recorded from
the executor/counter tick at near-zero cost (one bounded-deque append per
:data:`~repro.engine.executor._TIME_CHECK_INTERVAL` frame steps). Old
events fall off the front, so the buffer always holds the *tail* of the
run: exactly the part a post-mortem needs.

The recorder is dumped three ways:

* automatically into the run-report (``build_run_report`` adds a
  ``recorder`` block whenever events were recorded);
* on demand via ``csce match --dump-recorder`` or ``SIGUSR1`` (the CLI
  prints :meth:`FlightRecorder.format_dump` to stderr);
* as a Chrome/Perfetto trace via :func:`write_perfetto`
  (``csce match --trace-perfetto PATH``): spans become ``"ph": "X"``
  duration events, recorder events become ``"ph": "i"`` instants on the
  same ``time.perf_counter`` timeline, loadable in ``ui.perfetto.dev`` or
  ``chrome://tracing``.

Event names are a closed registry (:data:`KNOWN_EVENTS`): the
``registry_literals`` reprolint pass checks every ``.record()`` string literal against it, so a
typo'd event name fails lint instead of silently fragmenting the stream.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any

#: Every event name recorded by literal in this codebase. The
#: ``registry_literals`` reprolint pass gates ``.record()`` string literals against this tuple,
#: so a new event type must be registered here before the code emitting it
#: can land.
KNOWN_EVENTS: tuple[str, ...] = (
    "run_start",  # a run/stream opened (mode, op count)
    "tick",       # periodic tick sample (nodes, emitted, depth, phase)
    "degrade",    # governor degradation rung (rung name, stage)
    "checkpoint", # a resumable checkpoint was written (path)
    "fault",      # an injected fault site fired (site, context)
    "stop",       # a cooperative stop (reason, nodes, emitted)
    "run_end",    # the run/stream finished (count, stop reason)
    "unit",       # a pool work unit changed state (id, worker, event)
    "steal",      # a work-steal split (victim worker, unit, new unit)
    "worker",     # a pool worker lifecycle event (id, pid, event)
    "worker_stall",  # the stall watchdog escalated (worker, pid, unit, age)
    "quarantine", # a poison unit was quarantined (unit, attempts, path)
)

DEFAULT_CAPACITY = 256


class RecordedEvent:
    """One typed event: name, monotonic timestamp, small field dict."""

    __slots__ = ("name", "ts", "fields")

    def __init__(self, name: str, ts: float, fields: dict) -> None:
        self.name = name
        self.ts = ts
        self.fields = fields

    def as_dict(self) -> dict:
        payload: dict = {"name": self.name, "ts": round(self.ts, 6)}
        if self.fields:
            payload["fields"] = dict(self.fields)
        return payload

    def render(self, origin: float = 0.0) -> str:
        shown = " ".join(f"{k}={v}" for k, v in self.fields.items())
        return (
            f"+{self.ts - origin:10.6f}s {self.name:<10}"
            + (f" {shown}" if shown else "")
        )

    def __repr__(self) -> str:
        return f"<RecordedEvent {self.name} @{self.ts:.6f}>"


class FlightRecorder:
    """Fixed-size ring buffer of :class:`RecordedEvent` (see module doc).

    ``record`` is the single hot-path entry point: one timestamp read and
    one bounded-deque append. ``recorded`` counts every event ever seen;
    ``dropped`` counts those that fell off the front, so consumers can
    tell a complete history from a tail.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        self.recorded = 0
        self.started = time.perf_counter()
        self._ring: deque[RecordedEvent] = deque(maxlen=capacity)

    def record(self, name: str, **fields: Any) -> None:
        """Append one event (evicting the oldest when full)."""
        self.recorded += 1
        self._ring.append(RecordedEvent(name, time.perf_counter(), fields))

    @property
    def dropped(self) -> int:
        """Events evicted from the ring (0 while under capacity)."""
        return self.recorded - len(self._ring)

    def events(self) -> list[RecordedEvent]:
        """The retained tail, oldest first."""
        return list(self._ring)

    def tail(self, n: int) -> list[RecordedEvent]:
        """The newest ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self) -> None:
        self._ring.clear()
        self.recorded = 0

    def as_dict(self, limit: int | None = None) -> dict:
        """JSON-ready dump (the run-report's ``recorder`` block)."""
        events = self.events() if limit is None else self.tail(limit)
        return {
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "events": [event.as_dict() for event in events],
        }

    def format_dump(self, limit: int | None = None) -> str:
        """Human-readable dump (``--dump-recorder`` / SIGUSR1)."""
        events = self.events() if limit is None else self.tail(limit)
        header = (
            f"flight recorder: {self.recorded} event(s) recorded,"
            f" {self.dropped} dropped, showing {len(events)}"
        )
        origin = events[0].ts if events else self.started
        lines = [header]
        lines.extend(f"  {event.render(origin)}" for event in events)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder {len(self._ring)}/{self.capacity}"
            f" (recorded={self.recorded})>"
        )


class NullFlightRecorder:
    """Disabled recorder: ``record`` is a no-op; dumps are empty."""

    enabled = False
    capacity = 0
    recorded = 0
    dropped = 0

    def record(self, name: str, **fields: Any) -> None:
        pass

    def events(self) -> list:
        return []

    def tail(self, n: int) -> list:
        return []

    def clear(self) -> None:
        pass

    def as_dict(self, limit: int | None = None) -> dict:
        return {"capacity": 0, "recorded": 0, "dropped": 0, "events": []}

    def format_dump(self, limit: int | None = None) -> str:
        return "flight recorder: disabled"

    def __len__(self) -> int:
        return 0


NULL_RECORDER = NullFlightRecorder()


# ----------------------------------------------------------------------
# Chrome/Perfetto trace-event export
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _span_events(span: Any, pid: int, tid: int, out: list) -> None:
    # "ph": "X" complete events: ts/dur in microseconds on the
    # time.perf_counter timeline spans already use.
    event = {
        "name": span.name,
        "ph": "X",
        "ts": span.start * 1e6,
        "dur": max(0.0, span.duration) * 1e6,
        "pid": pid,
        "tid": tid,
    }
    if span.attrs:
        event["args"] = {k: _jsonable(v) for k, v in span.attrs.items()}
    out.append(event)
    for child in span.children:
        _span_events(child, pid, tid, out)


def perfetto_trace(
    tracer: Any = None, recorder: Any = None, pid: int | None = None
) -> dict:
    """Render spans + recorder events as a Chrome trace-event document.

    Spans become nested ``"ph": "X"`` duration events; recorder events
    become ``"ph": "i"`` instants (thread scope) interleaved on the same
    monotonic timeline. The result loads directly in Perfetto
    (``ui.perfetto.dev``) or ``chrome://tracing``.
    """
    pid = os.getpid() if pid is None else pid
    events: list[dict] = []
    if tracer is not None and getattr(tracer, "enabled", False):
        for root in tracer.roots:
            _span_events(root, pid, 0, events)
    if recorder is not None and getattr(recorder, "enabled", False):
        for recorded in recorder.events():
            instant = {
                "name": recorded.name,
                "ph": "i",
                "s": "t",
                "ts": recorded.ts * 1e6,
                "pid": pid,
                "tid": 0,
            }
            if recorded.fields:
                instant["args"] = {
                    k: _jsonable(v) for k, v in recorded.fields.items()
                }
            events.append(instant)
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_perfetto(
    path: str | os.PathLike, tracer: Any = None, recorder: Any = None
) -> dict:
    """Write :func:`perfetto_trace` to ``path``; returns the document."""
    doc = perfetto_trace(tracer=tracer, recorder=recorder)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return doc
