"""Exact multi-worker merging of observability data.

The ``--workers N`` pool (:mod:`repro.engine.pool`) and the live
inspector build on these pieces:

* :func:`merge_counters` — the **exact, associative, commutative** merge
  of counter snapshots. Counters are plain integer (occasionally float)
  sums, so merging K worker snapshots in any order and grouping
  reproduces the single-process totals bit-for-bit (integer addition is
  associative and commutative; Hypothesis pins this in
  ``tests/test_property_hypothesis.py``). The pool banks every worker
  delta through it.
* :class:`WorkerSnapshot` — a worker-tagged, JSON-portable bundle of one
  worker's counter registry and unified stats. Pool workers ship their
  final stats delta in one; the inspector's ``stats``/``counters``
  commands answer with one (the ``worker-snapshot`` wire manifest).
* :class:`SpanContext` — serializable trace/parent-span identity, the
  optional ``context`` field of a snapshot on the wire. Nothing mints
  one today; the field round-trips so the wire format stays stable.
* :func:`merge_run_reports` — N shard run-reports folded into one valid
  aggregate report with a ``shards`` block, so ``csce report`` renders a
  distributed run exactly like a local one.

Everything here is pure data plumbing, with no engine imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence


@dataclass(frozen=True)
class SpanContext:
    """Serializable trace identity: a snapshot's optional wire context."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def to_dict(self) -> dict:
        payload: dict = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SpanContext":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=(
                str(payload["parent_id"])
                if payload.get("parent_id") is not None
                else None
            ),
        )


def merge_counters(*snapshots: Mapping[str, float]) -> dict[str, float]:
    """Exact merge of counter snapshots: per-key sums over all inputs.

    Associative and commutative by construction (addition over ints /
    floats), with the empty dict as identity — merging shard snapshots in
    any grouping reproduces the single-process totals exactly for integer
    counters. Non-numeric values are skipped, mirroring
    :meth:`repro.obs.counters.CounterRegistry.merge`.
    """
    merged: dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged[key] = merged.get(key, 0) + value
    return merged


@dataclass
class WorkerSnapshot:
    """One worker's observability state, tagged and JSON-portable."""

    worker: str
    counters: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    context: SpanContext | None = None
    workers: tuple[str, ...] = ()
    """Contributing worker tags; ``(worker,)`` unless given."""

    def __post_init__(self) -> None:
        if not self.workers:
            self.workers = (self.worker,)

    def to_dict(self) -> dict:
        payload: dict = {
            "worker": self.worker,
            "workers": list(self.workers),
            "counters": dict(self.counters),
            "stats": dict(self.stats),
        }
        if self.context is not None:
            payload["context"] = self.context.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "WorkerSnapshot":
        context = payload.get("context")
        return cls(
            worker=str(payload["worker"]),
            counters=dict(payload.get("counters", {})),
            stats=dict(payload.get("stats", {})),
            context=SpanContext.from_dict(context) if context else None,
            workers=tuple(payload.get("workers", ())),
        )


# ----------------------------------------------------------------------
# Run-report aggregation
# ----------------------------------------------------------------------
def _longest_ladder(reports: Sequence[Mapping]) -> list:
    """The degradation ladder of the shard that degraded furthest — a
    valid ladder subsequence, unlike a cross-shard concatenation."""
    best: list = []
    for report in reports:
        ladder = report.get("degradation") or []
        if len(ladder) > len(best):
            best = list(ladder)
    return best


def merge_run_reports(
    reports: Sequence[Mapping],
    workers: Sequence[str] | None = None,
) -> dict:
    """Aggregate N shard run-reports into one valid run-report.

    Counts and counters are exact sums; wall-clock timings take the
    slowest shard (shards run in parallel), with per-shard detail and the
    cross-shard sums preserved in the ``shards`` block; ``stop_reason``
    is the first shard stop (``None`` when every shard ran to
    completion) and the legacy ``truncated``/``timed_out`` flags derive
    from it; span trees are concatenated. The result passes
    ``validate_run_report`` and ``robustness_problems``, so downstream
    tooling treats a distributed run like a local one.
    """
    if not reports:
        raise ValueError("merge_run_reports needs at least one report")
    if workers is not None and len(workers) != len(reports):
        raise ValueError(
            f"{len(workers)} worker tag(s) for {len(reports)} report(s)"
        )
    tags = (
        [str(w) for w in workers]
        if workers is not None
        else [f"shard-{i}" for i in range(len(reports))]
    )
    first = reports[0]
    counters = merge_counters(*(r.get("counters", {}) for r in reports))
    count = sum(int(r.get("count", 0)) for r in reports)
    timing_keys = (
        "read_seconds", "plan_seconds", "execute_seconds", "total_seconds"
    )
    timings = {
        key: max(
            float(r.get("timings", {}).get(key, 0.0) or 0.0) for r in reports
        )
        for key in timing_keys
    }
    stop_reason = next(
        (r.get("stop_reason") for r in reports if r.get("stop_reason")), None
    )
    spans: list = []
    for tag, report in zip(tags, reports):
        for span in report.get("spans", []) or []:
            entry = dict(span)
            entry.setdefault("attrs", {})
            entry["attrs"] = {**entry["attrs"], "worker": tag}
            spans.append(entry)
    execute = timings["execute_seconds"]
    merged: dict = {
        "format": first.get("format", "repro-run-report"),
        "version": int(first.get("version", 1)),
        "engine": str(first.get("engine", "CSCE")),
        "variant": str(first.get("variant", "")),
        "count": count,
        "truncated": stop_reason == "embedding_limit",
        "timed_out": stop_reason == "time_limit",
        "stop_reason": stop_reason,
        "degradation": _longest_ladder(reports),
        "timings": timings,
        "throughput": (count / execute) if execute > 0 else 0.0,
        "counters": counters,
        "spans": spans,
        "shards": {
            "count": len(reports),
            "workers": tags,
            "counts": [int(r.get("count", 0)) for r in reports],
            "stop_reasons": [r.get("stop_reason") for r in reports],
            "execute_seconds_sum": sum(
                float(r.get("timings", {}).get("execute_seconds", 0.0) or 0.0)
                for r in reports
            ),
        },
    }
    for key in ("dataset", "graph", "pattern", "plan"):
        if key in first:
            merged[key] = first[key]
    return merged
