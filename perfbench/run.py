"""Closed-loop query benchmark of the CSCE engine, end to end and per layer.

One client issues a workload's catalog queries one at a time, each after
the previous one returned, through the library's public entry points
(``CSCE(graph)``, ``CSCE.match``, ``CSCE.match_iter``), and checks every
answer against ``refs.json``. A run makes ``round(seconds / pass_seconds)``
whole passes over the catalog (at least one), each on a freshly built
engine and in the run seed's order, so every run of a commit measures the
same queries. End-to-end times are reported at reference host speed
(:mod:`hostspeed`), next to the values as measured.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes an
unrecorded warm-up pass, then rotates passes through four modes and prints
the per-layer metrics:

* ``plain`` — the untraced queries again (the overhead base);
* ``observed`` — ``CSCE.match`` with ``Observation(trace=False)``;
* ``traced`` — the calls ``CSCE.match`` composes (``plan_query``,
  ``compile_plan``, then ``execute_physical``, ``execute_parallel`` or
  ``EmbeddingStream`` iteration), each wrapped in a span, with ReadCSR's
  share taken from the ``read_seconds`` the store returns;
* ``flat`` — counting workloads only: the injective-variant queries on the
  flat counting path (``max_embeddings`` set) at one worker.

The spans are written to ``perfbench/out/``. Usage::

    python3 perfbench/run.py --workload dense-count --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import catalog
from hostspeed import REFERENCE_KERNEL_S, HostSpeed
from spans import SpanRecorder, self_times
from summary import median, per_query_median, ratio, tail

OUT_DIR = catalog.HERE / "out"

#: The flat counting path is selected by setting an embedding cap; this one
#: is never reached.
FLAT_CAP = 10**18

#: Set-up is timed at least this many times, and for at least this long,
#: before the first pass.
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 0.5
MAX_SETUPS = 200

#: A run that has used this many times its nominal length starts no
#: further rotation.
OVERRUN = 4.0

E2E_UNITS = {
    "setup_s": "s",
    "query_s.p50": "s",
    "query_s.tail": "s",
    "queries_per_s": "1/s",
    "first_embedding_s.p50": "s",
    "embeddings_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ccsr.clusters": "count",
    "ccsr.store_mb": "MB",
    "ccsr.read_s": "s",
    "ccsr.read_share": "frac",
    "ccsr.clusters_read": "count",
    "ccsr.mb_read": "MB",
    "plan.plan_s": "s",
    "plan.share": "frac",
    "compile.compile_s": "s",
    "compile.ops": "count",
    "execute.execute_s": "s",
    "execute.share": "frac",
    "execute.nodes": "count",
    "execute.ns_per_node": "ns",
    "execute.backtrack_ratio": "frac",
    "execute.factorizations": "count",
    "execute.group_memo_hits": "count",
    "execute.factorized_queries": "count",
    "execute.default_over_flat": "x",
    "stream.embeddings": "count",
    "stream.ns_per_embedding": "ns",
    "candidates.computed": "count",
    "candidates.memo_hit_ratio": "frac",
    "candidates.intersections": "count",
    "candidates.negation_checks": "count",
    "candidates.negation_checks_per_node": "count",
    "pool.units": "count",
    "pool.busy_frac": "frac",
    "pool.same_path_speedup": "x",
    "obs.instrumented_overhead_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}


@dataclass
class Record:
    """One issued query."""

    qid: str
    mode: str
    seconds: float = 0.0
    first_s: float | None = None
    embeddings: int = 0
    error: str | None = None
    layers: dict = field(default_factory=dict)
    slowdown: float = 1.0  # host slowdown around this query


class Setup:
    """Builds engines; :meth:`measure` times a batch of builds (``setup_s``)."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.samples: list[float] = []
        self.slowdown = 1.0
        self.clusters = 0
        self.store_bytes = 0

    def build(self):
        from repro import CSCE

        # No plan cache: each pass repeats the catalog, and a user's
        # distinct queries would never hit it.
        return CSCE(self.graph, plan_cache_size=0)

    def measure(self, speed: HostSpeed) -> None:
        """Time at least :data:`MIN_SETUPS` builds and
        :data:`MIN_SETUP_SECONDS` of building, between two kernel runs."""
        before = speed.sample()
        start = time.perf_counter()
        while len(self.samples) < MAX_SETUPS and (
            len(self.samples) < MIN_SETUPS
            or time.perf_counter() - start < MIN_SETUP_SECONDS
        ):
            begin = time.perf_counter()
            store = self.build().store
            self.samples.append(time.perf_counter() - begin)
            gc.collect()
        after = speed.sample()
        self.clusters, self.store_bytes = store.num_clusters, store.nbytes()
        self.slowdown = (before + after) / (2 * REFERENCE_KERNEL_S)


# ----------------------------------------------------------------------
# Issuing one query, per mode
# ----------------------------------------------------------------------
def first_embedding_seconds(engine, query) -> float:
    start = time.perf_counter()
    with engine.match_iter(query.pattern, query.variant) as stream:
        next(stream)
    return time.perf_counter() - start


def issue_count(engine, workload, query, ref, mode) -> Record:
    from repro.obs import Observation

    record = Record(query.qid, mode)
    kwargs = {"count_only": True, "workers": workload.workers}
    if mode == "observed":
        kwargs["obs"] = Observation(trace=False)
    elif mode == "flat":
        kwargs.update(workers=1, max_embeddings=FLAT_CAP)
    start = time.perf_counter()
    result = engine.match(query.pattern, query.variant, **kwargs)
    record.seconds = time.perf_counter() - start
    record.embeddings = result.count
    record.error = catalog.check_answer(ref, result.count, None, result.stop_reason)
    if mode == "plain":
        record.first_s = first_embedding_seconds(engine, query)
    return record


def consume(stream, fold, start: float) -> tuple[float, int]:
    """Drain a stream into a set digest; returns (first-embedding s, digest)."""
    embedding = next(stream, None)
    first = time.perf_counter() - start
    if embedding is None:
        return first, 0
    digest = fold(0, embedding)
    for embedding in stream:
        digest = fold(digest, embedding)
    return first, digest


def issue_stream(engine, workload, query, ref, mode) -> Record:
    from repro.obs import Observation

    record = Record(query.qid, mode)
    fold = catalog.embedding_folder(query.pattern.num_vertices)
    obs = Observation(trace=False) if mode == "observed" else None
    start = time.perf_counter()
    stream = engine.match_iter(query.pattern, query.variant, obs=obs)
    record.first_s, digest = consume(stream, fold, start)
    record.seconds = time.perf_counter() - start
    record.embeddings = stream.count
    record.error = catalog.check_answer(ref, stream.count, digest, stream.stop_reason)
    return record


def issue_traced(rec: SpanRecorder, engine, workload, query, ref) -> Record:
    """The calls ``CSCE.match``/``match_iter`` compose, one span each."""
    from repro.engine import (
        EmbeddingStream,
        MatchOptions,
        compile_plan,
        execute_parallel,
        execute_physical,
        plan_query,
    )
    from repro.engine.executor import specialize

    record = Record(query.qid, "traced")
    layers = record.layers
    digest = None
    with rec.span("query", qid=query.qid, variant=query.variant) as qspan:
        with rec.span("plan_query") as span:
            plan = plan_query(engine.store, query.pattern, query.variant)
            task = plan.task_clusters
            rec.child("read", span.start, task.read_seconds)
        with rec.span("compile_plan"):
            physical = compile_plan(plan)
        if workload.mode == "stream":
            fold = catalog.embedding_folder(query.pattern.num_vertices)
            with rec.span("EmbeddingStream") as span:
                stream = EmbeddingStream(physical, MatchOptions())
                record.first_s, digest = consume(stream, fold, qspan.start)
            result = stream.result()
        elif workload.workers > 1:
            units = []
            options = MatchOptions(count_only=True, workers=workload.workers)
            with rec.span("execute_parallel") as span:
                result = execute_parallel(
                    specialize(physical, options),
                    options,
                    on_event=lambda kind, _: units.append(kind == "done"),
                )
            layers["pool_units"] = sum(units)
            layers["pool_busy_s"] = result.shards["execute_seconds_sum"]
        else:
            with rec.span("execute_physical") as span:
                result = execute_physical(physical, MatchOptions(count_only=True))
    layers.update(
        read_s=task.read_seconds,
        clusters_read=task.num_clusters,
        bytes_read=task.bytes_read,
        ops=len(physical.ops),
        execute_s=span.duration,
        **result.stats,
    )
    record.seconds = qspan.duration
    record.embeddings = result.count
    record.error = catalog.check_answer(ref, result.count, digest, result.stop_reason)
    return record


def issue(engine, workload, query, ref, mode, rec=None) -> Record:
    try:
        if mode == "traced":
            return issue_traced(rec, engine, workload, query, ref)
        if workload.mode == "stream":
            return issue_stream(engine, workload, query, ref, mode)
        return issue_count(engine, workload, query, ref, mode)
    except Exception as exc:  # a failed query is counted, not fatal
        traceback.print_exc()
        return Record(query.qid, mode, error=f"raised {exc!r}")


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_passes(
    workload, queries, refs, setup, speed, seed, rotations, modes, rec=None
):
    """``rotations`` times, one whole pass per mode, in the seed's order.

    The host-speed kernel runs between consecutive queries; a query's
    slowdown is the mean of the kernel runs just before and just after it.
    A run stops early, after a whole rotation, once it has used
    :data:`OVERRUN` times its nominal length, so a pathological slowdown
    still ends in time.
    """
    rng = random.Random(seed)
    records: list[Record] = []
    deadline = time.perf_counter() + OVERRUN * rotations * len(modes) * (
        workload.pass_seconds
    )
    for _ in range(rotations):
        for mode in modes:
            engine = None
            gc.collect()
            if mode == "traced":
                with rec.span("CSCE"):
                    engine = setup.build()
            else:
                engine = setup.build()
            before = speed.sample()
            for query in catalog.pass_order(queries, rng):
                if mode == "flat" and query.variant == "homomorphic":
                    continue
                record = issue(
                    engine,
                    workload,
                    query,
                    refs.get(query.qid),
                    "plain" if mode == "warmup" else mode,
                    rec,
                )
                after = speed.sample()
                record.slowdown = (before + after) / (2 * REFERENCE_KERNEL_S)
                before = after
                if mode != "warmup":
                    records.append(record)
        if time.perf_counter() > deadline:
            break
    return records


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest pool child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(
    records: list[Record], setup: Setup, speed: HostSpeed, at_reference: bool
) -> tuple[dict, str]:
    """The end-to-end metrics, as measured or (``at_reference``) with each
    time divided by the host slowdown around it."""
    done = [r for r in records if r.error is None]

    def scaled(record: Record, seconds: float) -> float:
        return seconds / record.slowdown if at_reference else seconds

    latencies = [scaled(r, r.seconds) for r in done]
    busy = sum(latencies)
    tail_value, tail_pct, tail_n = tail(latencies)
    values = {
        "setup_s": median(setup.samples)
        / (setup.slowdown if at_reference else 1.0),
        "query_s.p50": per_query_median(
            (r.qid, scaled(r, r.seconds)) for r in done
        ),
        "query_s.tail": tail_value,
        "queries_per_s": ratio(len(done), busy),
        "first_embedding_s.p50": per_query_median(
            (r.qid, scaled(r, r.first_s)) for r in done if r.first_s is not None
        ),
        "embeddings_per_s": ratio(sum(r.embeddings for r in done), busy),
        "peak_rss_mb": peak_rss_mb(),
    }
    note = (
        f"query_s.tail is p{tail_pct:.1f} of {tail_n} queries;"
        f" setup_s is the median of {len(setup.samples)} builds;"
        f" mean host slowdown {speed.slowdown:.4f}"
    )
    return values, note


def per_layer(records, setup: Setup, rec: SpanRecorder, workload) -> dict:
    def total(mode, qids=None):
        """Summed query time of a mode, at reference host speed."""
        return sum(
            r.seconds / r.slowdown
            for r in records
            if r.mode == mode and (qids is None or r.qid in qids)
        )

    traced = [r for r in records if r.mode == "traced" and r.layers]
    n = len(traced)

    def layer_sum(key):
        return sum(r.layers.get(key, 0) for r in traced)

    selfs = self_times(rec.spans)
    query_total = sum(r.seconds for r in traced)
    execute = layer_sum("execute_s")
    nodes = layer_sum("nodes")
    plain = total("plain")
    flat_qids = {r.qid for r in records if r.mode == "flat"}
    stream = execute if workload.mode == "stream" else 0.0
    embeddings = sum(r.embeddings for r in traced) if stream else 0
    pooled = workload.workers > 1
    return {
        "ccsr.clusters": setup.clusters,
        "ccsr.store_mb": setup.store_bytes / 1e6,
        "ccsr.read_s": ratio(layer_sum("read_s"), n),
        "ccsr.read_share": ratio(layer_sum("read_s"), query_total),
        "ccsr.clusters_read": ratio(layer_sum("clusters_read"), n),
        "ccsr.mb_read": ratio(layer_sum("bytes_read"), n) / 1e6,
        "plan.plan_s": ratio(selfs.get("plan_query", 0.0), n),
        "plan.share": ratio(selfs.get("plan_query", 0.0), query_total),
        "compile.compile_s": ratio(selfs.get("compile_plan", 0.0), n),
        "compile.ops": ratio(layer_sum("ops"), n),
        "execute.execute_s": ratio(execute, n),
        "execute.share": ratio(execute, query_total),
        "execute.nodes": ratio(nodes, n),
        "execute.ns_per_node": ratio(execute, nodes) * 1e9,
        "execute.backtrack_ratio": ratio(layer_sum("backtracks"), nodes),
        "execute.factorizations": ratio(layer_sum("factorizations"), n),
        "execute.group_memo_hits": ratio(layer_sum("group_memo_hits"), n),
        "execute.factorized_queries": len(
            {r.qid for r in traced if r.layers.get("factorizations")}
        ),
        "execute.default_over_flat": ratio(
            total("plain", flat_qids), total("flat")
        )
        if not pooled
        else 0.0,
        "stream.embeddings": ratio(embeddings, n),
        "stream.ns_per_embedding": ratio(stream, embeddings) * 1e9,
        "candidates.computed": ratio(layer_sum("computed"), n),
        "candidates.memo_hit_ratio": ratio(
            layer_sum("memo_hits"), layer_sum("memo_hits") + layer_sum("computed")
        ),
        "candidates.intersections": ratio(layer_sum("intersections"), n),
        "candidates.negation_checks": ratio(layer_sum("negation_checks"), n),
        "candidates.negation_checks_per_node": ratio(
            layer_sum("negation_checks"), nodes
        ),
        "pool.units": ratio(layer_sum("pool_units"), n),
        "pool.busy_frac": ratio(
            layer_sum("pool_busy_s"), workload.workers * execute
        )
        if pooled
        else 0.0,
        "pool.same_path_speedup": ratio(total("flat"), plain) if pooled else 0.0,
        "obs.instrumented_overhead_frac": ratio(total("observed"), plain) - 1.0,
        "trace.overhead_frac": ratio(total("traced"), plain) - 1.0,
        "trace.unaccounted_frac": ratio(selfs.get("query", 0.0), query_total),
    }


def write_spans(rec: SpanRecorder, workload: str, seed: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([span.as_dict() for span in rec.spans], handle)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--catalog",
        choices=sorted(catalog.CATALOG_SEEDS),
        default="main",
        help="query catalog: main, or heldout to confirm a claim",
    )
    args = parser.parse_args(argv)
    if not (catalog.SRC / "repro").is_dir():
        print(f"no library source at {catalog.SRC}", file=sys.stderr)
        return 2

    workload = catalog.WORKLOADS[args.workload]
    refs = catalog.load_refs()[args.catalog][workload.source]
    graph = catalog.build_graph(catalog.SOURCES[workload.source])
    queries = catalog.catalog_queries(workload, graph, args.catalog)
    print(
        f"workload {workload.name}: catalog {args.catalog}"
        f" (seed {catalog.CATALOG_SEEDS[args.catalog]}), run seed {args.seed},"
        f" {len(queries)} queries, closed loop, 1 client,"
        f" workers={workload.workers}"
    )
    print("pattern fingerprints: " + " ".join(sorted({q.fingerprint for q in queries})))

    speed = HostSpeed()
    setup = Setup(graph)
    setup.measure(speed)
    rec = SpanRecorder()
    if args.trace:
        # The first pass of a process pays for growing the heap; a warm-up
        # pass keeps that cost out of the modes compared with each other.
        modes = ["warmup", "plain", "observed", "traced"]
        if workload.mode == "count":
            modes.append("flat")
    else:
        modes = ["plain"]
    rotations = max(1, round(args.seconds / (workload.pass_seconds * len(modes))))
    records = run_passes(
        workload, queries, refs, setup, speed, args.seed, rotations, modes, rec
    )
    failed = [r for r in records if r.error is not None]
    for record in failed:
        print(f"FAILED {record.mode} {record.qid}: {record.error}")
    if args.trace:
        values = per_layer(records, setup, rec, workload)
        units = PER_LAYER_UNITS
        print(f"spans: {write_spans(rec, workload.name, args.seed)}")
        for name, seconds in sorted(self_times(rec.spans).items()):
            print(f"self time {name:18s} {seconds:10.4f} s")
    else:
        values, note = end_to_end(records, setup, speed, at_reference=True)
        raw, _ = end_to_end(records, setup, speed, at_reference=False)
        units = E2E_UNITS
        print(note)
        print(
            "as measured: "
            + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())
        )
    print(f"failed_frac {ratio(len(failed), len(records)):.4f}")
    for name, value in values.items():
        print(f"{name:38s} {value:14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
