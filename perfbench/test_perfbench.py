"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random

import catalog
import pytest
import run
from spans import SpanRecorder, covered, self_times
from summary import per_query_median, ratio, tail


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 26)]
    random.Random(0).shuffle(values)
    assert tail(values) == (15.0, 60.0, 25)
    assert tail([float(v) for v in range(1, 12)]) == (1.0, 100.0 / 11, 11)


def test_tail_without_ten_beyond_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail([]) == (0.0, 0.0, 0)


def test_p50_takes_each_query_median_first():
    samples = [("a", 1.0), ("a", 9.0), ("a", 2.0), ("b", 4.0), ("c", 5.0)]
    assert per_query_median(samples) == 4.0


def test_ratio_without_base_is_zero():
    assert ratio(3.0, 4.0) == 0.75
    assert ratio(3.0, 0.0) == 0.0


def test_self_time_subtracts_the_union_of_children():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    rec = SpanRecorder()
    with rec.span("query", qid="q") as parent:
        rec.child("read", parent.start, 0.0)
        with rec.span("plan_query"):
            pass
    selfs = self_times(rec.spans)
    assert selfs["query"] + selfs["plan_query"] + selfs["read"] == pytest.approx(
        parent.duration
    )
    assert rec.spans[1].qid == rec.spans[2].qid == "q"


def _traced(qid, seconds, **layers):
    return run.Record(qid, "traced", seconds=seconds, layers=layers)


def test_per_layer_ratio_bases():
    workload = catalog.Workload("w", "s", ("edge_induced",), "count", 2, "")
    rec = SpanRecorder()
    with rec.span("query", qid="a") as query:
        with rec.span("plan_query") as plan:
            rec.child("read", plan.start, 0.0)
        with rec.span("compile_plan"):
            pass
        with rec.span("execute_parallel"):
            pass
    records = [
        _traced(
            "a",
            query.duration,
            execute_s=rec.spans[-1].duration,
            nodes=100,
            backtracks=25,
            memo_hits=30,
            computed=10,
            negation_checks=50,
            pool_units=8,
            pool_busy_s=rec.spans[-1].duration,
        ),
        run.Record("a", "plain", seconds=2.0),
        run.Record("a", "observed", seconds=2.2),
        run.Record("a", "flat", seconds=3.0),
    ]
    setup = run.Setup(None)
    setup.clusters, setup.store_bytes = 7, 2_000_000
    values = run.per_layer(records, setup, rec, workload)
    assert values["ccsr.clusters"] == 7
    assert values["ccsr.store_mb"] == 2.0
    assert values["candidates.memo_hit_ratio"] == 0.75  # hits / (hits + computed)
    assert values["execute.backtrack_ratio"] == 0.25  # per node
    assert values["candidates.negation_checks_per_node"] == 0.5
    assert values["pool.busy_frac"] == 0.5  # busy / (workers x wall)
    assert values["pool.same_path_speedup"] == 1.5  # flat w1 / pooled
    assert values["obs.instrumented_overhead_frac"] == pytest.approx(0.1)
    shares = (
        values["ccsr.read_share"]
        + values["plan.share"]
        + values["execute.share"]
        + values["trace.unaccounted_frac"]
        + values["compile.compile_s"] / query.duration
    )
    assert shares == pytest.approx(1.0)
    assert set(values) == set(run.PER_LAYER_UNITS)


def test_check_answer_flags_every_kind_of_wrong_answer():
    ref = {"count": 5, "digest": format(42, "016x")}
    assert catalog.check_answer(ref, 5, 42) is None
    assert "count" in catalog.check_answer(ref, 4, 42)
    assert "digest" in catalog.check_answer(ref, 5, 41)
    assert "stopped" in catalog.check_answer(ref, 5, 42, "time_limit")
    assert "no reference" in catalog.check_answer(None, 5, 42)


@pytest.fixture
def tiny():
    from repro import CSCE
    from repro.graph.model import Graph
    from repro.graph.patterns import cycle

    graph = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    pattern = cycle(3)
    fp = catalog.fingerprint(pattern)
    return CSCE(graph), catalog.Query(f"{fp}/edge_induced", fp, "edge_induced", pattern)


@pytest.mark.parametrize("mode", ["count", "stream"])
def test_a_deliberately_wrong_reference_is_flagged(tiny, mode):
    engine, query = tiny
    workload = catalog.Workload("w", "s", ("edge_induced",), mode, 1, "")
    right = run.issue(engine, workload, query, {"count": 12}, "plain")
    assert right.error is None and right.embeddings == 12
    wrong = run.issue(engine, workload, query, {"count": 11}, "plain")
    assert "count 12 != reference 11" in wrong.error
    traced = run.issue(engine, workload, query, {"count": 11}, "traced", SpanRecorder())
    assert traced.error is not None
    if mode == "stream":
        bad_digest = run.issue(
            engine, workload, query, {"count": 12, "digest": "0" * 16}, "plain"
        )
        assert "digest" in bad_digest.error


def test_catalog_generation_is_deterministic_and_referenced():
    source = "dip-dense6"
    graph = catalog.build_graph(catalog.SOURCES[source])

    def fingerprints(name):
        return [
            catalog.fingerprint(p)
            for p in catalog.sample_patterns(source, graph, name)
        ]

    first, again, held = (fingerprints(n) for n in ("main", "main", "heldout"))
    assert first == again
    assert first != held
    refs = catalog.load_refs()
    workload = catalog.WORKLOADS["dense-count"]
    for name in catalog.CATALOG_SEEDS:
        queries = catalog.catalog_queries(workload, graph, name)
        assert {q.qid for q in queries} <= set(refs[name][source])
    orders = [
        [q.qid for q in catalog.pass_order(queries, random.Random(7))]
        for _ in range(2)
    ]
    assert orders[0] == orders[1]
    assert sorted(orders[0]) == sorted(q.qid for q in queries)


def test_benchmark_json_mirrors_the_code():
    doc = json.loads((catalog.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in catalog.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS


def test_end_to_end_times_are_divided_by_the_slowdown_around_them():
    setup = run.Setup(None)
    setup.samples, setup.slowdown = [0.4, 0.2, 0.3], 1.5
    speed = run.HostSpeed()
    records = [
        run.Record("a", "plain", seconds=2.0, first_s=0.2, embeddings=10, slowdown=2.0),
        run.Record("b", "plain", seconds=1.0, first_s=0.1, embeddings=10, slowdown=1.0),
        run.Record("c", "plain", seconds=9.0, error="count 1 != reference 2"),
    ]
    raw, _ = run.end_to_end(records, setup, speed, at_reference=False)
    scaled, _ = run.end_to_end(records, setup, speed, at_reference=True)
    assert raw["queries_per_s"] == pytest.approx(2 / 3.0)  # failed query left out
    assert scaled["queries_per_s"] == pytest.approx(2 / 2.0)
    assert scaled["embeddings_per_s"] == pytest.approx(20 / 2.0)
    assert scaled["query_s.p50"] == pytest.approx(1.0)
    assert scaled["first_embedding_s.p50"] == pytest.approx(0.1)
    assert raw["setup_s"] == 0.3 and scaled["setup_s"] == pytest.approx(0.2)
