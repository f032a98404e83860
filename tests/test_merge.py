"""Merge-ready multi-worker observability: exact counter merges, worker
snapshots, and shard run-report aggregation.

The acceptance bar: sharding a run over K workers (one seeded run per
root candidate) and merging the K observability snapshots reproduces the
single-process totals *exactly* — counts, stats, and counters."""

import json

import pytest

from repro.core.csce import CSCE
from repro.graph.patterns import CATALOG
from repro.obs import (
    Observation,
    SpanContext,
    WorkerSnapshot,
    build_run_report,
    format_run_report,
    merge_counters,
    merge_run_reports,
    robustness_problems,
    validate_run_report,
)

from conftest import make_random_graph


@pytest.fixture(scope="module")
def graph():
    return make_random_graph(24, 60, num_labels=2, seed=11)


@pytest.fixture(scope="module")
def engine(graph):
    return CSCE(graph)


def shard_by_root(engine, pattern, variant="edge_induced"):
    """Split a run into one seeded shard per root-candidate data vertex —
    the multi-worker sharding model (each worker gets a pinned root)."""
    plan = engine.build_plan(pattern, variant)
    root = plan.order[0]
    shards = []
    for v in range(engine.store.num_vertices):
        obs = Observation(trace=False)
        result = engine.match(
            pattern, variant, count_only=False, seed={root: v}, obs=obs
        )
        shards.append((f"worker-{v}", obs, result))
    return shards


# ---------------------------------------------------------------------------
# merge_counters
# ---------------------------------------------------------------------------
class TestMergeCounters:
    def test_sums_per_key(self):
        merged = merge_counters({"a": 1, "b": 2}, {"a": 3, "c": 4})
        assert merged == {"a": 4, "b": 2, "c": 4}

    def test_empty_identity(self):
        assert merge_counters({"a": 1}, {}) == {"a": 1}
        assert merge_counters() == {}

    def test_skips_non_numeric_and_bools(self):
        merged = merge_counters({"a": 1, "note": "x", "flag": True}, {"a": 1})
        assert merged == {"a": 2}

    def test_associative_groupings_agree(self):
        a, b, c = {"n": 1}, {"n": 2, "m": 5}, {"m": 7}
        left = merge_counters(merge_counters(a, b), c)
        right = merge_counters(a, merge_counters(b, c))
        assert left == right == merge_counters(a, b, c)

    def test_disjoint_key_sets_concatenate(self):
        # Fully disjoint shards: no key collides, every entry survives.
        merged = merge_counters({"a": 1, "b": 2}, {"c": 3}, {"d": 4.5})
        assert merged == {"a": 1, "b": 2, "c": 3, "d": 4.5}


# ---------------------------------------------------------------------------
# SpanContext
# ---------------------------------------------------------------------------
class TestSpanContext:
    def test_roundtrip(self):
        ctx = SpanContext(trace_id="t" * 32, span_id="c" * 16,
                          parent_id="p" * 16)
        assert SpanContext.from_dict(ctx.to_dict()) == ctx
        json.dumps(ctx.to_dict())


# ---------------------------------------------------------------------------
# Worker snapshots: merged == single-process, exactly
# ---------------------------------------------------------------------------
class TestWorkerSnapshots:
    def test_snapshot_roundtrip(self):
        snap = WorkerSnapshot(
            worker="w1", counters={"nodes": 5}, stats={"nodes": 5},
            context=SpanContext(trace_id="t" * 32, span_id="s" * 16),
        )
        restored = WorkerSnapshot.from_dict(
            json.loads(json.dumps(snap.to_dict()))
        )
        assert restored.worker == "w1"
        assert restored.counters == {"nodes": 5}
        assert restored.workers == ("w1",)
        assert restored.context == snap.context

    @pytest.mark.parametrize("name", ["triangle", "path4", "star4"])
    def test_sharded_run_reproduces_single_process_exactly(
        self, engine, name
    ):
        pattern = CATALOG[name]()
        full_obs = Observation(trace=False)
        full = engine.match(
            pattern, "edge_induced", count_only=False, obs=full_obs
        )
        shards = shard_by_root(engine, pattern)
        assert full.count == sum(r.count for _, _, r in shards)
        merged = merge_counters(*(r.stats for _, _, r in shards))
        # Stats are exact sums over shards (integer addition).
        for key in ("nodes", "backtracks"):
            assert merged[key] == sum(r.stats[key] for _, _, r in shards)

    def test_merge_order_and_grouping_do_not_matter(self, engine):
        pattern = CATALOG["triangle"]()
        shards = shard_by_root(engine, pattern)
        for table in (
            [obs.counters.snapshot() for _, obs, _ in shards],
            [r.stats for _, _, r in shards],
        ):
            half = len(table) // 2
            flat = merge_counters(*table)
            reversed_ = merge_counters(*reversed(table))
            grouped = merge_counters(
                merge_counters(*table[:half]), merge_counters(*table[half:])
            )
            assert flat == reversed_ == grouped


# ---------------------------------------------------------------------------
# Run-report aggregation
# ---------------------------------------------------------------------------
class TestMergeRunReports:
    def shard_reports(self, engine, pattern):
        reports = []
        total = 0
        for tag, obs, result in shard_by_root(engine, pattern):
            total += result.count
            reports.append(
                build_run_report(result, engine="CSCE", obs=obs)
            )
        return reports, total

    def test_merged_report_is_valid_and_exact(self, engine):
        pattern = CATALOG["triangle"]()
        reports, total = self.shard_reports(engine, pattern)
        merged = merge_run_reports(reports)
        validate_run_report(merged)  # raises on schema problems
        assert robustness_problems(merged) == []
        assert merged["count"] == total
        assert merged["shards"]["count"] == len(reports)
        assert sum(merged["shards"]["counts"]) == total
        assert merged["counters"]["nodes"] == sum(
            r["counters"]["nodes"] for r in reports
        )
        # Parallel wall-clock: the merged timing is the slowest shard, and
        # the cross-shard work sum is preserved separately.
        assert merged["timings"]["execute_seconds"] == max(
            r["timings"]["execute_seconds"] for r in reports
        )
        assert merged["shards"]["execute_seconds_sum"] == pytest.approx(
            sum(r["timings"]["execute_seconds"] for r in reports)
        )

    def test_merged_report_renders_shards(self, engine):
        pattern = CATALOG["triangle"]()
        reports, _ = self.shard_reports(engine, pattern)
        rendered = format_run_report(
            merge_run_reports(reports, workers=[f"w{i}" for i in
                                               range(len(reports))])
        )
        assert "shards" in rendered

    def test_worker_tags_stamped_on_spans(self):
        base = {
            "format": "repro-run-report", "version": 1, "engine": "CSCE",
            "variant": "edge_induced", "count": 1,
            "timings": {"execute_seconds": 0.5},
            "spans": [{"name": "execute", "attrs": {}}],
        }
        other = dict(base, spans=[{"name": "execute", "attrs": {}}])
        merged = merge_run_reports([base, other], workers=["a", "b"])
        tags = [s["attrs"]["worker"] for s in merged["spans"]]
        assert tags == ["a", "b"]

    def test_stop_reason_first_non_none(self):
        base = {
            "format": "repro-run-report", "version": 1, "engine": "CSCE",
            "variant": "edge_induced", "count": 0,
            "timings": {}, "stop_reason": None,
        }
        stopped = dict(base, stop_reason="time_limit", timed_out=True)
        merged = merge_run_reports([base, stopped, base])
        assert merged["stop_reason"] == "time_limit"
        assert merged["timed_out"] is True

    def test_degradation_takes_longest_ladder(self):
        base = {
            "format": "repro-run-report", "version": 1, "engine": "CSCE",
            "variant": "edge_induced", "count": 0, "timings": {},
        }
        a = dict(base, degradation=["evict_memo"])
        b = dict(base, degradation=["evict_memo", "disable_memo"])
        merged = merge_run_reports([a, b])
        assert merged["degradation"] == ["evict_memo", "disable_memo"]

    def test_single_shard_identity(self, engine):
        # Merging one shard report changes nothing observable: count,
        # counters, stop flags, and timings all pass through, and the
        # shards block degenerates to that one worker.
        pattern = CATALOG["triangle"]()
        obs = Observation(trace=False)
        result = engine.match(
            pattern, "edge_induced", count_only=False, obs=obs
        )
        report = build_run_report(result, engine="CSCE", obs=obs)
        merged = merge_run_reports([report], workers=["solo"])
        validate_run_report(merged)
        assert merged["count"] == report["count"]
        assert merged["counters"] == report["counters"]
        assert merged["stop_reason"] == report.get("stop_reason")
        assert merged["timings"]["execute_seconds"] == (
            report["timings"]["execute_seconds"]
        )
        assert merged["shards"]["count"] == 1
        assert merged["shards"]["workers"] == ["solo"]
        assert merged["shards"]["counts"] == [report["count"]]

    def test_empty_and_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            merge_run_reports([])
        with pytest.raises(ValueError):
            merge_run_reports(
                [{"format": "repro-run-report", "version": 1,
                  "engine": "CSCE", "variant": "v", "count": 0,
                  "timings": {}}],
                workers=["a", "b"],
            )
