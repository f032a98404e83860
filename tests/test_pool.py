"""Multi-process worker pool: portable work units, exact merged counts.

The hard invariant under test everywhere here: for every (pattern,
variant, workers) configuration — including under injected chaos (worker
SIGKILL, cancel mid-steal) — the pool's merged count equals the
single-process count exactly. The work-unit layer is additionally tested
in isolation: root-range sharding and frame-stack splitting partition the
search space, so executing the pieces and summing reproduces the whole.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import signal

import pytest

from repro.core.csce import CSCE
from repro.engine.checkpoint import (
    CheckpointSink,
    load_checkpoint,
    load_checkpoint_dir,
    worker_scoped_path,
)
from repro.engine.executor import Runtime, SearchState, count_capped, specialize
from repro.engine.governor import Budget, CancelToken, ResourceGovernor
from repro.engine.pool import (
    _STOP_SEVERITY,
    PoolMonitor,
    execute_parallel,
)
from repro.engine.results import MatchOptions
from repro.engine.workunit import (
    make_root_units,
    root_candidates,
    split_search_state,
)
from repro.errors import CheckpointError, PoolError
from repro.graph.patterns import CATALOG
from repro.obs import Observation, build_run_report, validate_run_report
from repro.testing import faults

from conftest import make_random_graph

VARIANTS = ("homomorphic", "edge_induced", "vertex_induced")


@pytest.fixture(scope="module")
def graph():
    return make_random_graph(150, 900, num_labels=0, seed=11)


@pytest.fixture(scope="module")
def engine(graph):
    return CSCE(graph)


@pytest.fixture(scope="module")
def capped_shards(engine, tmp_path_factory):
    """A shard directory written by a capped two-worker run, and the
    uncapped sequential count its replays must fold back to."""
    pattern = CATALOG["square"]()
    total = engine.match(pattern, "edge_induced", count_only=True).count
    cp_dir = tmp_path_factory.mktemp("capped") / "shards"
    partial = engine.match(
        pattern, "edge_induced", count_only=True, workers=2,
        max_embeddings=total // 3, pool_checkpoint_dir=str(cp_dir),
    )
    assert partial.stop_reason == "embedding_limit"
    assert partial.count == total // 3
    return cp_dir, total


def compiled(engine, pattern, variant, **options):
    opts = MatchOptions(count_only=True, **options)
    physical = engine.session.compile(pattern, variant).physical
    return specialize(physical, opts), opts


# ---------------------------------------------------------------------------
# Work units: sharding partitions the search space exactly
# ---------------------------------------------------------------------------
class TestWorkUnits:
    def test_root_units_partition_root_candidates(self, engine):
        physical, _ = compiled(engine, CATALOG["path4"](), "homomorphic")
        roots = root_candidates(physical)
        assert roots
        units = make_root_units(physical, 4)
        chunks = [u["values"][0] for u in units]
        assert [v for chunk in chunks for v in chunk] == roots
        sizes = sorted(len(c) for c in chunks)
        assert sizes[-1] - sizes[0] <= 1

    def test_more_shards_than_roots_collapses(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        roots = root_candidates(physical)
        units = make_root_units(physical, len(roots) + 50)
        assert len(units) == len(roots)
        assert all(len(u["values"][0]) == 1 for u in units)

    def test_invalid_shard_count_rejected(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        with pytest.raises(ValueError):
            make_root_units(physical, 0)

    def test_executing_units_sums_to_sequential(self, engine):
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "edge_induced", count_only=True)
        physical, opts = compiled(engine, pattern, "edge_induced")
        total = 0
        for payload in make_root_units(physical, 5):
            runtime = Runtime(physical, opts)
            try:
                total += count_capped(
                    physical, runtime, SearchState.from_payload(payload)
                )
            finally:
                runtime.release()
        assert total == seq.count

    def test_split_midway_conserves_count(self, engine):
        # Stop a run midway, split its frame stack, finish both halves:
        # kept + donated + already-emitted must equal the full count.
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        physical, opts = compiled(
            engine, pattern, "homomorphic",
            max_embeddings=seq.count // 3,
        )
        state = SearchState.fresh(len(physical.ops))
        runtime = Runtime(physical, opts)
        try:
            partial = count_capped(physical, runtime, state)
        finally:
            runtime.release()
        assert runtime.stop_reason == "embedding_limit"
        op_vertices = tuple(op.u for op in physical.ops)
        donated = split_search_state(state, True, op_vertices)
        assert donated is not None
        finish_physical, finish_opts = compiled(
            engine, pattern, "homomorphic"
        )
        total = partial
        for payload in (state.to_payload(), donated):
            rt = Runtime(finish_physical, finish_opts)
            try:
                total += count_capped(
                    finish_physical, rt, SearchState.from_payload(payload)
                )
            finally:
                rt.release()
        assert total == seq.count

    def test_split_fresh_state_returns_none(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        state = SearchState.fresh(len(physical.ops))
        op_vertices = tuple(op.u for op in physical.ops)
        assert split_search_state(state, True, op_vertices) is None

    def test_min_remaining_guard(self, engine):
        physical, _ = compiled(engine, CATALOG["triangle"](), "homomorphic")
        state = SearchState.fresh(len(physical.ops))
        op_vertices = tuple(op.u for op in physical.ops)
        with pytest.raises(ValueError):
            split_search_state(state, True, op_vertices, min_remaining=1)


# ---------------------------------------------------------------------------
# Exact-count parity: pool == sequential
# ---------------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("name", ["triangle", "path4", "square"])
    def test_two_workers_exact(self, engine, name, variant):
        pattern = CATALOG[name]()
        seq = engine.match(pattern, variant, count_only=True)
        par = engine.match(pattern, variant, count_only=True, workers=2)
        assert par.count == seq.count
        assert par.shards is not None
        assert sum(par.shards["counts"]) == par.count

    def test_four_workers_exact(self, engine):
        pattern = CATALOG["star4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=4)
        assert par.count == seq.count
        assert par.shards["count"] == len(par.shards["counts"])

    def test_restrictions_and_seed_parity(self, engine):
        from repro.baselines.symmetry import symmetry_restrictions

        pattern = CATALOG["triangle"]()
        restrictions, _ = symmetry_restrictions(pattern)
        seq = engine.match(pattern, "edge_induced", count_only=True,
                           restrictions=restrictions)
        par = engine.match(pattern, "edge_induced", count_only=True,
                           restrictions=restrictions, workers=2)
        assert par.count == seq.count

    def test_work_stealing_exact(self, engine):
        # A single oversized root unit forces the pool to rebalance by
        # splitting live frame stacks; the merged count stays exact.
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 4
        events = []
        result = execute_parallel(
            physical, opts,
            initial_units=make_root_units(physical, 1),
            on_event=lambda kind, msg: events.append(kind),
        )
        assert result.count == seq.count
        assert sum(result.shards["counts"]) == seq.count

    def test_enumeration_mode_rejected(self, engine):
        with pytest.raises(PoolError):
            engine.match(CATALOG["triangle"](), "edge_induced",
                         count_only=False, workers=2)


# ---------------------------------------------------------------------------
# Chaos: worker death and cancel mid-steal stay exact
# ---------------------------------------------------------------------------
class TestChaos:
    def test_worker_sigkill_recovers_exact(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)

        def kill_w1(rule, site, ctx):
            if os.environ.get("REPRO_WORKER") == "w1":
                os.kill(os.getpid(), signal.SIGKILL)

        injector = faults.FaultInjector(seed=1)
        injector.on("engine.tick", kill_w1, after=100, times=1)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 2
        with injector.install():
            result = execute_parallel(physical, opts)
        assert result.count == seq.count
        assert result.stop_reason is None

    def test_cluster_read_fault_in_worker_is_requeued(self, engine):
        # A transient exception inside a worker fails the unit; the pool
        # re-runs it (attempts < MAX) and the final count stays exact.
        pattern = CATALOG["triangle"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)

        fired = {"n": 0}

        def boom(rule, site, ctx):
            if os.environ.get("REPRO_WORKER"):
                fired["n"] += 1
                raise RuntimeError("injected tick fault")

        injector = faults.FaultInjector(seed=3)
        injector.on("engine.tick", boom, after=2, times=1)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 2
        with injector.install():
            result = execute_parallel(physical, opts)
        assert result.count == seq.count

    def test_cancel_mid_steal_drains_cleanly(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cancel = CancelToken()
        governor = ResourceGovernor(Budget(), cancel=cancel)
        physical, opts = compiled(engine, pattern, "homomorphic")
        opts.workers = 4
        opts.governor = governor

        def on_event(kind, msg):
            if kind == "split":
                cancel.trip("mid-steal")

        result = execute_parallel(
            physical, opts,
            initial_units=make_root_units(physical, 1),
            on_event=on_event,
        )
        # Cancelled (if a steal happened in time) or complete — either
        # way the partial count is a valid prefix of the search.
        assert result.count <= seq.count
        if result.stop_reason is not None:
            assert result.stop_reason == "cancelled"
        else:
            assert result.count == seq.count

    def test_embedding_cap_stops_pool(self, engine):
        pattern = CATALOG["path4"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cap = max(1, seq.count // 4)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=2, max_embeddings=cap)
        assert par.stop_reason == "embedding_limit"
        assert par.truncated
        # Each dispatch reserves a share of the headroom, so the pool
        # stops exactly at the cap, as the sequential count does.
        assert par.count == cap

    def test_stop_severity_order_is_stable(self):
        # The severity ladder is the documented merge tie-break; keep it
        # a module-level immutable in the fork entrypoint.
        assert _STOP_SEVERITY == (
            "embedding_limit", "time_limit", "memory_limit", "cancelled",
        )
        assert isinstance(_STOP_SEVERITY, tuple)


# ---------------------------------------------------------------------------
# Checkpoint sharding and pool resume
# ---------------------------------------------------------------------------
class TestPoolCheckpoints:
    def test_worker_scoped_path(self):
        assert worker_scoped_path("cp.json", 3).endswith("cp-w3.json")
        assert worker_scoped_path("cp.json", "aux").endswith("cp-aux.json")
        assert worker_scoped_path("cp", 0).endswith("cp-w0.json")

    def test_sink_scopes_filename_per_worker(self, engine, tmp_path):
        pattern = CATALOG["triangle"]()
        base = tmp_path / "cp.json"
        sink = CheckpointSink(base, engine.store, pattern,
                              "edge_induced", "csce", worker=2)
        assert str(sink.path).endswith("cp-w2.json")

    def test_checkpoint_resume_round_trip(self, engine, tmp_path):
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        partial = engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        assert partial.stop_reason == "embedding_limit"
        files = sorted(os.listdir(cp_dir))
        assert files and all(f.startswith("shard-") for f in files)
        resumed = engine.resume_pool(str(cp_dir), workers=2,
                                     max_embeddings=None)
        assert resumed.count == seq.count

    @pytest.mark.parametrize(
        "route", ["resume_pool", "no_fork", "per_shard", "quarantine"]
    )
    def test_replay_routes_fold_to_sequential(
        self, engine, capped_shards, route, tmp_path, monkeypatch
    ):
        # Every replay path decodes the same shards and must fold the
        # confirmed progress plus the unit states to the same exact total.
        source, total = capped_shards
        cp_dir = tmp_path / "shards"
        shutil.copytree(source, cp_dir)
        if route in ("resume_pool", "no_fork"):
            if route == "no_fork":
                def no_fork(method=None):
                    raise ValueError("cannot find context for 'fork'")

                monkeypatch.setattr(multiprocessing, "get_context", no_fork)
            result = engine.resume_pool(
                str(cp_dir), workers=2, max_embeddings=None
            )
            # The fallback reports one in-process shard; the pool reports
            # its workers plus the checkpointed progress.
            assert result.shards["workers"][0] == (
                "w0" if route == "no_fork" else "checkpoint"
            )
            folded = result.count
        elif route == "per_shard":
            folded = 0
            for shard in sorted(cp_dir.glob("shard-*.json")):
                with engine.resume(str(shard), max_embeddings=None) as stream:
                    for _ in stream:
                        pass
                assert stream.stop_reason is None
                folded += stream.count
        else:
            for i, shard in enumerate(sorted(cp_dir.glob("shard-*.json"))):
                shard.rename(cp_dir / f"quarantine-{i:04d}.json")
            # Real residue carries zero progress; these documents carry
            # shard 0's confirmed count, which the replay folds in.
            result = engine.retry_quarantined(
                str(cp_dir), max_embeddings=None
            )
            assert result.stop_reason is None
            folded = result.count
        assert folded == total

    def test_load_checkpoint_dir_rejects_empty(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint_dir(tmp_path)

    def test_load_checkpoint_dir_rejects_mixed_queries(
        self, engine, tmp_path
    ):
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        shard = sorted(cp_dir.glob("shard-*.json"))[0]
        doc = json.loads(shard.read_text())
        doc["query"]["variant"] = "edge_induced"
        shard.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint_dir(cp_dir)

    def test_shard_checkpoints_are_standard_documents(
        self, engine, tmp_path
    ):
        # Every shard is an ordinary v1 repro-checkpoint, individually
        # loadable by the single-stream reader.
        pattern = CATALOG["square"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        cp_dir = tmp_path / "shards"
        engine.match(
            pattern, "homomorphic", count_only=True, workers=2,
            max_embeddings=max(1, seq.count // 3),
            pool_checkpoint_dir=str(cp_dir),
        )
        for shard in sorted(cp_dir.glob("shard-*.json")):
            doc = load_checkpoint(shard)
            assert doc["format"] == "repro-checkpoint"


# ---------------------------------------------------------------------------
# Observability: merged reports, monitor rows, progress
# ---------------------------------------------------------------------------
class TestPoolObservability:
    def test_result_carries_exact_shards_block(self, engine):
        pattern = CATALOG["square"]()
        result = engine.match(pattern, "homomorphic", count_only=True,
                              workers=2)
        block = result.shards
        assert block["count"] == len(block["workers"])
        assert len(block["counts"]) == block["count"]
        assert sum(block["counts"]) == result.count

    def test_run_report_includes_shards_and_validates(self, engine):
        pattern = CATALOG["square"]()
        obs = Observation(trace=True)
        result = engine.match(pattern, "homomorphic", count_only=True,
                              workers=2, obs=obs)
        obs.finish(result)
        report = build_run_report(result, engine="CSCE", obs=obs)
        validate_run_report(report)
        assert report["shards"]["counts"] == result.shards["counts"]

    def test_monitor_rows_and_progress(self, engine):
        pattern = CATALOG["square"]()
        monitor = PoolMonitor()
        obs = Observation(trace=False, heartbeat_interval=0.01)
        result = engine.match(pattern, "homomorphic", count_only=True,
                              workers=2, obs=obs, pool_monitor=monitor)
        rows = monitor.worker_rows()
        assert {row["worker"] for row in rows} == {"w0", "w1"}
        for row in rows:
            assert set(row) >= {"worker", "pid", "state", "units",
                                "emitted", "nodes"}
        assert monitor.runtime.emitted == result.count
        assert result.progress is not None
        assert result.progress["percent"] == 100.0

    def test_merged_stats_match_sequential_keys(self, engine):
        pattern = CATALOG["triangle"]()
        seq = engine.match(pattern, "homomorphic", count_only=True)
        par = engine.match(pattern, "homomorphic", count_only=True,
                           workers=2)
        # Unified stats contract: same key set on every execution path.
        assert set(par.stats) == set(seq.stats)
        assert par.stats["nodes"] > 0
