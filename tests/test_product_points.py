"""Compile-time product points and the one search loop.

Factorized counting multiplies the counts of independent regions at the
plan's product points. These tests pin three things:

* the compile-time partition (:func:`repro.engine.physical.
  compute_product_points`) equals the per-node partition the old counter
  recomputed — components of ``H`` restricted to the region, merged by
  label under injective variants — for every region the search reaches;
* every execution path gives the same count on a workload big enough for
  factorization, region-memo hits and bulk leaf counting to fire, and a
  bulk-counted leaf leaves the same node/backtrack/prune counters as a
  leaf scanned candidate by candidate;
* the region memo sits behind the governor's degradation ladder.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import CSCE
from repro.engine import (
    Budget,
    EmbeddingStream,
    MatchOptions,
    ResourceGovernor,
    Runtime,
    SearchState,
    count_capped,
    execute_physical,
    plan_query,
    search,
)
from repro.engine.physical import (
    DONE,
    LEAF,
    PRODUCT,
    SPLIT,
    compile_plan,
    compute_product_points,
    flat_points,
)
from repro.engine.session import PLANNERS
from repro.graph import Graph
from repro.testing.faults import FaultInjector, memory_spike

from conftest import make_random_graph

VARIANTS = ("edge_induced", "vertex_induced", "homomorphic")


# ----------------------------------------------------------------------
# The reference: the partition the old counter computed on every node.
# ----------------------------------------------------------------------
def _merge_by_labels(components, labels):
    parent = list(range(len(components)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    owner = {}
    for idx, component in enumerate(components):
        for v in component:
            label = labels[v]
            if label in owner:
                parent[find(idx)] = find(owner[label])
            else:
                owner[label] = idx
    merged = {}
    for idx, component in enumerate(components):
        merged.setdefault(find(idx), []).extend(component)
    return [sorted(group) for group in merged.values()]


def reference_groups(plan, positions):
    """``undirected_components`` + label merge, as positions tuples."""
    vertices = [plan.order[p] for p in positions]
    components = plan.dag.undirected_components(vertices)
    if len(components) <= 1:
        return [positions]
    if plan.variant.injective:
        labels = [plan.pattern.vertex_label(v) for v in range(plan.num_vertices)]
        components = _merge_by_labels(components, labels)
        if len(components) <= 1:
            return [positions]
    position = plan.position
    return [tuple(sorted(position[v] for v in c)) for c in components]


def region_of(points, head):
    """The positions the search visits from ``head`` onwards."""
    members, stack = [], [head]
    while stack:
        p = stack.pop()
        members.append(p)
        target = points.next[p]
        if target >= 0:
            stack.append(target)
        elif target == SPLIT:
            stack.extend(points.groups[p])
    return tuple(sorted(members))


def assert_matches_reference(plan):
    """Walk every reachable region the way the old counter did and compare
    its partition with the compiled one; returns how many regions split."""
    points = compute_product_points(plan)
    n = plan.num_vertices
    splits = 0
    # (region, position whose chosen value led into it; None = the root)
    stack = [(tuple(range(n)), None)]
    while stack:
        region, parent = stack.pop()
        expected = sorted(reference_groups(plan, region))
        heads = points.top if parent is None else points.groups.get(parent, ())
        if heads:
            splits += 1
            assert all(points.back[h] == PRODUCT for h in heads)
            got = sorted(region_of(points, h) for h in heads)
        else:
            first = region[0]
            if parent is None:
                assert first == 0 and points.back[0] == DONE
            else:
                assert points.next[parent] == first
                assert points.back[first] == parent
            got = [region_of(points, first)]
        assert got == expected, (region, parent)
        for group in expected:
            if len(group) > 1:
                stack.append((group[1:], group[0]))
            else:
                assert points.next[group[0]] == LEAF
    return splits


@st.composite
def labeled_patterns(draw):
    """A random pattern (possibly disconnected) and a data graph that
    contains it, so every pattern edge has a cluster."""
    n = draw(st.integers(min_value=1, max_value=9))
    num_labels = draw(st.integers(min_value=1, max_value=4))
    labels = [draw(st.integers(0, num_labels - 1)) for _ in range(n)]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    pattern = Graph()
    pattern.add_vertices(labels)
    for a, b in pairs:
        if a != b and not pattern.has_edge(a, b):
            pattern.add_edge(a, b)
    # Data: two copies of the pattern plus a few random extra edges.
    data = Graph()
    data.add_vertices(labels + labels)
    for copy in (0, n):
        for edge in pattern.edges():
            data.add_edge(edge.src + copy, edge.dst + copy)
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, 2 * n - 1), st.integers(0, 2 * n - 1)),
            max_size=n,
        )
    )
    for a, b in extra:
        if a != b and not data.has_edge(a, b):
            data.add_edge(a, b)
    return data, pattern


class TestCompiledPartition:
    @given(
        labeled_patterns(),
        st.sampled_from(VARIANTS),
        st.sampled_from(PLANNERS),
    )
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_old_per_node_partition(self, case, variant, planner):
        data, pattern = case
        plan = plan_query(CSCE(data).store, pattern, variant, planner=planner)
        assert_matches_reference(plan)

    def test_star_splits_at_the_hub(self):
        # Hub 0 with three distinctly labeled leaves: one product point.
        pattern = Graph()
        pattern.add_vertices(["h", "x", "y", "z"])
        for leaf in (1, 2, 3):
            pattern.add_edge(0, leaf)
        data = Graph()
        data.add_vertices(["h", "x", "y", "z"])
        for leaf in (1, 2, 3):
            data.add_edge(0, leaf)
        plan = plan_query(CSCE(data).store, pattern, "edge_induced")
        points = compile_plan(plan).product_points
        assert points.next[0] == SPLIT
        assert points.groups[0] == (1, 2, 3)
        assert points.chain == 1
        assert assert_matches_reference(plan) == 1

    def test_flat_points_are_the_plain_chain(self):
        points = flat_points(4)
        assert points.next == (1, 2, 3, LEAF)
        assert points.back == (DONE, 0, 1, 2)
        assert points.chain == 4 and not points.groups and not points.top

    def test_only_a_fresh_count_factorizes(self):
        data = make_random_graph(20, 40, seed=2)
        physical = compile_plan(
            CSCE(data).build_plan(Graph.from_edges(2, [(0, 1)]), "homomorphic")
        )
        runtime = Runtime(physical, MatchOptions(count_only=True))
        with pytest.raises(ValueError):
            next(search(physical, runtime, emit=True, factorize=True))
        with pytest.raises(ValueError):
            count_capped(
                physical, runtime, SearchState.fresh(2), factorize=True
            )

    def test_streams_never_compute_product_points(self):
        data = make_random_graph(40, 120, num_labels=2, seed=1)
        pattern = Graph.from_edges(3, [(0, 1), (0, 2)])
        physical = compile_plan(CSCE(data).build_plan(pattern, "homomorphic"))
        with EmbeddingStream(physical) as stream:
            next(stream)
        assert "product_points" not in vars(physical)
        counted = execute_physical(physical, MatchOptions(count_only=True))
        assert counted.stats["factorizations"] > 0
        assert "product_points" in vars(physical)

    def test_large_plan_partition_is_fast(self):
        # Fig. 10 sizes: the partition of a 2000-vertex binary-tree plan,
        # which splits at every inner vertex, must not be quadratic. Only
        # the order, DAG and priors matter, so the plan is assembled
        # directly instead of planned against a store.
        import time
        from types import SimpleNamespace

        from repro.core import Variant, build_dag

        n = 2000
        pattern = Graph.from_edges(n, [(i, (i - 1) // 2) for i in range(1, n)])
        order = list(range(n))
        dag = build_dag(pattern, order, Variant.HOMOMORPHIC)
        plan = SimpleNamespace(
            num_vertices=n,
            order=order,
            position={v: v for v in order},
            dag=dag,
            memo_priors=[tuple(sorted(dag.inc[v])) for v in order],
            variant=Variant.HOMOMORPHIC,
            pattern=pattern,
            task_clusters=SimpleNamespace(data_vertex_labels=[]),
        )
        start = time.perf_counter()
        points = compute_product_points(plan)
        assert time.perf_counter() - start < 2.0
        inner = n // 2
        assert len(points.groups) == inner - 1  # the last inner has one child
        assert assert_matches_reference(plan) == inner - 1

# ----------------------------------------------------------------------
# Path equivalence on a workload where every mechanism fires.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workload():
    data = make_random_graph(150, 1200, num_labels=4, seed=11)
    # A chain whose far end carries two leaves of distinct labels, plus a
    # leaf near the root: regions repeat across the chain's mappings.
    pattern = Graph()
    pattern.add_vertices([0, 1, 2, 3, 0, 1])
    for a, b in [(0, 1), (1, 2), (2, 3), (2, 4), (0, 5)]:
        pattern.add_edge(a, b)
    return CSCE(data), pattern


COUNTERS = ("nodes", "backtracks", "prunes_injective")


class TestPathEquivalence:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_path_counts_the_same(self, workload, variant):
        engine, pattern = workload
        default = engine.match(pattern, variant, count_only=True)
        flat = engine.match(
            pattern, variant, count_only=True, max_embeddings=10**12
        )
        with engine.match_iter(pattern, variant) as stream:
            drained = sum(1 for _ in stream)
            streamed = stream.stats
        pooled = engine.match(pattern, variant, count_only=True, workers=2)
        assert default.count == flat.count == drained == pooled.count > 0
        assert default.stop_reason is None and pooled.stop_reason is None
        # The flat count takes every leaf in bulk, the stream scans each
        # candidate: the search tree and its counters are identical.
        for key in COUNTERS:
            assert flat.stats[key] == streamed[key], key

    def test_factorization_memo_and_bulk_all_fire(self, workload):
        engine, pattern = workload
        result = engine.match(pattern, "edge_induced", count_only=True)
        assert result.stats["factorizations"] > 0
        assert result.stats["group_memo_hits"] > 0
        flat = engine.match(
            pattern, "edge_induced", count_only=True, max_embeddings=10**12
        )
        # Bulk leaf counting: far fewer search nodes than embeddings.
        assert flat.stats["nodes"] < flat.count

    @pytest.mark.parametrize("variant", ["edge_induced", "homomorphic"])
    def test_cap_mid_leaf_stops_exactly_and_resumes(self, workload, variant):
        engine, pattern = workload
        total = engine.match(pattern, variant, count_only=True).count
        physical = compile_plan(engine.build_plan(pattern, variant))
        cap = total // 2 + 1
        runtime = Runtime(physical, MatchOptions(count_only=True, max_embeddings=cap))
        state = SearchState.fresh(len(physical.ops))
        assert count_capped(physical, runtime, state) == cap
        assert runtime.stop_reason == "embedding_limit"
        leaf = len(physical.ops) - 1
        # The cap landed inside the last position's candidate scan.
        assert state.pos == leaf and state.values[leaf] is not None
        assert state.index[leaf] <= len(state.values[leaf])
        resumed = Runtime(physical, MatchOptions(count_only=True))
        resumed.emitted = cap
        restored = SearchState.from_payload(state.to_payload())
        assert count_capped(physical, resumed, restored) == total
        assert resumed.stop_reason is None
        # The same cap through the public API agrees with a stream.
        capped = engine.match(pattern, variant, count_only=True, max_embeddings=cap)
        with engine.match_iter(pattern, variant, max_embeddings=cap) as stream:
            assert sum(1 for _ in stream) == capped.count == cap


# ----------------------------------------------------------------------
# The region memo behind the degradation ladder.
# ----------------------------------------------------------------------
class TestRegionMemoGovernance:
    def test_memory_fault_during_factorized_homomorphic_count(self, workload):
        engine, _ = workload
        # A hub with three single-vertex arms of one label: homomorphic
        # counting factorizes at the hub and reuses arm counts.
        pattern = Graph()
        pattern.add_vertices([0, 1, 1, 1])
        for leaf in (1, 2, 3):
            pattern.add_edge(0, leaf)
        reference = engine.match(pattern, "homomorphic", count_only=True)
        assert reference.stats["factorizations"] > 0
        gov = ResourceGovernor(budget=Budget(memory_limit_mb=256.0))
        # Two breaches mid-run: the first evicts half of both memos, the
        # second disables them; the count must not change.
        with FaultInjector(seed=3).on(
            "governor.memory", memory_spike(10_000.0), after=20, times=2
        ):
            result = engine.match(
                pattern, "homomorphic", count_only=True, governor=gov
            )
        assert result.count == reference.count
        assert result.stop_reason is None
        assert result.degradation == ["evict_memo", "disable_memo"]
        assert result.stats["factorizations"] > 0

    def test_ladder_rungs_act_on_region_memo(self):
        from repro.engine import CandidateComputer

        data = make_random_graph(20, 40, seed=2)
        pattern = Graph.from_edges(3, [(0, 1), (0, 2)])
        physical = compile_plan(CSCE(data).build_plan(pattern, "homomorphic"))
        computer = CandidateComputer(physical, memo_limit=3)
        for i in range(5):
            computer.remember_region((i,), i)
        # Bounded by memo_limit: the first three counts are kept.
        assert [computer.region((i,)) for i in range(5)] == [0, 1, 2, None, None]
        assert computer.evict(0.5) == 1  # the oldest region count goes
        assert [computer.region((i,)) for i in range(3)] == [None, 1, 2]
        computer.disable_memo()
        assert computer.region((1,)) is None
        computer.remember_region((9,), 9)
        assert computer.region((9,)) is None
