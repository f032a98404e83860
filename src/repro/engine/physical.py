"""Physical plans: the compiled, directly-executable form of a logical plan.

A :class:`~repro.core.plan.Plan` describes *what* each matching step must
check; this module lowers it once into a tuple of :class:`ExtendOp` step
operators that describe *how* — with everything the hot loop needs resolved
at compile time instead of per search-tree node:

* backward edge constraints become prebound cluster fetchers
  (``cluster.successors`` / ``cluster.predecessors``), so the executor calls
  one function per constraint with no direction branch and no attribute
  lookups;
* vertex-induced negation probes likewise become prebound exclusion-list
  fetchers (the direction arithmetic of
  :meth:`~repro.core.plan.NegationConstraint.exclusion_array` runs once,
  here);
* SCE memo specs are interned to small integer ``spec_id``\\ s — NEC-
  equivalent steps share an id and therefore share cached candidate sets;
* symmetry restrictions are folded into per-step slots evaluated at the
  position where their later endpoint is matched;
* seed pins ride on the op (:meth:`PhysicalPlan.with_seed` rebinding is a
  cheap dataclass replace, so continuous matching reuses one compiled plan
  across every pin of a delta);
* SCE count factorization's *product points* — where the unmatched suffix
  splits into independent regions whose counts multiply — depend only on
  the plan, so :attr:`PhysicalPlan.product_points` computes them once, on
  the first factorized count (streams never pay for them).

Compilation is cheap (linear in plan size) and separated from planning so a
:class:`repro.engine.MatchSession` can cache the result per
``(pattern fingerprint, variant, planner, restrictions, store version)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Hashable

import numpy as np

from repro.ccsr.store import FORWARD
from repro.core.plan import SUCCESSORS, Plan
from repro.core.variants import Variant
from repro.errors import PlanError
from repro.graph.model import Graph


@dataclass(frozen=True)
class ExtendOp:
    """One physical matching step: extend the embedding by one vertex.

    All fields are resolved at compile time; execution only indexes into
    them. ``constraints`` and ``negations`` hold ``(prior, fetch)`` pairs
    where ``fetch(f(prior))`` returns a sorted neighbor array to intersect
    (respectively to exclude). ``restrictions`` holds
    ``(other_vertex, candidate_is_smaller)`` order checks anchored at this
    step. ``pin`` fixes the step to a single data vertex (seeded runs).
    """

    pos: int
    u: int
    spec_id: int
    priors: tuple[int, ...]
    constraints: tuple[tuple[int, Callable[[int], np.ndarray]], ...]
    negations: tuple[tuple[int, Callable[[int], np.ndarray]], ...]
    static_pool: np.ndarray | None
    restrictions: tuple[tuple[int, bool], ...] = ()
    pin: int | None = None


#: :attr:`ProductPoints.next` sentinels: the region ends at this position,
#: or its rest splits into independent groups here.
LEAF = -1
SPLIT = -2
#: :attr:`ProductPoints.back` sentinels: the search is done, or the frame
#: returns into the enclosing product frame.
DONE = -1
PRODUCT = -2

_NO_USED: frozenset = frozenset()


@dataclass(frozen=True)
class ProductPoints:
    """The order in which the search visits plan positions, and where SCE
    counting multiplies.

    A *region* is a set of positions counted as one subproblem; the whole
    plan is the first. Once a value is chosen at position ``p``, the rest
    of ``p``'s region is counted: ``next[p]`` is its first position,
    :data:`LEAF` when the region ends at ``p``, or :data:`SPLIT` when the
    rest falls apart into independent groups — no dependency path in
    ``H`` between them and, under injective variants, no shared vertex
    label (Definition 1's ``C \\ {v_x} = C`` needs disjoint labels). Then
    ``groups[p]`` lists each group's first position and their counts
    multiply: a *product point*. ``top`` does the same for the whole plan
    (an ``H`` with several components). ``back[p]`` is where the exhausted
    frame at ``p`` returns: the previous position of its region,
    :data:`PRODUCT` for a group's first position, or :data:`DONE`.

    A group's count depends only on the images of ``frontier[h]`` (pattern
    vertices outside group ``h`` that its candidates read) and, under
    injectivity, on which used data vertices carry one of ``labels[h]``
    (looked up in the store's ``data_labels``) — together the region memo
    key (:meth:`region_key`).

    Without a split the tables are the flat chain ``0 → 1 → … → n-1``
    (:func:`flat_points`), which is how enumeration always runs.
    """

    next: tuple[int, ...]
    back: tuple[int, ...]
    groups: dict[int, tuple[int, ...]]
    top: tuple[int, ...]
    frontier: dict[int, tuple[int, ...]]
    labels: dict[int, frozenset]
    data_labels: list[Hashable]

    @property
    def chain(self) -> int:
        """How many leading positions form one chain before the first
        product point — the frames the progress probe can read."""
        if self.top:
            return 0
        for p, target in enumerate(self.next):
            if target == SPLIT:
                return p + 1
        return len(self.next)

    def region_key(
        self, head: int, assignment: list[int], used: set[int]
    ) -> tuple:
        """Memo key of group ``head`` under the current partial embedding."""
        images = tuple([assignment[v] for v in self.frontier[head]])
        if not used:
            return (head, images, _NO_USED)
        labels = self.labels[head]
        data_labels = self.data_labels
        return (
            head,
            images,
            frozenset([v for v in used if data_labels[v] in labels]),
        )


def flat_points(n: int) -> ProductPoints:
    """The split-free tables of an ``n``-position plan."""
    return ProductPoints(
        next=(*range(1, n), LEAF) if n else (),
        back=tuple(range(-1, n - 1)),
        groups={},
        top=(),
        frontier={},
        labels={},
        data_labels=[],
    )


def _union(a: set, b: set) -> set:
    """Merge the smaller set into the larger; returns the larger."""
    if len(a) < len(b):
        a, b = b, a
    a |= b
    return a


def compute_product_points(plan: Plan) -> ProductPoints:
    """Compute a plan's regions in one reverse pass over its positions.

    Adding positions ``n-1, …, 0`` to a union-find (joined along ``H``
    edges and prior dependencies, and, under injectivity, shared labels)
    keeps the components of every suffix. The region of ``p`` is ``p``'s
    component once ``p`` is added; the parts ``p`` joins are exactly the
    groups its rest splits into. Frontiers and label sets merge
    smaller-into-larger and are copied out only at product points, so a
    2000-vertex plan stays near-linear.
    """
    n = plan.num_vertices
    order = plan.order
    position = plan.position
    dag = plan.dag
    priors = plan.memo_priors
    injective = plan.variant.injective
    label_of = [plan.pattern.vertex_label(u) for u in order]
    # Dependents of each position: the later positions joined with it by
    # an ``H`` edge (``H`` follows the order, so its out-edges point
    # later) or by reading it as a prior.
    joined: list[set[int]] = [{position[w] for w in dag.out[u]} for u in order]
    for p in range(n):
        for w in priors[p]:
            joined[position[w]].add(p)
    parent = list(range(n))
    # Per component root: prior vertices outside it, and its labels.
    open_priors: dict[int, set[int]] = {}
    label_sets: dict[int, set[Hashable]] = {}
    latest: dict[Hashable, int] = {}
    nxt = [LEAF] * n
    back = [DONE] * n
    groups: dict[int, tuple[int, ...]] = {}
    frontier: dict[int, tuple[int, ...]] = {}
    labels: dict[int, frozenset] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def seal(heads: tuple[int, ...]) -> None:
        for h in heads:
            back[h] = PRODUCT
            frontier[h] = tuple(sorted(open_priors[h]))
            labels[h] = frozenset(label_sets[h])

    for p in range(n - 1, -1, -1):
        parts = {find(q) for q in joined[p]}
        if injective:
            same = latest.get(label_of[p])
            if same is not None:
                parts.add(find(same))
            latest[label_of[p]] = p
        heads = tuple(sorted(parts))
        if len(heads) == 1:
            nxt[p] = heads[0]
            back[heads[0]] = p
        elif heads:
            nxt[p] = SPLIT
            groups[p] = heads
            seal(heads)
        # Union every part under p (the new component's first position).
        merged_priors: set[int] = set()
        merged_labels: set[Hashable] = set()
        for h in heads:
            parent[h] = p
            merged_priors = _union(merged_priors, open_priors.pop(h))
            merged_labels = _union(merged_labels, label_sets.pop(h))
        merged_priors.update(priors[p])
        merged_priors.discard(order[p])
        merged_labels.add(label_of[p])
        open_priors[p] = merged_priors
        label_sets[p] = merged_labels
    top = tuple(sorted(p for p in range(n) if parent[p] == p))
    if len(top) > 1:
        seal(top)
    else:
        top = ()
    return ProductPoints(
        next=tuple(nxt),
        back=tuple(back),
        groups=groups,
        top=top,
        frontier=frontier,
        labels=labels,
        data_labels=plan.task_clusters.data_vertex_labels,
    )


@dataclass(frozen=True)
class PhysicalPlan:
    """A compiled plan: one :class:`ExtendOp` per order position.

    Holds a reference to the logical plan it was lowered from (for the
    variant, the dependency DAG behind :attr:`product_points`, and the
    EXPLAIN metadata). Immutable; per-run state lives in the executor.
    """

    logical: Plan
    ops: tuple[ExtendOp, ...]
    restrictions: tuple[tuple[int, int], ...]
    num_specs: int
    compile_seconds: float

    @property
    def num_vertices(self) -> int:
        return len(self.ops)

    @property
    def order(self) -> list[int]:
        return self.logical.order

    @property
    def variant(self) -> Variant:
        return self.logical.variant

    @property
    def injective(self) -> bool:
        return self.logical.variant.injective

    @property
    def has_pins(self) -> bool:
        return any(op.pin is not None for op in self.ops)

    @cached_property
    def product_points(self) -> ProductPoints:
        """Where factorized counting multiplies (:class:`ProductPoints`),
        computed on the first factorized count and kept with the plan."""
        return compute_product_points(self.logical)

    def impossible(self) -> bool:
        """True when a pattern edge has no cluster: zero embeddings."""
        return self.logical.impossible()

    def with_seed(self, seed: dict[int, int] | None) -> PhysicalPlan:
        """A copy whose pins are exactly ``seed`` (others cleared).

        This is the continuous-matching fast path: one compiled plan is
        rebound per pin instead of recompiled, so only the two pinned ops
        are replaced.
        """
        pinned = dict(seed) if seed else {}
        ops = tuple(
            replace(op, pin=pinned.get(op.u))
            if op.u in pinned or op.pin is not None
            else op
            for op in self.ops
        )
        return replace(self, ops=ops)

    def step_table(self) -> list[dict[str, Any]]:
        """Per-op summary rows for EXPLAIN output and the profiler."""
        return [
            {
                "position": op.pos,
                "vertex": op.u,
                "spec": op.spec_id,
                "constraints": len(op.constraints),
                "negations": len(op.negations),
                "static_pool": (
                    None if op.static_pool is None else int(len(op.static_pool))
                ),
                "restrictions": len(op.restrictions),
                "pinned": op.pin is not None,
            }
            for op in self.ops
        ]

    def __repr__(self) -> str:
        return (
            f"<PhysicalPlan {len(self.ops)} ops"
            f" specs={self.num_specs} variant={self.logical.variant}>"
        )


def pattern_fingerprint(pattern: Graph) -> tuple:
    """A hashable structural identity for plan-cache keys.

    Two patterns with the same fingerprint produce the same plan against
    the same store (labels and canonical edge set match exactly; this is
    structural identity, not isomorphism).
    """
    return pattern.fingerprint()


def compile_plan(
    plan: Plan,
    restrictions: tuple[tuple[int, int], ...] | None = None,
    seed: dict[int, int] | None = None,
) -> PhysicalPlan:
    """Lower a logical plan into its physical operators.

    ``restrictions`` are baked into per-step slots (each pair checked at
    the position where its later endpoint is matched); ``seed`` pins ride
    on the ops and can be rebound later with
    :meth:`PhysicalPlan.with_seed`.
    """
    start = time.perf_counter()
    n = plan.num_vertices
    position = plan.position
    restrictions = tuple(restrictions) if restrictions else ()
    restriction_at: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    for u, v in restrictions:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise PlanError(
                f"restriction ({u}, {v}) does not name two distinct"
                f" pattern vertices of a {n}-vertex pattern"
            )
        if position[u] > position[v]:
            restriction_at[position[u]].append((v, True))
        else:
            restriction_at[position[v]].append((u, False))
    pinned = dict(seed) if seed else {}

    # Intern each distinct memo spec as a small int: NEC-equivalent
    # positions share the same id, and hashing an int beats re-hashing the
    # nested spec tuple on every candidate lookup.
    spec_ids: dict[tuple, int] = {}
    ops: list[ExtendOp] = []
    for pos in range(n):
        u = plan.order[pos]
        constraints = tuple(
            (
                c.prior,
                c.cluster.successors
                if c.direction == SUCCESSORS
                else c.cluster.predecessors,
            )
            for c in plan.backward[pos]
        )
        negations = []
        for negation in plan.negations[pos]:
            # Same direction arithmetic as NegationConstraint.exclusion_array,
            # evaluated once here instead of per probe.
            use_successors = (negation.check.mode == FORWARD) != negation.swap
            cluster = negation.check.cluster
            negations.append(
                (
                    negation.prior,
                    cluster.successors if use_successors else cluster.predecessors,
                )
            )
        ops.append(
            ExtendOp(
                pos=pos,
                u=u,
                spec_id=spec_ids.setdefault(plan.memo_specs[pos], len(spec_ids)),
                priors=plan.memo_priors[pos],
                constraints=constraints,
                negations=tuple(negations),
                static_pool=plan.first_candidates[pos],
                restrictions=tuple(restriction_at[pos]),
                pin=pinned.get(u),
            )
        )
    return PhysicalPlan(
        logical=plan,
        ops=tuple(ops),
        restrictions=restrictions,
        num_specs=len(spec_ids),
        compile_seconds=time.perf_counter() - start,
    )
