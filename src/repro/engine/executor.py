"""The iterative physical-plan executor (Section III, green stage).

Embeddings grow one vertex at a time following the compiled op sequence;
each step intersects cluster neighbor lists (worst-case-optimal-join style)
through :class:`~repro.engine.candidates.CandidateComputer`. The search is
driven by an explicit per-depth frame stack — no Python recursion — which
buys four things the old recursive interpreter could not offer:

* **streaming**: :func:`search` is a plain generator over the frame stack,
  so :class:`EmbeddingStream` (behind ``CSCE.match_iter``) yields
  embeddings lazily, one ``next()`` at a time, with the search suspended
  in between;
* **cooperative limits**: deadlines, embedding caps, memory budgets and
  cancellation set ``stop_reason`` on the :class:`Runtime` and end the
  loop — no control-flow exceptions, and a partially-consumed stream is
  always in a consistent state;
* **checkpointing**: the frame stack lives in a :class:`SearchState` whose
  contents serialize to a resumable checkpoint
  (:mod:`repro.engine.checkpoint`) — suspend on one process, resume on
  another;
* **no recursion-limit games**: a 2000-vertex pattern (the paper's largest)
  needs 2000 stack frames under recursion; here it needs three parallel
  arrays of length 2000.

One loop, :func:`search`, serves every mode: it yields embeddings in emit
mode and counts them in count mode, where a region's last position is
counted in bulk and, when the run allows it, independent regions multiply
at the plan's compile-time product points (SCE count factorization,
:class:`~repro.engine.physical.ProductPoints`). Resource governance
(budgets, the degradation ladder, cancel tokens) is polled at tick
boundaries via :class:`repro.engine.governor.ResourceGovernor`; the
``engine.tick`` fault site fires at the same cadence for the chaos suite.
"""

from __future__ import annotations

import logging
import time
from dataclasses import replace

import numpy as np

from typing import TYPE_CHECKING, Iterator

from repro.engine.candidates import CandidateComputer
from repro.engine.physical import (
    DONE,
    LEAF,
    PRODUCT,
    PhysicalPlan,
    ProductPoints,
    compile_plan,
    flat_points,
)
from repro.engine.results import (
    MatchOptions,
    MatchResult,
    STOP_EMBEDDING_LIMIT,
    STOP_TIME_LIMIT,
)
from repro.obs import (
    NULL_OBS,
    NULL_RECORDER,
    ProgressEstimator,
    search_state_fraction,
    unified_stats,
)
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.engine.checkpoint import CheckpointSink

logger = logging.getLogger(__name__)

_TIME_CHECK_INTERVAL = 2048


def _contains_sorted(array: np.ndarray, value: int) -> bool:
    """Membership test in a sorted candidate array (binary search)."""
    idx = int(np.searchsorted(array, value))
    return idx < array.shape[0] and int(array[idx]) == value


def _satisfies(
    candidate: int,
    assignment: list[int],
    restrictions: tuple[tuple[int, bool], ...],
) -> bool:
    """Check the ``f(u) < f(v)`` restrictions anchored at this op."""
    for other, candidate_is_smaller in restrictions:
        image = assignment[other]
        if candidate_is_smaller:
            if candidate >= image:
                return False
        elif candidate <= image:
            return False
    return True


def specialize(physical: PhysicalPlan, options: MatchOptions) -> PhysicalPlan:
    """Bind per-run restrictions/seed into the physical plan when they
    differ from what was compiled in.

    Lets one cached plan serve runs with varying seeds (cheap pin rebind)
    and keeps ``execute_physical(compile_plan(plan), options)`` faithful to
    the options even when the caller compiled without them.
    """
    restrictions = tuple(options.restrictions) if options.restrictions else ()
    if restrictions != physical.restrictions:
        physical = compile_plan(physical.logical, restrictions=restrictions)
    if options.seed:
        physical = physical.with_seed(options.seed)
    return physical


class SearchState:
    """The enumeration frame stack, extracted so it can be checkpointed.

    Everything :func:`search` mutates between two yields lives here: the
    partial ``assignment`` (pattern vertex → data vertex, ``-1`` unbound),
    the injectivity ``used`` set, the per-depth candidate lists ``values``
    (``None`` = depth not yet entered), scan cursors ``index``, backtrack
    watermarks ``emitted_at``, and the current depth ``pos``. The generator
    keeps ``state.pos`` current at every suspension point (yield, stop,
    close), so a snapshot taken between ``next()`` calls is always
    resumable.
    """

    __slots__ = ("assignment", "used", "values", "index", "emitted_at", "pos")

    def __init__(
        self,
        assignment: list[int],
        used: set[int],
        values: list[list | None],
        index: list[int],
        emitted_at: list[int],
        pos: int,
    ) -> None:
        self.assignment = assignment
        self.used = used
        self.values = values
        self.index = index
        self.emitted_at = emitted_at
        self.pos = pos

    @classmethod
    def fresh(cls, n: int) -> "SearchState":
        return cls([-1] * n, set(), [None] * n, [0] * n, [0] * n, 0)

    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (candidate lists included, so a
        mid-scan frame resumes at the exact cursor position)."""
        return {
            "assignment": list(self.assignment),
            "used": sorted(self.used),
            "values": [None if v is None else list(v) for v in self.values],
            "index": list(self.index),
            "emitted_at": list(self.emitted_at),
            "pos": self.pos,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SearchState":
        return cls(
            [int(x) for x in payload["assignment"]],
            {int(x) for x in payload["used"]},
            [
                None if v is None else [int(x) for x in v]
                for v in payload["values"]
            ],
            [int(x) for x in payload["index"]],
            [int(x) for x in payload["emitted_at"]],
            int(payload["pos"]),
        )


class Runtime:
    """Mutable per-run execution state: counters, limits, instruments.

    Shared by every mode of :func:`search`, so streams, flat counts and
    factorized counts report identical
    :data:`~repro.obs.counters.STAT_KEYS` semantics. When
    a :class:`~repro.engine.governor.ResourceGovernor` is attached, its
    budget folds into the deadline/cap (tightest wins) and its
    memory/cancellation checks run at tick boundaries; ``degradation`` and
    ``gov_stage`` record the ladder's progress.
    """

    __slots__ = (
        "options",
        "computer",
        "profile",
        "governor",
        "nodes",
        "emitted",
        "backtracks",
        "prunes_injective",
        "prunes_restriction",
        "factorizations",
        "group_memo_hits",
        "stop_reason",
        "degradation",
        "gov_stage",
        "max_embeddings",
        "progress",
        "search_state",
        "chain",
        "deadline",
        "_heartbeat",
        "_recorder",
        "_ticking",
        "_interval",
    )

    def __init__(self, physical: PhysicalPlan, options: MatchOptions) -> None:
        self.options = options
        obs = options.obs or NULL_OBS
        profiler = getattr(obs, "profile", None)
        # None when profiling is off: the hot loops pay one is-None branch.
        self.profile = (
            profiler.search if profiler is not None and profiler.enabled else None
        )
        self.computer = CandidateComputer(
            physical,
            use_sce=options.use_sce,
            memo_limit=options.memo_limit,
            profile=self.profile,
        )
        self.nodes = 0
        self.emitted = 0
        self.backtracks = 0
        self.prunes_injective = 0
        self.prunes_restriction = 0
        self.factorizations = 0
        self.group_memo_hits = 0
        self.stop_reason: str | None = None
        self.degradation: list[str] = []
        self.gov_stage = 0
        gov = options.governor
        self.governor = gov
        if gov is not None:
            gov.ensure_tracing()
            self.max_embeddings = gov.effective_cap(options.max_embeddings)
            self.deadline = gov.effective_deadline(options.time_limit)
        else:
            self.max_embeddings = options.max_embeddings
            self.deadline = (
                time.perf_counter() + options.time_limit
                if options.time_limit is not None
                else None
            )
        self._heartbeat = obs.heartbeat
        self._recorder = getattr(obs, "recorder", NULL_RECORDER)
        # Progress estimation exists exactly when an observation is
        # attached; the estimator registers on the observation so
        # heartbeats, the metrics pump, and run-reports read one object.
        if obs.enabled:
            self.progress: ProgressEstimator | None = ProgressEstimator()
            obs.attach_progress(self.progress)
        else:
            self.progress = None
        #: The live frame stack, published by search() so the tick-time
        #: progress probe can read the candidate cursors — of the first
        #: ``chain`` positions, the ones before any product point.
        self.search_state: SearchState | None = None
        self.chain = 0
        # Under fault injection every tick must reach the fault site, so
        # the periodic work runs densely; in production it is amortized.
        self._interval = 1 if faults.active() else _TIME_CHECK_INTERVAL
        # One flag guards the periodic work: without a deadline, governor,
        # injector, live heartbeat, recorder, or progress estimator, tick
        # never computes the modulo.
        self._ticking = (
            self.deadline is not None
            or self._heartbeat.enabled
            or gov is not None
            or self._recorder.enabled
            or self.progress is not None
            or self._interval == 1
        )

    def preflight(self) -> bool:
        """Governance check before the first frame step, so a token that
        was tripped before (or between) runs stops even searches too small
        to reach a tick boundary. False means: do not start."""
        gov = self.governor
        if gov is None:
            return True
        reason = gov.check(self)
        if reason is not None:
            self.stop_reason = reason
            self.note_stop(reason)
            return False
        return True

    def note_stop(self, reason: str, depth: int = 0) -> None:
        """Record a cooperative stop in the flight recorder (no-op when
        the recorder is off) — one place, so every stop path leaves the
        same tail event."""
        if self._recorder.enabled:
            self._recorder.record(
                "stop",
                reason=reason,
                nodes=self.nodes,
                emitted=self.emitted,
                depth=depth,
            )

    def tick(self, depth: int = 0, phase: str = "enumerate") -> bool:
        """Account one search-tree node; False once a limit fired (the
        deadline passed, the governor's budget breached and the ladder
        bottomed out, or the cancel token tripped). Sets ``stop_reason``
        before returning False."""
        self.nodes += 1
        if self._ticking and self.nodes % self._interval == 0:
            if self.search_state is not None:
                # search() keeps `pos` in a local for speed and only syncs
                # it at suspension points; sync it here too so anything
                # sampled at a tick (the progress probe, an on-demand
                # checkpoint from the inspector) sees a consistent state.
                self.search_state.pos = depth
            recorder = self._recorder
            if faults.ACTIVE is not None:
                # Record before firing so an action that raises still
                # leaves its mark in the ring buffer.
                if recorder.enabled:
                    recorder.record(
                        "fault", site="engine.tick", depth=depth,
                        phase=phase, nodes=self.nodes,
                    )
                faults.fire(
                    "engine.tick", depth=depth, phase=phase, nodes=self.nodes
                )
            progress = self.progress
            if progress is not None and self.search_state is not None:
                state = self.search_state
                chain = self.chain
                progress.update(
                    search_state_fraction(
                        state.values[:chain], state.index[:chain]
                    )
                )
            if self._heartbeat.enabled:
                self._heartbeat.beat(
                    self.nodes, self.emitted, depth, phase=phase,
                    progress=progress,
                )
            if recorder.enabled:
                recorder.record(
                    "tick", nodes=self.nodes, emitted=self.emitted,
                    depth=depth, phase=phase,
                )
            reason = self.check_limits()
            if reason is not None:
                self.stop_reason = reason
                self.note_stop(reason, depth)
                return False
        return True

    def check_limits(self) -> str | None:
        """The limits polled at every tick boundary: the governor's check
        (cancel token, tightened budget, memory ladder), then the
        deadline. Returns the stop reason, or ``None`` to go on. The
        pool's parent loop polls its own Runtime through this too."""
        gov = self.governor
        if gov is not None:
            reason = gov.check(self)
            if reason is not None:
                return reason
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return STOP_TIME_LIMIT
        return None

    def release(self) -> None:
        """Return governor-owned resources (tracemalloc) after the run."""
        if self.governor is not None:
            self.governor.release()

    def stats(self) -> dict:
        """The unified stats snapshot (all :data:`STAT_KEYS`)."""
        return unified_stats(
            nodes=self.nodes,
            candidate_stats=self.computer.stats,
            backtracks=self.backtracks,
            prunes_injective=self.prunes_injective,
            prunes_restriction=self.prunes_restriction,
            factorizations=self.factorizations,
            group_memo_hits=self.group_memo_hits,
        )

    def progress_snapshot(self, complete: bool = False) -> dict | None:
        """The progress block for results/reports, or ``None`` when no
        estimator is attached. ``complete=True`` pins the estimate to
        100% first (the search ran to exhaustion)."""
        if self.progress is None:
            return None
        if complete and self.stop_reason is None:
            self.progress.complete()
        return self.progress.as_dict()


class _Product:
    """One live product point: the counts of its groups multiply.

    ``base`` is the running count when the product was entered; each
    group is searched from there and rewound after, so ``emitted`` stays
    one additive counter for every frame outside the product."""

    __slots__ = ("ret", "base", "acc", "heads", "next", "key", "searching")

    def __init__(self, ret: int, base: int, heads: tuple[int, ...]) -> None:
        self.ret = ret
        self.base = base
        self.acc = 1
        self.heads = heads
        self.next = 0
        self.key: tuple | None = None
        self.searching = False


def _advance_product(
    products: list[_Product],
    runtime: Runtime,
    state: SearchState,
    points: ProductPoints,
) -> int:
    """Step the innermost product: fold in the group just searched, take
    memoized groups, and return the next group's first position — or,
    once every group is counted (or one counted zero), commit the product
    to ``emitted`` and return the position that resumes scanning."""
    frame = products[-1]
    computer = runtime.computer
    if frame.searching:
        count = runtime.emitted - frame.base
        runtime.emitted = frame.base
        computer.remember_region(frame.key, count)
        frame.acc *= count
        frame.searching = False
    heads = frame.heads
    while frame.acc and frame.next < len(heads):
        head = heads[frame.next]
        frame.next += 1
        key = (
            points.region_key(head, state.assignment, state.used)
            if computer.use_sce
            else None
        )
        cached = computer.region(key)
        if cached is None:
            frame.key = key
            frame.searching = True
            return head
        runtime.group_memo_hits += 1
        frame.acc *= cached
    products.pop()
    runtime.emitted = frame.base + frame.acc
    return frame.ret


def search(
    physical: PhysicalPlan,
    runtime: Runtime,
    state: SearchState | None = None,
    emit: bool = True,
    factorize: bool = False,
) -> Iterator[tuple[int, ...]]:
    """The search loop, in emit or count mode.

    Emit mode yields each embedding as a tuple indexed by pattern vertex.
    Count mode yields nothing and leaves the count in ``runtime.emitted``;
    it counts a region's last position in bulk, ``len(vals) - |used ∩
    vals|``, unless the op has restrictions or a pin or the remaining cap
    could end mid-leaf. With ``factorize`` (count mode only, see
    :func:`factorizable`) it also multiplies independent regions at the
    plan's :attr:`~repro.engine.physical.PhysicalPlan.product_points`,
    memoizing each region's count. Otherwise the search walks the flat
    chain of positions, so its :class:`SearchState` is checkpointable and
    splittable at every tick. Cooperative: on a limit, sets
    ``runtime.stop_reason`` and returns; pass a restored state to resume a
    flat search mid-frame.
    """
    if factorize and (emit or state is not None):
        # Products exist only in count mode, and their frames are not part
        # of the checkpointable state.
        raise ValueError("only a fresh count can factorize")
    if physical.impossible():
        return
    ops = physical.ops
    n = len(ops)
    if not runtime.preflight():
        return
    if n == 0:
        runtime.emitted += 1
        if emit:
            yield ()
        return
    if state is None:
        state = SearchState.fresh(n)
    points = physical.product_points if factorize else flat_points(n)
    # Publish the frame stack for the tick-time progress probe (the probe
    # reads the same list objects the loop mutates below).
    runtime.search_state = state
    runtime.chain = points.chain
    # Hot path: everything the loop touches is bound to locals.
    raw = runtime.computer.raw
    injective = physical.injective
    max_embeddings = runtime.max_embeddings
    profile = runtime.profile
    phase = "enumerate" if emit else "count"
    nxt = points.next
    back = points.back
    bulk = [
        not emit and nxt[op.pos] == LEAF and not op.restrictions and op.pin is None
        for op in ops
    ]
    assignment = state.assignment
    used = state.used
    add, discard = used.add, used.discard
    # Per-depth frames: the candidate list, the scan cursor, and the
    # emitted-count watermark for backtrack accounting.
    values = state.values
    index = state.index
    emitted_at = state.emitted_at
    pos = state.pos
    products: list[_Product] = []
    if points.top:
        runtime.factorizations += 1
        products.append(_Product(DONE, runtime.emitted, points.top))
        pos = _advance_product(products, runtime, state, points)
    try:
        while pos >= 0:
            op = ops[pos]
            vals = values[pos]
            if vals is None:
                # Entering this depth fresh: one tick per expansion, exactly
                # like one recursive extend() call.
                if not runtime.tick(pos, phase):
                    return
                candidates = raw(op, assignment)
                if profile is not None:
                    profile.visit(pos, candidates.shape[0])
                if bulk[pos] and (
                    max_embeddings is None
                    or max_embeddings - runtime.emitted > candidates.shape[0]
                ):
                    # A region's last position: count every candidate at
                    # once, with the same prune/backtrack accounting as
                    # the per-candidate scan below.
                    found = candidates.shape[0]
                    if injective and used:
                        clashes = len(used.intersection(candidates.tolist()))
                        runtime.prunes_injective += clashes
                        found -= clashes
                    if found:
                        runtime.emitted += found
                    else:
                        runtime.backtracks += 1
                        if profile is not None:
                            profile.backtrack(pos)
                    pos = back[pos]
                    if pos == PRODUCT:
                        pos = _advance_product(products, runtime, state, points)
                    continue
                pin = op.pin
                if pin is not None:
                    vals = [pin] if _contains_sorted(candidates, pin) else []
                else:
                    vals = candidates.tolist()
                values[pos] = vals
                index[pos] = 0
                emitted_at[pos] = runtime.emitted
            u = op.u
            # Unassign the value the previous iteration consumed at this depth
            # (returning from a child, or continuing after a leaf emission).
            if assignment[u] != -1:
                if injective:
                    discard(assignment[u])
                assignment[u] = -1
            i = index[pos]
            restrictions = op.restrictions
            chosen = -1
            while i < len(vals):
                v = vals[i]
                i += 1
                if injective and v in used:
                    runtime.prunes_injective += 1
                    continue
                if restrictions and not _satisfies(v, assignment, restrictions):
                    runtime.prunes_restriction += 1
                    continue
                chosen = v
                break
            index[pos] = i
            if chosen < 0:
                if runtime.emitted == emitted_at[pos]:
                    runtime.backtracks += 1
                    if profile is not None:
                        profile.backtrack(pos)
                values[pos] = None
                pos = back[pos]
                if pos == PRODUCT:
                    pos = _advance_product(products, runtime, state, points)
                continue
            assignment[u] = chosen
            if injective:
                add(chosen)
            target = nxt[pos]
            if target >= 0:
                pos = target
                continue
            if target == LEAF:
                runtime.emitted += 1
                if emit:
                    state.pos = pos
                    yield tuple(assignment)
                if max_embeddings is not None and runtime.emitted >= max_embeddings:
                    runtime.stop_reason = STOP_EMBEDDING_LIMIT
                    runtime.note_stop(STOP_EMBEDDING_LIMIT, pos)
                    return
                continue
            # A product point: the rest splits into independent groups.
            runtime.factorizations += 1
            products.append(_Product(pos, runtime.emitted, points.groups[pos]))
            pos = _advance_product(products, runtime, state, points)
    finally:
        # Keep the checkpointable state current on every exit path: limit
        # stops, exhaustion (pos == -1), and generator close().
        state.pos = pos
        if products:
            # Stopped inside a product: keep only the count committed
            # before it, which never overcounts.
            runtime.emitted = products[0].base


def stream(
    physical: PhysicalPlan, runtime: Runtime, state: SearchState | None = None
) -> Iterator[tuple[int, ...]]:
    """Iteratively enumerate embeddings (:func:`search` in emit mode)."""
    return search(physical, runtime, state)


def count_capped(
    physical: PhysicalPlan,
    runtime: Runtime,
    state: SearchState | None = None,
    factorize: bool = False,
) -> int:
    """Count embeddings (:func:`search` in count mode); returns
    ``runtime.emitted``.

    ``factorize`` multiplies independent regions at the plan's product
    points; it needs an uncapped, unrestricted, unseeded run
    (:func:`factorizable`). Without it the count runs on the flat chain:
    the path pool workers use to execute a portable
    :mod:`~repro.engine.workunit` payload, since the state's ``pos`` is
    kept current on every exit and a stopped count is itself
    re-shardable.
    """
    for _ in search(physical, runtime, state, emit=False, factorize=factorize):
        pass
    return runtime.emitted


def factorizable(physical: PhysicalPlan, runtime: Runtime) -> bool:
    """Whether a count may multiply independent regions. A cap needs
    results counted one by one up to it (the 1e5-cap convention of
    existing works), and restrictions or pins couple the regions."""
    return (
        runtime.computer.use_sce
        and runtime.max_embeddings is None
        and not physical.restrictions
        and not physical.has_pins
    )


class EmbeddingStream:
    """A lazy, resumable iterator of embeddings (``CSCE.match_iter``).

    Yields ``{pattern vertex: data vertex}`` dicts one at a time; the
    search is suspended between ``next()`` calls, so consuming three
    embeddings of a billion-result query does three embeddings of work.
    Progress counters (``count``, ``stats``) and ``stop_reason`` (with the
    ``truncated``/``timed_out`` flags derived from it) are readable at any
    point, also mid-iteration. ``close()`` (or exiting a ``with``
    block) abandons the remaining search.

    ``state``/``emitted`` restore a checkpointed search
    (:func:`repro.engine.checkpoint.load_checkpoint` →
    ``CSCE.resume``); ``checkpoint_sink`` is an object with a
    ``write(stream)`` method called automatically when the stream stops
    early with a resumable ``stop_reason`` (the auto-checkpoint-on-suspend
    behavior of ``CSCE.match_iter(..., checkpoint_path=...)``).

    Streams do not fold their stats into an Observation's counter registry
    (the run has no natural end); read ``.stats`` or ``.result()`` instead.
    Heartbeats and per-depth profiling stay live while iterating.
    """

    def __init__(
        self,
        physical: PhysicalPlan,
        options: MatchOptions | None = None,
        state: SearchState | None = None,
        emitted: int = 0,
        checkpoint_sink: CheckpointSink | None = None,
    ) -> None:
        options = options or MatchOptions()
        physical = specialize(physical, options)
        self.physical = physical
        self.options = options
        self.runtime = Runtime(physical, options)
        self.runtime.emitted = emitted
        self.state = state or SearchState.fresh(len(physical.ops))
        self.checkpoint_sink = checkpoint_sink
        self._gen = stream(physical, self.runtime, self.state)
        self._n = physical.num_vertices
        self._finished = False
        self._started = time.perf_counter()
        recorder = self.runtime._recorder
        if recorder.enabled:
            recorder.record(
                "run_start", mode="stream", ops=len(physical.ops)
            )

    def __iter__(self) -> "EmbeddingStream":
        return self

    def __next__(self) -> dict[int, int]:
        try:
            tup = next(self._gen)
        except StopIteration:
            self._finish()
            raise
        return {u: tup[u] for u in range(self._n)}

    def __enter__(self) -> "EmbeddingStream":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _finish(self) -> None:
        """End-of-stream housekeeping: release governor resources, then
        auto-checkpoint if the run suspended and a sink is attached."""
        if self._finished:
            return
        self._finished = True
        self.runtime.release()
        recorder = self.runtime._recorder
        if self.checkpoint_sink is not None and self.stop_reason is not None:
            self.checkpoint_sink.write(self)
            if recorder.enabled:
                recorder.record(
                    "checkpoint",
                    path=str(getattr(self.checkpoint_sink, "path", "")),
                    emitted=self.runtime.emitted,
                )
        if self.runtime.progress is not None and self.stop_reason is None:
            self.runtime.progress.complete()
        if recorder.enabled:
            recorder.record(
                "run_end",
                mode="stream",
                emitted=self.runtime.emitted,
                stop_reason=self.stop_reason,
            )

    def close(self) -> None:
        """Abandon the remaining search; counters keep their last state."""
        self._gen.close()
        if not self._finished:
            self._finished = True
            self.runtime.release()

    @property
    def count(self) -> int:
        """Embeddings yielded so far (including any checkpointed prefix)."""
        return self.runtime.emitted

    @property
    def truncated(self) -> bool:
        return self.runtime.stop_reason == STOP_EMBEDDING_LIMIT

    @property
    def timed_out(self) -> bool:
        return self.runtime.stop_reason == STOP_TIME_LIMIT

    @property
    def stop_reason(self) -> str | None:
        """Why the stream stopped early, or ``None`` (still running or
        ran to exhaustion)."""
        return self.runtime.stop_reason

    @property
    def stats(self) -> dict:
        """Unified stats snapshot of the search so far."""
        return self.runtime.stats()

    def result(self) -> MatchResult:
        """A :class:`MatchResult` snapshot of the stream's progress.

        ``elapsed`` is wall time since the stream was opened (it includes
        the consumer's time between ``next()`` calls); embeddings are not
        re-materialized.
        """
        plan = self.physical.logical
        return MatchResult(
            count=self.runtime.emitted,
            variant=plan.variant,
            embeddings=None,
            elapsed=time.perf_counter() - self._started,
            read_seconds=plan.task_clusters.read_seconds,
            plan_seconds=max(0.0, plan.plan_seconds),
            compile_seconds=self.physical.compile_seconds,
            stop_reason=self.runtime.stop_reason,
            degradation=list(self.runtime.degradation),
            progress=self.runtime.progress_snapshot(),
            stats=self.runtime.stats(),
        )


def execute_physical(
    physical: PhysicalPlan,
    options: MatchOptions | None = None,
    units: list[dict] | None = None,
    emitted: int = 0,
) -> MatchResult:
    """Run a compiled plan to completion and package the result.

    Every run drives :func:`search`: enumeration in emit mode, counting in
    count mode, multiplying at the plan's product points when
    :func:`factorizable` (uncapped, unrestricted, unseeded). Limits
    surface as ``stop_reason`` with the partial count, never as
    exceptions.

    ``units`` (count mode) replaces the fresh search with a list of
    portable :class:`SearchState` payloads — pool work units or replayed
    checkpoint states — counted one after another on one runtime, so the
    cap, deadline and governor span them all; the loop stops at the first
    ``stop_reason``. ``emitted`` is progress already confirmed elsewhere
    (a resumed checkpoint's): the cap applies to the folded total, and
    ``count`` includes it.
    """
    options = options or MatchOptions()
    if options.workers > 1:
        # Parallel counting: shard the search into portable work units and
        # merge the workers' exact counts. The pool re-enters this function
        # per-unit with workers=1 inside each worker process.
        from repro.engine.pool import execute_parallel

        return execute_parallel(specialize(physical, options), options)
    obs = options.obs or NULL_OBS
    physical = specialize(physical, options)
    plan = physical.logical
    start = time.perf_counter()
    embeddings: list[dict[int, int]] | None = None

    recorder = getattr(obs, "recorder", NULL_RECORDER)
    if recorder.enabled:
        recorder.record(
            "run_start",
            mode="count" if options.count_only else "enumerate",
            variant=plan.variant.value,
            ops=len(physical.ops),
        )

    gov = options.governor
    try:
        runtime = Runtime(physical, options)
        runtime.emitted = emitted
        with obs.tracer.span(
            "execute",
            mode="count" if options.count_only else "enumerate",
            variant=plan.variant.value,
        ) as span:
            if options.count_only and units is not None:
                for payload in units:
                    count_capped(
                        physical, runtime, SearchState.from_payload(payload)
                    )
                    if runtime.stop_reason is not None:
                        break
                count = runtime.emitted
            elif options.count_only:
                count = count_capped(
                    physical,
                    runtime,
                    factorize=factorizable(physical, runtime),
                )
            else:
                collected: list[dict[int, int]] = []
                n = physical.num_vertices
                for tup in stream(physical, runtime):
                    collected.append({u: tup[u] for u in range(n)})
                count = runtime.emitted
                embeddings = collected
            span.set("count", count)
            span.set("nodes", runtime.nodes)
        stats = runtime.stats()
        progress = runtime.progress_snapshot(complete=True)
    finally:
        if gov is not None:
            gov.release()

    if recorder.enabled:
        recorder.record(
            "run_end",
            count=count,
            nodes=stats.get("nodes", 0),
            stop_reason=runtime.stop_reason,
        )
    if obs.enabled:
        obs.counters.merge(stats)
    result = MatchResult(
        count=count,
        variant=plan.variant,
        embeddings=embeddings,
        elapsed=time.perf_counter() - start,
        read_seconds=plan.task_clusters.read_seconds,
        plan_seconds=max(0.0, plan.plan_seconds),
        compile_seconds=physical.compile_seconds,
        stop_reason=runtime.stop_reason,
        degradation=list(runtime.degradation),
        progress=progress,
        stats=stats,
    )
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "executed %s: count=%d nodes=%d elapsed=%.4fs%s",
            plan.variant.value,
            count,
            stats.get("nodes", 0),
            result.elapsed,
            f" (stopped: {result.stop_reason})" if result.stop_reason else "",
        )
    return result


def count_physical(
    physical: PhysicalPlan, options: MatchOptions
) -> tuple[int, dict, str | None, list[str]]:
    """Count embeddings of a compiled plan; returns
    ``(count, stats, stop_reason, degradation)`` — the parts of
    :func:`execute_physical`'s counting result a caller without a
    :class:`MatchResult` needs."""
    result = execute_physical(physical, replace(options, count_only=True))
    return result.count, result.stats, result.stop_reason, result.degradation
