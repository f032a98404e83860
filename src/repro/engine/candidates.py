"""Candidate computation over physical operators, with SCE-based reuse.

``C(u | Phi, f)`` — the candidates of a pattern vertex given a partial
embedding — is computed by intersecting the cluster neighbor lists of the
op's backward constraints, then filtering vertex-induced negations. By
Definition 1 the raw set depends only on the mappings of the vertex's
dependency priors, so it is memoized on exactly that key; injectivity
filtering (the ``\\ {v_x}`` part) happens at use time and never enters the
cache. NEC falls out for free: equivalent pattern vertices were compiled to
the same ``spec_id`` and therefore share cached candidate sets.

The computer consumes :class:`~repro.engine.physical.ExtendOp` operators —
constraints and negations arrive as prebound ``(prior, fetch)`` pairs, so
the hot loop is two function calls and an intersection per constraint.

It also keeps factorized counting's *region memo* (a region's count per
:meth:`~repro.engine.physical.ProductPoints.region_key`), so both caches
share one bound (``memo_limit`` entries each) and one degradation ladder.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.candidates import CandidateStats, intersect_sorted
from repro.engine.physical import ExtendOp, PhysicalPlan

_EMPTY = np.empty(0, dtype=np.int64)


class CandidateComputer:
    """Computes (and, with SCE, reuses) raw candidate arrays per op."""

    def __init__(
        self,
        physical: PhysicalPlan,
        use_sce: bool = True,
        memo_limit: int = 1_000_000,
        profile: Any = None,
    ) -> None:
        self.physical = physical
        self.use_sce = use_sce
        self.memo_limit = memo_limit
        self.stats = CandidateStats()
        #: Optional :class:`repro.obs.profile.SearchDepthProfile` receiving
        #: per-depth memo hit/miss events; ``None`` keeps the hot path free.
        self._profile = profile
        self._memo: dict[tuple, np.ndarray] = {}
        self._regions: dict[tuple, int] = {}

    def clear(self) -> None:
        self._memo.clear()
        self._regions.clear()

    @property
    def memo_size(self) -> int:
        """Number of cached candidate sets."""
        return len(self._memo)

    def region(self, key: tuple | None) -> int | None:
        """The memoized count of a region, or ``None``."""
        return self._regions.get(key) if key is not None else None

    def remember_region(self, key: tuple | None, count: int) -> None:
        """Memoize a region count (``None`` keys are never cached)."""
        if key is not None and self.use_sce and len(self._regions) < self.memo_limit:
            self._regions[key] = count

    def evict(self, fraction: float = 0.5) -> int:
        """Drop the oldest ``fraction`` of both memos; returns how many.

        Each memo is an insertion-ordered dict, so dropping the front is an
        LRU approximation (old entries were keyed by prior assignments the
        search has likely backtracked past). Like CEMR's redundant
        extensions, every memo entry is a pure cache — dropping any subset
        only costs recomputation, never correctness — which is what makes
        degrade-under-pressure safe.
        """
        evicted = 0
        memos: tuple[dict, ...] = (self._memo, self._regions)
        for memo in memos:
            n = int(len(memo) * fraction)
            for key in list(memo)[:n]:
                del memo[key]
            evicted += n
        return evicted

    def disable_memo(self) -> None:
        """Turn memoization off for the rest of the run and free both
        caches (the degradation ladder's second rung). Candidate
        computation continues uncached and factorized counts still
        multiply, recounting repeated regions; ``memo_misses`` stops
        advancing so the stats still distinguish degraded runs from
        ``use_sce=False`` runs only by their nonzero history."""
        self.use_sce = False
        self._memo.clear()
        self._regions.clear()

    def raw(self, op: ExtendOp, assignment: list[int]) -> np.ndarray:
        """The sorted raw candidate array of ``op.u`` under the current
        partial embedding (before injectivity filtering)."""
        if self.use_sce:
            key = (op.spec_id, *[assignment[p] for p in op.priors])
            cached = self._memo.get(key)
            if cached is not None:
                self.stats.memo_hits += 1
                if self._profile is not None:
                    self._profile.memo_hit(op.pos)
                return cached
            self.stats.memo_misses += 1
            if self._profile is not None:
                self._profile.memo_miss(op.pos)
        result = self._compute(op, assignment)
        if self.use_sce and len(self._memo) < self.memo_limit:
            self._memo[key] = result
        return result

    def _compute(self, op: ExtendOp, assignment: list[int]) -> np.ndarray:
        stats = self.stats
        stats.computed += 1
        if op.constraints:
            arrays = []
            for prior, fetch in op.constraints:
                arr = fetch(assignment[prior])
                if arr.shape[0] == 0:
                    return _EMPTY
                arrays.append(arr)
            arrays.sort(key=len)
            result = arrays[0]
            for arr in arrays[1:]:
                stats.intersections += 1
                result = intersect_sorted(result, arr)
                if result.shape[0] == 0:
                    return _EMPTY
        else:
            result = op.static_pool
        for prior, fetch in op.negations:
            if result.shape[0] == 0:
                break
            stats.negation_checks += 1
            excluded = fetch(assignment[prior])
            if excluded.shape[0] == 0:
                continue
            # Sorted-array membership: forbid candidates present in the
            # exclusion list (vectorized version of Definition 1's check).
            idx = np.searchsorted(excluded, result)
            idx[idx == excluded.shape[0]] = excluded.shape[0] - 1
            violates = excluded[idx] == result
            if violates.any():
                result = result[~violates]
        return result
