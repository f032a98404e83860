"""Order statistics and ratios the benchmark reports."""

from __future__ import annotations

import statistics

#: ``query_s.tail`` is the highest percentile with at least this many
#: queries beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_query_median(samples) -> float:
    """Median over queries of each query's median, from ``(qid, value)``.

    A catalog query is issued once per pass; taking its median first keeps
    the middle of a small catalog from landing on one pass's outlier.
    """
    by_query: dict[str, list[float]] = {}
    for qid, value in samples:
        by_query.setdefault(qid, []).append(value)
    return median([median(values) for values in by_query.values()])


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, sample count)`` of the highest percentile that
    has at least :data:`TAIL_BEYOND` samples beyond it.

    The value is the sample with exactly ``TAIL_BEYOND`` samples ranked
    above it, and its percentile is the share of samples at or below it.
    With ``TAIL_BEYOND`` samples or fewer no percentile qualifies, and the
    maximum is reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is no base."""
    return numerator / denominator if denominator else 0.0
