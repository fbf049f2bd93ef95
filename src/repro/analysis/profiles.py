"""Delay profiles and histograms from counting/queuing runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.bounds.counting_lb import min_latency_for_count, per_op_diameter_bound
from repro.core.problem import CountingResult


@dataclass(frozen=True)
class RankLatencyProfile:
    """Measured latency as a function of the rank received.

    Attributes:
        ranks: the ranks ``1..|R|`` in order.
        delays: measured delay of the operation that received each rank.
        general_bounds: Lemma 3.1 per-op lower bound for each rank.
        diameter_bounds: Theorem 3.6 per-op bound (zeros unless all nodes
            counted and a diameter was supplied).
    """

    ranks: tuple[int, ...]
    delays: tuple[int, ...]
    general_bounds: tuple[int, ...]
    diameter_bounds: tuple[int, ...]

    def respects_bounds(self) -> bool:
        """Whether every measured delay dominates both per-rank bounds."""
        return all(
            d >= max(g, a)
            for d, g, a in zip(self.delays, self.general_bounds, self.diameter_bounds)
        )

    def slack(self) -> list[int]:
        """Per-rank gap between the measured delay and the binding bound."""
        return [
            d - max(g, a)
            for d, g, a in zip(self.delays, self.general_bounds, self.diameter_bounds)
        ]


def latency_by_rank(
    result: CountingResult,
    *,
    n: int | None = None,
    diameter: int | None = None,
) -> RankLatencyProfile:
    """Build the rank -> latency curve of one counting run.

    Args:
        result: a verified counting result.
        n: graph size (needed for the Theorem 3.6 per-op bound).
        diameter: graph diameter; when given *and* every vertex counted,
            the diameter bound column is populated.
    """
    by_rank = sorted((rank, result.delays[v]) for v, rank in result.counts.items())
    ranks = tuple(r for r, _ in by_rank)
    delays = tuple(d for _, d in by_rank)
    general = tuple(min_latency_for_count(r) for r in ranks)
    if diameter is not None and n is not None and len(ranks) == n:
        diam = tuple(per_op_diameter_bound(r, n, diameter) for r in ranks)
    else:
        diam = tuple(0 for _ in ranks)
    return RankLatencyProfile(
        ranks=ranks, delays=delays, general_bounds=general, diameter_bounds=diam
    )


def delay_histogram(delays: Mapping[object, int], bins: int = 10) -> list[tuple[str, int]]:
    """Equal-width histogram of delay values as ``(label, count)`` rows."""
    values = sorted(delays.values())
    if not values:
        return []
    lo, hi = values[0], values[-1]
    if lo == hi:
        return [(f"{lo}", len(values))]
    width = max(1, (hi - lo + bins) // bins)
    rows: list[tuple[str, int]] = []
    edge = lo
    while edge <= hi:
        count = sum(1 for v in values if edge <= v < edge + width)
        rows.append((f"{edge}-{edge + width - 1}", count))
        edge += width
    return rows
