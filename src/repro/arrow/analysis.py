"""Empirical check of Theorem 4.1: arrow cost vs the nearest-neighbour TSP."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.arrow.runner import run_arrow
from repro.core.problem import QueuingResult
from repro.topology.spanning import SpanningTree
from repro.tsp.nearest_neighbor import NNTour, nearest_neighbor_tour


@dataclass(frozen=True)
class ArrowTspComparison:
    """Side-by-side of a one-shot arrow run and the NN tour it is bounded by.

    Theorem 4.1 states ``arrow_total <= 2 * tsp_cost`` whenever the
    spanning tree has constant degree; ``ratio`` should therefore never
    exceed 2 (and the benchmarks assert it doesn't).
    """

    arrow: QueuingResult
    tour: NNTour

    @property
    def arrow_total(self) -> int:
        """Measured arrow total delay."""
        return self.arrow.total_delay

    @property
    def tsp_cost(self) -> int:
        """Nearest-neighbour tour cost on the same tree and request set."""
        return self.tour.cost

    @property
    def ratio(self) -> float:
        """``arrow_total / tsp_cost`` (0 when the tour has zero cost)."""
        if self.tour.cost == 0:
            return 0.0
        return self.arrow_total / self.tour.cost

    @property
    def within_theorem41(self) -> bool:
        """Whether the factor-2 bound of Theorem 4.1 holds for this run."""
        return self.arrow_total <= 2 * self.tsp_cost


def arrow_vs_tsp(
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    tail: int | None = None,
    **options: Any,
) -> ArrowTspComparison:
    """Run arrow and compute the NN tour on identical inputs.

    The tour starts at the tail node (the initial position of the queue),
    matching the setup of Theorem 4.1.  ``options`` are run options for
    :func:`repro.arrow.run_arrow`.
    """
    req = sorted(set(requests))
    result = run_arrow(spanning, req, tail=tail, **options)
    tour = nearest_neighbor_tour(spanning.tree, req, start=result.tail)
    return ArrowTspComparison(arrow=result, tour=tour)
