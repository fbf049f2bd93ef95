"""Nearest-neighbour travelling-salesperson machinery on tree metrics.

Theorem 4.1 (Herlihy, Tirthapura, Wattenhofer) bounds the arrow
protocol's one-shot cost by twice the cost of a *nearest-neighbour TSP*
on the spanning tree: starting from the root, repeatedly travel to the
closest unvisited requester, distances measured along the tree.  All of
Section 4's upper bounds are statements about this tour:

* Lemma 4.3: on a list the tour costs at most ``3n``;
* Theorem 4.7: on a perfect binary (m-ary) tree it costs ``O(n)``;
* Corollary 4.2: on any tree it costs ``O(n log n)`` (Rosenkrantz).

This package computes the tour exactly (deterministic tie-breaking),
decomposes list tours into the "runs" of Lemma 4.4 and evaluates every
closed-form bound.
"""

from repro.tsp.nearest_neighbor import NNTour, nearest_neighbor_tour
from repro.tsp.runs import Run, run_decomposition, lemma44_legs
from repro.tsp.bounds import (
    list_tsp_bound,
    binary_tree_tsp_bound,
    mary_tree_tsp_bound,
    rosenkrantz_nn_bound,
)

__all__ = [
    "NNTour",
    "nearest_neighbor_tour",
    "Run",
    "run_decomposition",
    "lemma44_legs",
    "list_tsp_bound",
    "binary_tree_tsp_bound",
    "mary_tree_tsp_bound",
    "rosenkrantz_nn_bound",
]
