"""Per-operation lower bounds (Lemma 3.1 / Theorem 3.6, fine-grained).

The paper's sums are built from per-operation latency bounds; here we
check every implemented counting algorithm satisfies them *operation by
operation*, not just in aggregate — a much stronger consistency check of
the simulator against the theory.
"""

from __future__ import annotations

import pytest

from repro.analysis import latency_by_rank
from repro.bounds.counting_lb import min_latency_for_count, per_op_diameter_bound
from repro.core import CountingResult
from repro.counting import (
    run_central_counting,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
)
from repro.sim import RunStats
from repro.topology import complete_graph, diameter, mesh_graph, path_graph, star_graph
from repro.topology.spanning import bfs_spanning_tree, embedded_binary_tree


class TestBoundFunctions:
    def test_general_bound_values(self):
        assert min_latency_for_count(1) == 0
        assert min_latency_for_count(4) == 1
        assert min_latency_for_count(5) == 2
        assert min_latency_for_count(70000) == 3

    def test_diameter_bound_values(self):
        # n=10, alpha=9: count 10 needs >= 4, count 6 needs >= 0
        assert per_op_diameter_bound(10, 10, 9) == 4
        assert per_op_diameter_bound(6, 10, 9) == 0
        assert per_op_diameter_bound(1, 10, 9) == 0

    def test_diameter_bound_validation(self):
        with pytest.raises(ValueError):
            per_op_diameter_bound(0, 5, 4)
        with pytest.raises(ValueError):
            per_op_diameter_bound(9, 5, 4)

    def test_verifier_detects_violation(self):
        counts = {0: 1, 1: 2}
        good = {0: 0, 1: 3}
        bad = {0: 0, 1: 0}  # count 2 with delay 0 is impossible
        for delays, ok in ((good, True), (bad, False)):
            r = CountingResult("x", (0, 1), counts, delays, RunStats())
            assert latency_by_rank(r, n=2, diameter=1).respects_bounds() is ok


GRAPH_CASES = [
    complete_graph(16),
    path_graph(24),
    mesh_graph([4, 4]),
    star_graph(12),
]


class TestAllAlgorithmsPerOp:
    @pytest.mark.parametrize("g", GRAPH_CASES, ids=lambda g: g.name)
    def test_central(self, g):
        alpha = diameter(g)
        r = run_central_counting(g, range(g.n))
        assert latency_by_rank(r, n=g.n, diameter=alpha).respects_bounds()

    @pytest.mark.parametrize("g", GRAPH_CASES, ids=lambda g: g.name)
    def test_flood(self, g):
        alpha = diameter(g)
        r = run_flood_counting(g, range(g.n))
        assert latency_by_rank(r, n=g.n, diameter=alpha).respects_bounds()

    @pytest.mark.parametrize("g", GRAPH_CASES, ids=lambda g: g.name)
    def test_combining(self, g):
        alpha = diameter(g)
        r = run_combining_counting(bfs_spanning_tree(g), range(g.n))
        assert latency_by_rank(r, n=g.n, diameter=alpha).respects_bounds()

    @pytest.mark.parametrize("g", GRAPH_CASES, ids=lambda g: g.name)
    def test_counting_network(self, g):
        alpha = diameter(g)
        r = run_counting_network(g, range(g.n))
        assert latency_by_rank(r, n=g.n, diameter=alpha).respects_bounds()

    def test_periodic_network(self):
        g = complete_graph(16)
        r = run_periodic_counting(g, range(16))
        assert latency_by_rank(r, n=16, diameter=1).respects_bounds()

    def test_binary_tree_combining_on_knn(self):
        g = complete_graph(31)
        r = run_combining_counting(embedded_binary_tree(g), range(31))
        assert latency_by_rank(r, n=31, diameter=1).respects_bounds()

    def test_subset_requests_skip_diameter_bound(self):
        g = path_graph(16)
        req = [3, 9, 15]
        r = run_central_counting(g, req)
        # only the general per-op bound applies with fewer than n ranks
        prof = latency_by_rank(r, n=g.n, diameter=15)
        assert prof.diameter_bounds == (0, 0, 0)
        assert prof.respects_bounds()
