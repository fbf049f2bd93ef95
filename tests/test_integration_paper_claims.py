"""Integration tests: the paper's headline claims, end to end.

Each test runs real protocols on the simulator and checks a claim from
the paper as a measurable statement at small-but-meaningful scale.
"""

from __future__ import annotations

import pytest

from repro.arrow import arrow_vs_tsp, run_arrow
from repro.bounds import (
    list_queuing_bound,
    theorem35_lower_bound,
    theorem36_lower_bound,
)
from repro.core.comparison import growth_exponent
from repro.counting import (
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
)
from repro.topology import (
    complete_graph,
    diameter,
    hypercube_graph,
    mesh_graph,
    path_graph,
    star_graph,
)
from repro.topology.spanning import (
    embedded_binary_tree,
    path_spanning_tree,
    star_spanning_tree,
)


class TestHeadlineSeparation:
    """CQ(G) = o(CC(G)) on Hamilton-path graphs (Theorem 4.5)."""

    @pytest.mark.parametrize(
        "g", [complete_graph(32), mesh_graph([6, 6]), hypercube_graph(5)]
    )
    def test_arrow_beats_every_counting_algorithm(self, g):
        req = list(range(g.n))
        arrow = run_arrow(path_spanning_tree(g), req)
        counting_totals = [
            run_central_counting(g, req).total_delay,
            run_flood_counting(g, req).total_delay,
            run_counting_network(g, req).total_delay,
            run_combining_counting(
                embedded_binary_tree(complete_graph(g.n)), req
            ).total_delay,
        ]
        assert arrow.total_delay < min(counting_totals)

    def test_gap_widens_with_n_on_complete_graph(self):
        gaps = []
        for n in (8, 16, 32, 64):
            g = complete_graph(n)
            arrow = run_arrow(path_spanning_tree(g), range(n))
            best = min(
                run_combining_counting(embedded_binary_tree(g), range(n)).total_delay,
                run_flood_counting(g, range(n)).total_delay,
            )
            gaps.append(best / max(1, arrow.total_delay))
        assert gaps == sorted(gaps)
        assert gaps[-1] > 2 * gaps[0] / 2  # strictly increasing and significant

    def test_arrow_linear_counting_superlinear_on_knn(self):
        ns = [8, 16, 32, 64]
        arrow_t, count_t = [], []
        for n in ns:
            g = complete_graph(n)
            arrow_t.append(run_arrow(path_spanning_tree(g), range(n)).total_delay)
            count_t.append(
                run_combining_counting(
                    embedded_binary_tree(g), range(n)
                ).total_delay
            )
        assert growth_exponent(ns, arrow_t) < 1.2
        assert growth_exponent(ns, count_t) > 1.05


class TestLowerBoundsRespected:
    """No implemented counting algorithm ever beats Section 3's bounds."""

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_general_bound_on_complete_graph(self, n):
        g = complete_graph(n)
        req = list(range(n))
        for total in (
            run_central_counting(g, req).total_delay,
            run_flood_counting(g, req).total_delay,
            run_counting_network(g, req).total_delay,
            run_combining_counting(embedded_binary_tree(g), req).total_delay,
        ):
            assert total >= theorem35_lower_bound(n)

    @pytest.mark.parametrize("n", [9, 25, 49])
    def test_diameter_bound_on_meshes(self, n):
        k = int(n**0.5)
        g = mesh_graph([k, k])
        alpha = diameter(g)
        total = run_central_counting(g, range(g.n)).total_delay
        assert total >= theorem36_lower_bound(alpha)

    @pytest.mark.parametrize("n", [16, 64])
    def test_diameter_bound_on_list(self, n):
        total = run_central_counting(path_graph(n), range(n)).total_delay
        assert total >= theorem36_lower_bound(n - 1)


class TestQueuingUpperBoundsRespected:
    """Arrow never exceeds the Section 4 envelopes."""

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_list_envelope(self, n):
        st = path_spanning_tree(path_graph(n))
        cmp = arrow_vs_tsp(st, range(n))
        assert cmp.arrow_total <= list_queuing_bound(n)
        assert cmp.within_theorem41

    @pytest.mark.parametrize("n", [15, 63])
    def test_binary_tree_envelope(self, n):
        from repro.bounds import binary_tree_queuing_bound

        st = embedded_binary_tree(complete_graph(n))
        res = run_arrow(st, range(n))
        assert res.total_delay <= binary_tree_queuing_bound(n)


class TestStarCounterexample:
    """Section 5: on the star, counting is NOT harder than queuing."""

    def test_both_quadratic_and_comparable(self):
        ns = [8, 16, 32]
        cc, cq = [], []
        for n in ns:
            g = star_graph(n)
            cc.append(run_central_counting(g, range(n)).total_delay)
            cq.append(
                run_arrow(star_spanning_tree(g), range(n), capacity=1).total_delay
            )
        assert growth_exponent(ns, cc) > 1.7
        assert growth_exponent(ns, cq) > 1.7
        for c, q in zip(cc, cq):
            assert 0.25 <= c / q <= 4.0

    def test_central_counting_equals_central_queuing_on_star(self):
        n = 24
        g = star_graph(n)
        assert (
            run_central_counting(g, range(n)).total_delay
            == run_central_queuing(g, range(n)).total_delay
        )


class TestCrossAlgorithmConsistency:
    """Different counting algorithms agree on the *problem*, not the order."""

    def test_all_algorithms_count_the_same_multiset(self):
        g = complete_graph(12)
        req = [1, 3, 5, 7, 9, 11]
        results = [
            run_central_counting(g, req),
            run_flood_counting(g, req),
            run_counting_network(g, req),
            run_combining_counting(embedded_binary_tree(g), req),
        ]
        for r in results:
            assert sorted(r.counts.values()) == [1, 2, 3, 4, 5, 6]
            assert set(r.counts) == set(req)

    def test_queuing_algorithms_agree_on_chain_validity(self):
        from repro.core.verify import verify_queuing

        g = complete_graph(10)
        req = list(range(10))
        arrow = run_arrow(path_spanning_tree(g), req)
        central = run_central_queuing(g, req, root=0)
        verify_queuing(req, arrow.predecessors, tail=0)
        verify_queuing(req, central.predecessors, tail=0)
