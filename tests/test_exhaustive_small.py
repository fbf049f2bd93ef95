"""Exhaustive validation on tiny instances: every request set, every tail.

Small enough to enumerate completely, these tests leave no adversarial
corner unexplored: for *every* non-empty request set on 5-6 vertex
topologies (and every initial tail for arrow), the protocols must
produce valid outputs and respect the bounds.
"""

from __future__ import annotations

import pytest
from tsp_reference import tsp_path_lower_bound

from repro.arrow import arrow_vs_tsp, run_arrow
from repro.core.request import exhaustive_request_sets
from repro.core.verify import verify_counting, verify_queuing
from repro.counting import (
    run_central_counting,
    run_combining_counting,
    run_flood_counting,
)
from repro.topology import complete_graph, mesh_graph, path_graph, star_graph
from repro.topology.spanning import (
    bfs_spanning_tree,
    path_spanning_tree,
    star_spanning_tree,
)
from repro.tsp import nearest_neighbor_tour


class TestArrowExhaustive:
    def test_path5_every_request_set_every_tail(self):
        g = path_graph(5)
        st = path_spanning_tree(g)
        for req in exhaustive_request_sets(5):
            for tail in range(5):
                cmp = arrow_vs_tsp(st, req, tail=tail)
                verify_queuing(req, cmp.arrow.predecessors, tail=tail)
                assert cmp.within_theorem41

    def test_star5_every_request_set(self):
        g = star_graph(5)
        st = star_spanning_tree(g)
        for req in exhaustive_request_sets(5):
            res = run_arrow(st, req, capacity=1)
            verify_queuing(req, res.predecessors, tail=0)

    def test_complete5_binary_tree_every_request_set(self):
        from repro.topology.spanning import embedded_binary_tree

        g = complete_graph(5)
        st = embedded_binary_tree(g)
        for req in exhaustive_request_sets(5):
            cmp = arrow_vs_tsp(st, req)
            verify_queuing(req, cmp.arrow.predecessors, tail=0)
            assert cmp.within_theorem41


class TestCountingExhaustive:
    @pytest.mark.parametrize(
        "g",
        [path_graph(5), star_graph(5), complete_graph(5), mesh_graph([2, 3])],
        ids=lambda g: g.name,
    )
    def test_central_every_request_set(self, g):
        for req in exhaustive_request_sets(g.n):
            r = run_central_counting(g, req)
            verify_counting(req, r.counts)

    def test_flood_every_request_set_on_path(self):
        g = path_graph(5)
        for req in exhaustive_request_sets(5):
            r = run_flood_counting(g, req)
            verify_counting(req, r.counts)

    def test_combining_every_request_set_on_mesh(self):
        g = mesh_graph([2, 3])
        st = bfs_spanning_tree(g)
        for req in exhaustive_request_sets(6):
            r = run_combining_counting(st, req)
            verify_counting(req, r.counts)


class TestTspExhaustive:
    def test_nn_dominates_optimum_on_all_subsets(self):
        from repro.tree import RootedTree

        tree = RootedTree([0, 0, 0, 1, 1, 2])  # small branching tree
        for req in exhaustive_request_sets(6):
            tour = nearest_neighbor_tour(tree, req)
            assert tour.cost >= tsp_path_lower_bound(tree, req)
            assert sorted(tour.order) == sorted(req)

    def test_list_bound_on_all_subsets_and_starts(self):
        from repro.tree import RootedTree
        from repro.tsp import lemma44_legs, list_tsp_bound
        from repro.tsp.runs import satisfies_lemma44

        tree = RootedTree.from_path(list(range(6)))
        for req in exhaustive_request_sets(6):
            for start in range(6):
                tour = nearest_neighbor_tour(tree, req, start=start)
                assert tour.cost <= list_tsp_bound(6)
                assert satisfies_lemma44(lemma44_legs(tour.order, start=start))
