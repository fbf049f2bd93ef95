"""Nearest-neighbour tours, run decomposition, bounds, and optima."""

from __future__ import annotations

import random

import pytest

from helpers import random_tree
from tsp_reference import held_karp_optimal, steiner_subtree_edges, tsp_path_lower_bound

from repro.tree import RootedTree
from repro.tsp import (
    binary_tree_tsp_bound,
    lemma44_legs,
    list_tsp_bound,
    mary_tree_tsp_bound,
    nearest_neighbor_tour,
    rosenkrantz_nn_bound,
    run_decomposition,
)
from repro.tsp.runs import satisfies_lemma44


def list_tree(n: int) -> RootedTree:
    return RootedTree.from_path(list(range(n)))


class TestNearestNeighborTour:
    def test_empty_like_single(self):
        t = list_tree(5)
        tour = nearest_neighbor_tour(t, [0])
        assert tour.order == (0,) and tour.cost == 0

    def test_start_counts_zero_leg_if_requesting(self):
        t = list_tree(5)
        tour = nearest_neighbor_tour(t, [0, 3])
        assert tour.order == (0, 3)
        assert tour.legs == (0, 3)

    def test_greedy_choice(self):
        t = list_tree(10)
        tour = nearest_neighbor_tour(t, [9, 2], start=0)
        assert tour.order == (2, 9)
        assert tour.cost == 2 + 7

    def test_tie_break_smallest_id(self):
        t = list_tree(7)
        # 1 and 5 both at distance 2 from start 3
        tour = nearest_neighbor_tour(t, [1, 5], start=3)
        assert tour.order == (1, 5)

    def test_duplicates_ignored(self):
        t = list_tree(4)
        tour = nearest_neighbor_tour(t, [2, 2, 2])
        assert tour.order == (2,)

    def test_custom_start(self):
        t = list_tree(8)
        tour = nearest_neighbor_tour(t, [0, 7], start=7)
        assert tour.order == (7, 0)

    def test_cost_equals_tour_cost_of_order(self):
        rng = random.Random(5)
        for trial in range(25):
            n = rng.randint(2, 40)
            t = random_tree(n, seed=trial)
            req = rng.sample(range(n), rng.randint(1, n))
            start = rng.randrange(n)
            tour = nearest_neighbor_tour(t, req, start=start)
            stops = (start, *tour.order)
            assert tour.cost == sum(t.distance(u, v) for u, v in zip(stops, stops[1:]))
            assert sorted(tour.order) == sorted(set(req))

    def test_greedy_invariant_each_leg_is_nearest(self):
        rng = random.Random(6)
        for trial in range(15):
            n = rng.randint(2, 25)
            t = random_tree(n, seed=trial + 100)
            req = set(rng.sample(range(n), rng.randint(1, n)))
            tour = nearest_neighbor_tour(t, req)
            cur = t.root
            remaining = set(req)
            for v, leg in zip(tour.order, tour.legs):
                dmin = min(t.distance(cur, u) for u in remaining)
                assert leg == dmin
                assert v == min(u for u in remaining if t.distance(cur, u) == dmin)
                remaining.discard(v)
                cur = v

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start vertex -1 is not in the tree"):
            nearest_neighbor_tour(RootedTree.from_path([0, 1, 2, 3]), [1], start=-1)

    def test_start_past_the_tree_rejected(self):
        with pytest.raises(ValueError, match="start vertex 9 is not in the tree"):
            nearest_neighbor_tour(RootedTree.from_path([0, 1, 2, 3]), [1], start=9)

    def test_request_past_the_tree_rejected(self):
        with pytest.raises(ValueError, match="requested vertex 4 is not in the tree"):
            nearest_neighbor_tour(RootedTree.from_path([0, 1, 2, 3]), [1, 4])

    def test_negative_request_rejected(self):
        with pytest.raises(ValueError, match="requested vertex -2 is not in the tree"):
            nearest_neighbor_tour(RootedTree.from_path([0, 1, 2, 3]), [-2, 1])


class TestRuns:
    def test_single_run(self):
        runs = run_decomposition([1, 3, 5, 9])
        assert len(runs) == 1
        assert runs[0].direction == 1 and runs[0].last == 9

    def test_alternating(self):
        runs = run_decomposition([5, 3, 4, 2])
        assert [r.vertices for r in runs] == [(5, 3), (4, 2)]
        assert [r.direction for r in runs] == [-1, -1]

    def test_singleton(self):
        runs = run_decomposition([4])
        assert len(runs) == 1 and runs[0].direction == 0

    def test_empty(self):
        assert run_decomposition([]) == []

    def test_legs_from_known_tour(self):
        # start 0, visit 2 then 1 then 5: runs (2,1) and (5); lasts 1, 5;
        # legs are d(0,1)=1 and d(1,5)=4.
        legs = lemma44_legs([2, 1, 5], start=0)
        assert legs == [1, 4]

    def test_lemma44_on_nn_tours(self):
        rng = random.Random(9)
        for trial in range(30):
            n = rng.randint(2, 200)
            t = list_tree(n)
            req = rng.sample(range(n), rng.randint(1, n))
            start = rng.randrange(n)
            tour = nearest_neighbor_tour(t, req, start=start)
            legs = lemma44_legs(tour.order, start=start)
            assert satisfies_lemma44(legs), (n, start, sorted(req))

    def test_lemma44_violated_by_bad_tour(self):
        # A deliberately non-greedy zigzag violates the inequality.
        assert not satisfies_lemma44([5, 4, 3])


class TestBounds:
    def test_list_bound_on_many_instances(self):
        rng = random.Random(2)
        for n in (2, 10, 100, 500):
            t = list_tree(n)
            for trial in range(5):
                req = rng.sample(range(n), rng.randint(1, n))
                start = rng.randrange(n)
                tour = nearest_neighbor_tour(t, req, start=start)
                assert tour.cost <= list_tsp_bound(n)

    def test_list_bound_value(self):
        assert list_tsp_bound(10) == 30
        with pytest.raises(ValueError):
            list_tsp_bound(0)

    def test_binary_bound_formula(self):
        # d = floor(log2 15) = 3 -> 2*3*4 + 8*15
        assert binary_tree_tsp_bound(15) == 24 + 120
        with pytest.raises(ValueError):
            binary_tree_tsp_bound(0)

    def test_binary_bound_on_perfect_trees(self):
        for depth in (2, 3, 4, 5, 6):
            n = 2 ** (depth + 1) - 1
            par = [0] + [(v - 1) // 2 for v in range(1, n)]
            t = RootedTree(par)
            tour = nearest_neighbor_tour(t, list(range(n)))
            assert tour.cost <= binary_tree_tsp_bound(n)

    def test_mary_bound_on_perfect_trees(self):
        from repro.topology import perfect_mary_tree

        for m in (3, 4):
            for depth in (1, 2, 3):
                g = perfect_mary_tree(m, depth)
                t = RootedTree.from_edges(g.n, g.edges(), root=0)
                tour = nearest_neighbor_tour(t, list(range(g.n)))
                assert tour.cost <= mary_tree_tsp_bound(g.n, m)

    def test_mary_bound_validation(self):
        with pytest.raises(ValueError):
            mary_tree_tsp_bound(10, 1)
        with pytest.raises(ValueError):
            mary_tree_tsp_bound(0, 3)

    def test_rosenkrantz_envelope(self):
        rng = random.Random(3)
        for trial in range(20):
            n = rng.randint(2, 60)
            t = random_tree(n, seed=trial + 50)
            k = rng.randint(1, n)
            req = rng.sample(range(n), k)
            tour = nearest_neighbor_tour(t, req)
            assert tour.cost <= rosenkrantz_nn_bound(n, k)

    def test_rosenkrantz_degenerate(self):
        assert rosenkrantz_nn_bound(10, 0) == 0.0
        assert rosenkrantz_nn_bound(10, 1) == 9


class TestSteinerAndOptimal:
    def test_steiner_edges_simple_path(self):
        t = list_tree(10)
        assert steiner_subtree_edges(t, [0, 5]) == 5
        assert steiner_subtree_edges(t, [3, 7], start=3) == 4

    def test_steiner_trims_above(self):
        #     0 - 1 - 2 - 3 with requests {2,3}, start 2
        t = list_tree(4)
        assert steiner_subtree_edges(t, [2, 3], start=2) == 1

    def test_held_karp_matches_closed_form(self):
        rng = random.Random(8)
        for trial in range(40):
            n = rng.randint(2, 16)
            t = random_tree(n, seed=trial + 200)
            k = rng.randint(1, min(7, n))
            req = rng.sample(range(n), k)
            start = rng.randrange(n)
            opt = held_karp_optimal(t, req, start=start)
            closed = tsp_path_lower_bound(t, req, start=start)
            assert opt == closed

    def test_held_karp_rejects_large(self):
        t = list_tree(20)
        with pytest.raises(ValueError):
            held_karp_optimal(t, list(range(18)))

    def test_held_karp_empty(self):
        assert held_karp_optimal(list_tree(3), []) == 0

    def test_nn_between_opt_and_envelope(self):
        rng = random.Random(4)
        for trial in range(25):
            n = rng.randint(2, 30)
            t = random_tree(n, seed=trial + 300)
            k = rng.randint(1, min(8, n))
            req = rng.sample(range(n), k)
            nn = nearest_neighbor_tour(t, req)
            opt = held_karp_optimal(t, req)
            assert opt <= nn.cost <= rosenkrantz_nn_bound(n, k)
