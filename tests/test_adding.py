"""Distributed addition (fetch-and-add): combining tree and central server."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_tree, tree_as_graph
from repro.adding import AdditionResult, run_central_addition, run_combining_addition
from repro.counting import run_central_counting, run_central_queuing, run_combining_counting
from repro.sim import EventTrace, RunStats
from repro.topology import complete_graph, path_graph, star_graph
from repro.topology.spanning import (
    SpanningTree,
    bfs_spanning_tree,
    embedded_binary_tree,
    path_spanning_tree,
)
from repro.tree import RootedTree


@st.composite
def tree_instances(draw):
    """A random tree rooted at a random vertex, and a request set."""
    n = draw(st.integers(1, 16))
    tree = random_tree(n, seed=draw(st.integers(0, 10_000)))
    root = draw(st.integers(0, n - 1))
    graph = tree_as_graph(tree)
    spanning = SpanningTree(graph, RootedTree.from_edges(n, tree.edges(), root=root), "rand")
    requests = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return graph, spanning, requests


def traced(run, *args, **kwargs):
    """``run``'s result and the events of its trace."""
    tr = EventTrace()
    return run(*args, trace=tr, **kwargs), tr.events


class TestCombiningAddition:
    def test_prefix_sums_along_order(self):
        st = embedded_binary_tree(complete_graph(7))
        r = run_combining_addition(st, {v: 10 * (v + 1) for v in range(7)})
        running = 0
        for v in r.order:
            assert r.prior_sums[v] == running
            running += r.increments[v]

    @settings(max_examples=60, deadline=None)
    @given(inst=tree_instances())
    def test_unit_increments_equal_counting_minus_one(self, inst):
        """Counting is fetch-and-add with unit increments, trace by trace,
        on the combining tree and the central server alike; central
        queuing sends the same messages as central counting."""
        graph, spanning, requests = inst
        root = spanning.root
        ones = dict.fromkeys(requests, 1)
        combining = (
            traced(run_combining_counting, spanning, requests),
            traced(run_combining_addition, spanning, ones),
        )
        central = (
            traced(run_central_counting, graph, requests, root=root),
            traced(run_central_addition, graph, ones, root=root),
        )
        for (cnt, cnt_events), (add, add_events) in (combining, central):
            assert add_events == cnt_events
            assert add.stats == cnt.stats
            # fetch-and-add returns the prior value; rank = prior + 1
            assert cnt.counts == {v: s + 1 for v, s in add.prior_sums.items()}
            assert add.delays == cnt.delays
        (cnt, cnt_events), _ = central
        que, que_events = traced(run_central_queuing, graph, requests, root=root)
        assert que_events == cnt_events
        assert que.stats == cnt.stats

    def test_negative_and_zero_increments(self):
        st = path_spanning_tree(path_graph(6))
        r = run_combining_addition(st, {1: -3, 3: 0, 5: 7})
        assert set(r.order) == {1, 3, 5}

    def test_partial_participation(self):
        st = bfs_spanning_tree(star_graph(9))
        r = run_combining_addition(st, {2: 5, 7: -1})
        assert set(r.prior_sums) == {2, 7}

    def test_delays_are_increment_oblivious(self):
        st = embedded_binary_tree(complete_graph(31))
        a = run_combining_addition(st, {v: 1 for v in range(31)})
        b = run_combining_addition(st, {v: (-1) ** v * v for v in range(31)})
        assert a.delays == b.delays

    def test_out_of_range_rejected(self):
        st = path_spanning_tree(path_graph(4))
        with pytest.raises(ValueError):
            run_combining_addition(st, {9: 1})

    def test_random_trees(self):
        rng = random.Random(61)
        for trial in range(25):
            n = rng.randint(2, 30)
            t = random_tree(n, seed=trial + 40)
            st = SpanningTree(tree_as_graph(t), t, label="rand")
            incs = {
                v: rng.randint(-9, 9)
                for v in rng.sample(range(n), rng.randint(1, n))
            }
            run_combining_addition(st, incs)  # verified when built

    def test_max_delay_property(self):
        st = path_spanning_tree(path_graph(8))
        r = run_combining_addition(st, {v: 1 for v in range(8)})
        assert r.max_delay == max(r.delays.values())
        empty_like = run_combining_addition(st, {0: 1})
        assert empty_like.max_delay >= 0


class TestCentralAddition:
    def test_arrival_order_prefix_sums(self):
        g = star_graph(6)
        r = run_central_addition(g, {v: v for v in range(6)})
        assert len(r.order) == 6

    def test_matches_combining_total_sum(self):
        g = complete_graph(10)
        incs = {v: v * v for v in range(10)}
        rc = run_central_addition(g, incs)
        ra = run_combining_addition(embedded_binary_tree(g), incs)
        final_c = sum(incs.values())
        # last op's prior + its increment == total, in both
        last_c = rc.order[-1]
        last_a = ra.order[-1]
        assert rc.prior_sums[last_c] + incs[last_c] == final_c
        assert ra.prior_sums[last_a] + incs[last_a] == final_c

    def test_root_choice(self):
        g = path_graph(5)
        r = run_central_addition(g, {0: 1, 4: 2}, root=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            run_central_addition(path_graph(3), {5: 1})

    def test_random_instances(self):
        rng = random.Random(62)
        for trial in range(15):
            n = rng.randint(2, 20)
            g = complete_graph(n)
            incs = {
                v: rng.randint(-5, 5)
                for v in rng.sample(range(n), rng.randint(1, n))
            }
            run_central_addition(g, incs, root=rng.randrange(n))  # verified when built


class TestVerify:
    """Building an ``AdditionResult`` checks the order and the prior-sum
    keys against the participants, not just the prefix sums along
    ``order``: a wrong answer raises at construction."""

    @staticmethod
    def result(order, prior_sums):
        return AdditionResult(
            "x", {1: 5, 2: 3}, prior_sums, order=order, delays={1: 1, 2: 1}, stats=RunStats()
        )

    def test_accepts_a_correct_result(self):
        assert self.result((1, 2), {1: 0, 2: 5}).total_delay == 2

    @pytest.mark.parametrize(
        "order, prior_sums, match",
        [
            ((1,), {1: 0, 2: 99}, "must each hold the participants"),
            ((1, 1), {1: 0, 2: 5}, "must each hold the participants"),
            ((1, 2, 1), {1: 0, 2: 5}, "must each hold the participants"),
            ((1, 2, 3), {1: 0, 2: 5}, "must each hold the participants"),
            ((1, 2), {1: 0}, "must each hold the participants"),
            ((1, 2), {1: 0, 2: 5, 3: 8}, "must each hold the participants"),
            ((1, 2), {1: 0, 2: 4}, "prior sum 4 != prefix 5"),
        ],
        ids=[
            "order-missing", "order-duplicate", "order-duplicate-extra-length",
            "order-extra", "prior-missing", "prior-extra", "wrong-prefix-sum",
        ],
    )
    def test_rejects(self, order, prior_sums, match):
        with pytest.raises(AssertionError, match=match):
            self.result(order, prior_sums)


class TestDeepTrees:
    def test_combining_addition_on_deep_path_tree(self):
        """Path-shaped spanning trees are deeper than the recursion limit;
        the order reconstruction must be iterative."""
        st = path_spanning_tree(path_graph(2500))
        r = run_combining_addition(st, {v: 1 for v in range(0, 2500, 5)})
        assert len(r.order) == 500
