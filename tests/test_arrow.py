"""The arrow protocol: path reversal, total order, delays, Theorem 4.1."""

from __future__ import annotations

import importlib
import random

import pytest

from helpers import random_tree, tree_as_graph
from repro.arrow import arrow_vs_tsp, run_arrow, run_arrow_longlived
from repro.arrow.longlived import poisson_issue_times
from repro.arrow.protocol import ArrowNode, init_op, op_of
from repro.core.verify import VerificationError, verify_queuing
from repro.directory import run_object_directory
from repro.mutex import run_token_mutex
from repro.topology import complete_graph, mesh_graph, path_graph, star_graph
from repro.topology.spanning import (
    SpanningTree,
    bfs_spanning_tree,
    embedded_binary_tree,
    path_spanning_tree,
    star_spanning_tree,
)


def rand_spanning(n: int, seed: int, max_children: int | None = 3) -> SpanningTree:
    t = random_tree(n, seed, max_children=max_children)
    return SpanningTree(tree_as_graph(t), t, label="rand")


# name -> run(requests, tail) on a 6-node path, for every arrow-family runner.
SIX = path_graph(6)
SIX_TREE = path_spanning_tree(SIX)
ARROW_FAMILY = {
    "run_arrow": lambda r, t: run_arrow(SIX_TREE, r, tail=t),
    "run_arrow_longlived": lambda r, t: run_arrow_longlived(
        SIX_TREE, dict.fromkeys(r, 0), tail=t
    ),
    "run_token_mutex": lambda r, t: run_token_mutex(SIX_TREE, r, tail=t),
    "run_object_directory": lambda r, t: run_object_directory(SIX, SIX_TREE, r, home=t),
}


class TestBasics:
    def test_tail_requester_completes_at_zero(self):
        st = path_spanning_tree(path_graph(4))
        res = run_arrow(st, [0])  # tail defaults to root = 0
        assert res.delays[op_of(0)] == 0
        assert res.predecessors[op_of(0)] == init_op(0)

    def test_single_remote_requester_delay_is_distance(self):
        st = path_spanning_tree(path_graph(6))
        res = run_arrow(st, [5])
        assert res.delays[op_of(5)] == 5

    def test_two_requesters_order_and_preds(self):
        st = path_spanning_tree(path_graph(3))
        res = run_arrow(st, [0, 2])
        assert res.order() == [0, 2]
        assert res.predecessors[op_of(2)] == op_of(0)

    def test_all_request_on_path_is_linear(self):
        n = 32
        st = path_spanning_tree(path_graph(n))
        res = run_arrow(st, range(n))
        assert res.order() == list(range(n))
        # every non-tail op terminates at its left neighbor concurrently
        assert res.total_delay == n - 1

    def test_tail_choice(self):
        st = path_spanning_tree(path_graph(5))
        res = run_arrow(st, [0, 4], tail=4)
        assert res.tail == 4
        assert res.order()[0] == 4

    @pytest.mark.parametrize("runner", sorted(ARROW_FAMILY))
    def test_out_of_range_request(self, runner):
        """A request or tail outside the tree is named before the run."""
        run = ARROW_FAMILY[runner]
        for requests, tail, bad in (([1, 9], None, 9), ([-1], None, -1), ([1], 9, 9)):
            with pytest.raises(ValueError, match=f" {bad} out of range"):
                run(requests, tail)

    def test_result_accessors(self):
        st = path_spanning_tree(path_graph(4))
        res = run_arrow(st, [1, 3])
        assert res.max_delay == max(res.delays.values())
        assert len(res.requests) == 2
        assert res.algorithm == "arrow"
        assert sorted(res.order()) == [1, 3]


class TestTotalOrder:
    def test_random_instances_form_single_chain(self):
        rng = random.Random(42)
        for trial in range(60):
            n = rng.randint(2, 40)
            st = rand_spanning(n, seed=trial)
            k = rng.randint(1, n)
            req = rng.sample(range(n), k)
            tail = rng.randrange(n)
            res = run_arrow(st, req, tail=tail)
            chain = verify_queuing(req, res.predecessors, tail=tail)
            assert len(chain) == k

    def test_every_request_completes_exactly_once(self):
        st = embedded_binary_tree(complete_graph(31))
        res = run_arrow(st, range(31))
        assert set(res.delays) == {op_of(v) for v in range(31)}

    def test_non_requesters_never_complete(self):
        st = path_spanning_tree(path_graph(10))
        res = run_arrow(st, [2, 7])
        assert set(res.delays) == {op_of(2), op_of(7)}

    def test_strict_capacity_still_correct(self):
        st = embedded_binary_tree(complete_graph(15))
        res = run_arrow(st, range(15), capacity=1)
        assert sorted(res.order()) == list(range(15))

    def test_star_tree_strict_capacity(self):
        st = star_spanning_tree(star_graph(9))
        res = run_arrow(st, range(9), capacity=1)
        assert sorted(res.order()) == list(range(9))

    @pytest.mark.parametrize("run", [
        lambda st: run_arrow(st, [1, 3]),
        lambda st: run_arrow_longlived(st, {1: 0, 3: 2}),
    ], ids=["run_arrow", "run_arrow_longlived"])
    def test_forged_predecessor_is_rejected(self, run, monkeypatch):
        """The runners' result checks the links their nodes found: a node
        that records each op as its own predecessor makes them raise."""

        class Forger(ArrowNode):
            def _found(self, a, ctx):
                super()._found(a, ctx)
                self.pred_found[a] = a

        mod = importlib.import_module("repro.arrow.runner")
        real = mod._run_arrow_nodes
        monkeypatch.setattr(mod, "_run_arrow_nodes", lambda *args: real(*args, Forger))
        with pytest.raises(VerificationError):
            run(path_spanning_tree(path_graph(4)))

    def test_no_requests_gives_an_empty_result(self):
        """An empty request set (or schedule) runs no operation: the
        runners return an empty result rather than a verification error."""
        st = path_spanning_tree(path_graph(4))
        res = run_arrow(st, [])
        assert (res.requests, res.delays, res.predecessors) == ((), {}, {})
        assert res.order() == [] and res.total_delay == 0
        assert run_arrow_longlived(st, {}) == res


class TestDelaysAndTheorem41:
    def test_within_twice_tsp_random(self):
        rng = random.Random(17)
        for trial in range(40):
            n = rng.randint(2, 48)
            st = rand_spanning(n, seed=trial + 500)
            req = rng.sample(range(n), rng.randint(1, n))
            cmp_ = arrow_vs_tsp(st, req)
            assert cmp_.within_theorem41, (n, sorted(req), cmp_.ratio)

    def test_within_twice_tsp_structured(self):
        for st in (
            path_spanning_tree(path_graph(64)),
            embedded_binary_tree(complete_graph(63)),
            bfs_spanning_tree(mesh_graph([6, 6])),
        ):
            cmp_ = arrow_vs_tsp(st, range(st.n))
            assert cmp_.within_theorem41
            assert cmp_.arrow_total > 0 and cmp_.tsp_cost > 0

    def test_ratio_zero_when_only_tail_requests(self):
        st = path_spanning_tree(path_graph(4))
        cmp_ = arrow_vs_tsp(st, [0])
        assert cmp_.tsp_cost == 0 and cmp_.ratio == 0.0

    def test_capacity_default_is_tree_degree(self):
        st = embedded_binary_tree(complete_graph(7))
        res = run_arrow(st, range(7))
        assert res.stats.rounds >= 1


class TestLongLived:
    def test_matches_one_shot_at_horizon_zero(self):
        """The one-shot run is the long-lived run with every issue round 0,
        on a path tree and a binary tree."""
        for st in (
            path_spanning_tree(path_graph(16)),
            embedded_binary_tree(complete_graph(15)),
        ):
            for requests in (range(st.n), [11, 0, 5, 3]):
                one = run_arrow(st, requests)
                assert run_arrow_longlived(st, dict.fromkeys(requests, 0)) == one

    def test_staggered_pair(self):
        st = path_spanning_tree(path_graph(4))
        ll = run_arrow_longlived(st, {3: 0, 0: 10})
        # node 3's op travels to tail 0 (3 hops); node 0 issues later and
        # chases the flipped arrows to node 3's origin.
        assert ll.delays[op_of(3)] == 3
        assert ll.delays[op_of(0)] >= 1
        assert sorted(ll.delays) == [op_of(0), op_of(3)]
        assert ll.order() == [3, 0]

    def test_sequential_requests_chain(self):
        st = path_spanning_tree(path_graph(8))
        times = {v: 20 * v for v in range(8)}
        ll = run_arrow_longlived(st, times)
        assert len(ll.delays) == 8
        # with requests far apart each one terminates before the next starts
        assert ll.max_delay <= 2 * 8

    def test_invalid_inputs(self):
        st = path_spanning_tree(path_graph(4))
        with pytest.raises(ValueError):
            run_arrow_longlived(st, {9: 0})
        with pytest.raises(ValueError):
            run_arrow_longlived(st, {1: -2})

    def test_poisson_schedule_generator(self):
        times = poisson_issue_times(50, rate=0.5, horizon=30, seed=1)
        assert times and all(0 <= t < 30 for t in times.values())
        assert times == poisson_issue_times(50, rate=0.5, horizon=30, seed=1)
        with pytest.raises(ValueError):
            poisson_issue_times(10, rate=0.0, horizon=5)
        with pytest.raises(ValueError):
            poisson_issue_times(10, rate=0.5, horizon=0)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        st = bfs_spanning_tree(mesh_graph([4, 4]))
        r1 = run_arrow(st, range(16))
        r2 = run_arrow(st, range(16))
        assert r1.delays == r2.delays
        assert r1.order() == r2.order()
