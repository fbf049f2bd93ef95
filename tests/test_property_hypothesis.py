"""Property-based tests (hypothesis) on the core invariants.

These are the paper's invariants stated as properties over randomly
generated trees, graphs, and request sets:

* the arrow protocol always produces one valid total order and never
  exceeds twice the NN-TSP cost (Theorem 4.1);
* every counting algorithm always hands out exactly ``1..|R|`` and never
  beats the analytic lower bounds;
* the NN tour is sandwiched between the exact optimum and the
  Rosenkrantz envelope, and on lists obeys Lemma 4.3/4.4;
* ``log*``/``tow`` satisfy their defining identities;
* under any randomly generated *eventually-delivering* fault plan
  (drops, duplicates, outages, finite crashes), the reliable-delivery
  wrapper keeps arrow queuing and central counting correct: the run
  completes, counts are exactly ``1..|R|``, and the queue is one chain.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from tsp_reference import held_karp_optimal, tsp_path_lower_bound

from repro.arrow import arrow_vs_tsp, run_arrow
from repro.bounds import log_star, min_latency_for_count, theorem35_lower_bound, tow
from repro.core.verify import verify_counting, verify_queuing
from repro.counting import (
    run_central_counting,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
)
from repro.faults import (
    FaultPlan,
    LinkOutage,
    NodeCrash,
    run_arrow_ft,
    run_central_counting_ft,
)
from repro.topology.base import Graph
from repro.topology.spanning import SpanningTree
from repro.tree import RootedTree
from repro.tsp import (
    lemma44_legs,
    list_tsp_bound,
    nearest_neighbor_tour,
    rosenkrantz_nn_bound,
)
from repro.tsp.runs import satisfies_lemma44


# ----------------------------------------------------------------- strategies


@st.composite
def rooted_trees(draw, max_n=40, max_children=None):
    """A random rooted tree as a parent array (vertex v attaches below v)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    parent = [0] * n
    counts = [0] * n
    for v in range(1, n):
        candidates = [
            p for p in range(v) if max_children is None or counts[p] < max_children
        ]
        p = draw(st.sampled_from(candidates))
        parent[v] = p
        counts[p] += 1
    return RootedTree(parent)


@st.composite
def trees_with_requests(draw, max_n=40, max_children=None):
    tree = draw(rooted_trees(max_n=max_n, max_children=max_children))
    k = draw(st.integers(min_value=1, max_value=tree.n))
    req = draw(
        st.lists(
            st.integers(min_value=0, max_value=tree.n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return tree, sorted(req)


@st.composite
def connected_graphs(draw, max_n=16):
    """A random connected graph: a random tree plus random extra edges."""
    tree = draw(rooted_trees(max_n=max_n))
    n = tree.n
    edges = set(map(tuple, (sorted(e) for e in tree.edges())))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges, name=f"hyp({n})")


def spanning_of(tree: RootedTree) -> SpanningTree:
    g = Graph.from_edges(tree.n, tree.edges(), name="hyp-tree")
    return SpanningTree(g, tree, label="hyp")


@st.composite
def chaos_plans(draw, n: int):
    """A random *eventually-delivering* fault plan for an n-vertex instance.

    Drop runs are bounded, outage windows are finite by construction, and
    every crash recovers — exactly the hypothesis under which the
    reliable wrapper promises completion (see ``docs/FAULTS.md``).
    """
    outages = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != u))
        start = draw(st.integers(min_value=0, max_value=12))
        outages.append(LinkOutage(u, v, start, start + draw(st.integers(1, 8))))
    crashes = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        node = draw(st.integers(min_value=0, max_value=n - 1))
        start = draw(st.integers(min_value=0, max_value=12))
        crashes.append(NodeCrash(node, start, start + draw(st.integers(1, 8))))
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=10**6)),
        drop_rate=draw(st.floats(min_value=0.0, max_value=0.3)),
        duplicate_rate=draw(st.floats(min_value=0.0, max_value=0.2)),
        max_consecutive_drops=2,
        outages=tuple(outages),
        crashes=tuple(crashes),
    )


@st.composite
def trees_requests_and_plans(draw, max_n=12):
    tree, req = draw(trees_with_requests(max_n=max_n))
    return tree, req, draw(chaos_plans(tree.n))


@st.composite
def graphs_requests_and_plans(draw, max_n=10):
    g = draw(connected_graphs(max_n=max_n))
    k = draw(st.integers(min_value=1, max_value=g.n))
    req = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=g.n - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    return g, req, draw(chaos_plans(g.n))


# ------------------------------------------------------------------ the props


class TestArrowProperties:
    @given(data=trees_with_requests(max_n=30), tail_seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_arrow_always_forms_valid_total_order(self, data, tail_seed):
        tree, req = data
        tail = tail_seed % tree.n
        res = run_arrow(spanning_of(tree), req, tail=tail)
        chain = verify_queuing(req, res.predecessors, tail=tail)
        assert [op[1] for op in chain] == res.order()

    @given(data=trees_with_requests(max_n=30, max_children=3))
    @settings(max_examples=60, deadline=None)
    def test_arrow_within_twice_nn_tsp(self, data):
        tree, req = data
        cmp_ = arrow_vs_tsp(spanning_of(tree), req)
        assert cmp_.arrow_total <= 2 * cmp_.tsp_cost

    @given(data=trees_with_requests(max_n=20))
    @settings(max_examples=40, deadline=None)
    def test_arrow_delays_positive_except_tail(self, data):
        tree, req = data
        res = run_arrow(spanning_of(tree), req)
        for op, d in res.delays.items():
            if op[1] == res.tail:
                assert d == 0
            else:
                assert d >= 1


class TestCountingProperties:
    @given(g=connected_graphs(max_n=12), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_central_and_flood_always_valid(self, g, seed):
        import random

        rng = random.Random(seed)
        req = rng.sample(range(g.n), rng.randint(1, g.n))
        for runner in (run_central_counting, run_flood_counting):
            r = runner(g, req)
            verify_counting(req, r.counts)
            assert r.total_delay >= theorem35_lower_bound(g.n, len(set(req)))

    @given(data=trees_with_requests(max_n=25))
    @settings(max_examples=30, deadline=None)
    def test_combining_always_valid(self, data):
        tree, req = data
        r = run_combining_counting(spanning_of(tree), req)
        verify_counting(req, r.counts)

    @given(
        n=st.integers(min_value=2, max_value=18),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_counting_network_always_valid(self, n, seed):
        import random

        from repro.topology import complete_graph

        rng = random.Random(seed)
        g = complete_graph(n)
        req = rng.sample(range(n), rng.randint(1, n))
        r = run_counting_network(g, req)
        verify_counting(req, r.counts)


class TestChaosProperties:
    """The reliable wrapper's liveness+safety claim, adversarially sampled.

    Together these two properties exercise >= 200 generated fault plans
    per run (100 examples each): any eventually-delivering composition of
    drops, duplicates, outages, and finite crashes leaves the wrapped
    protocols correct.
    """

    @given(data=trees_requests_and_plans(max_n=12))
    @settings(max_examples=100, deadline=None)
    def test_ft_arrow_forms_one_chain_under_any_plan(self, data):
        tree, req, plan = data
        assert plan.eventually_delivers()
        res = run_arrow_ft(spanning_of(tree), req, plan, max_rounds=500_000)
        chain = verify_queuing(req, res.predecessors, tail=res.tail)
        assert [op[1] for op in chain] == res.order()
        assert sorted(res.order()) == sorted(req)

    @given(data=graphs_requests_and_plans(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_ft_central_counts_exactly_1_to_r_under_any_plan(self, data):
        g, req, plan = data
        assert plan.eventually_delivers()
        res = run_central_counting_ft(g, req, plan, max_rounds=500_000)
        verify_counting(req, res.counts)
        assert sorted(res.counts.values()) == list(range(1, len(req) + 1))


class TestTspProperties:
    @given(data=trees_with_requests(max_n=25))
    @settings(max_examples=60, deadline=None)
    def test_nn_between_optimum_and_envelope(self, data):
        tree, req = data
        if len(req) > 10:
            req = req[:10]
        tour = nearest_neighbor_tour(tree, req)
        opt = held_karp_optimal(tree, req)
        assert opt <= tour.cost <= rosenkrantz_nn_bound(tree.n, len(req))
        assert tour.cost >= tsp_path_lower_bound(tree, req)

    @given(
        n=st.integers(min_value=2, max_value=200),
        seed=st.integers(0, 10**6),
        start_frac=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_list_tour_lemma43_and_44(self, n, seed, start_frac):
        import random

        rng = random.Random(seed)
        tree = RootedTree.from_path(list(range(n)))
        req = rng.sample(range(n), rng.randint(1, n))
        start = min(n - 1, int(start_frac * n))
        tour = nearest_neighbor_tour(tree, req, start=start)
        assert tour.cost <= list_tsp_bound(n)
        assert satisfies_lemma44(lemma44_legs(tour.order, start=start))

    @given(data=trees_with_requests(max_n=30))
    @settings(max_examples=40, deadline=None)
    def test_tour_visits_exactly_requests(self, data):
        tree, req = data
        tour = nearest_neighbor_tour(tree, req)
        assert sorted(tour.order) == sorted(req)
        assert len(tour.legs) == len(tour.order)
        assert all(leg >= 0 for leg in tour.legs)


class TestTowerProperties:
    @given(k=st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=200)
    def test_log_star_defining_identity(self, k):
        # log*(k) = 0 iff k <= 1 else 1 + log*(log2 k), via the tower form
        i = log_star(k)
        assert (i == 0) == (k <= 1)
        if i > 0:
            assert tow(i - 1) < k <= tow(i)

    @given(k=st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=100)
    def test_min_latency_consistent_with_log_star(self, k):
        t = min_latency_for_count(k)
        assert tow(2 * t) >= k if 2 * t <= 5 else True
        if t > 0:
            assert tow(2 * (t - 1)) < k

    @given(n=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=100)
    def test_theorem35_monotone_and_superadditive(self, n):
        lb_n = theorem35_lower_bound(n)
        lb_n1 = theorem35_lower_bound(n + 1)
        assert lb_n1 >= lb_n
        assert lb_n1 - lb_n == min_latency_for_count(n + 1)


class TestCheckpointProperties:
    """Checkpoint/restore determinism, adversarially sampled.

    For any graph, request set, and checkpoint cadence: snapshotting a
    run mid-flight and resuming from *every* stored checkpoint must
    reproduce the original event trace byte for byte.  This is the
    deterministic-replay contract the resilience layer's violation
    workflow (restore last checkpoint, step to the failure) rests on.
    """

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_restore_resume_replays_exact_trace(self, data):
        from repro.resilience import MonitorSet, PeriodicCheckpointer
        from repro.sim import EventTrace

        g = data.draw(connected_graphs(max_n=10), label="graph")
        k = data.draw(st.integers(1, g.n), label="k")
        req = data.draw(
            st.permutations(range(g.n)).map(lambda p: sorted(p[:k])),
            label="requests",
        )
        every = data.draw(st.integers(1, 6), label="every")

        t_full = EventTrace()
        run_central_counting(g, req, trace=t_full)

        cpr = PeriodicCheckpointer(every=every, keep=50)
        t_mon = EventTrace()
        run_central_counting(
            g, req, trace=t_mon, monitors=MonitorSet(checkpointer=cpr)
        )
        assert t_mon.events == t_full.events  # monitors perturb nothing
        for cp in cpr.checkpoints:
            restored = cp.restore()
            restored.resume()
            assert restored.trace.events == t_full.events
