"""Counting algorithms: correctness, delays, contention shapes."""

from __future__ import annotations

import random

import pytest

from helpers import random_tree, tree_as_graph
from repro.bounds import theorem35_lower_bound, theorem36_lower_bound
from repro.core.verify import VerificationError
from repro.counting import (
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
    run_sweep_counting,
    run_sweep_queuing,
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
    SpanningTree,
    bfs_spanning_tree,
    embedded_binary_tree,
    path_spanning_tree,
)


class TestCentral:
    def test_root_request_is_free(self):
        r = run_central_counting(path_graph(4), [0], root=0)
        assert r.counts == {0: 1} and r.delays[0] == 0

    def test_counts_follow_arrival_order_on_star(self):
        n = 6
        r = run_central_counting(star_graph(n), range(1, n), root=0)
        # leaves' requests arrive in id order (deterministic arbitration)
        assert r.counts == {v: v for v in range(1, n)}

    def test_round_trip_delay_on_path(self):
        n = 8
        r = run_central_counting(path_graph(n), [n - 1], root=0)
        # single request: n-1 hops there, n-1 back
        assert r.delays[n - 1] == 2 * (n - 1)

    def test_star_total_is_quadratic(self):
        totals = {}
        for n in (8, 16, 32):
            totals[n] = run_central_counting(star_graph(n), range(n)).total_delay
        assert totals[16] / totals[8] > 3.0
        assert totals[32] / totals[16] > 3.0

    def test_dominates_diameter_lower_bound(self):
        for n in (9, 17, 33):
            g = path_graph(n)
            r = run_central_counting(g, range(n), root=0)
            assert r.total_delay >= theorem36_lower_bound(n - 1)

    def test_queuing_variant_forms_chain(self):
        r = run_central_queuing(star_graph(8), range(8), root=0)
        assert len(r.predecessors) == 8
        assert r.total_delay > 0

    def test_queuing_matches_counting_cost_on_star(self):
        n = 16
        rc = run_central_counting(star_graph(n), range(n))
        rq = run_central_queuing(star_graph(n), range(n))
        assert rc.total_delay == rq.total_delay

    def test_nonroot_root_choice(self):
        r = run_central_counting(mesh_graph([3, 3]), range(9), root=4)
        assert sorted(r.counts.values()) == list(range(1, 10))

    @pytest.mark.parametrize("runner", [run_central_counting, run_central_queuing])
    @pytest.mark.parametrize("vertex", [5, -1])
    def test_out_of_range_request_rejected(self, runner, vertex):
        """A request outside the graph fails up front, naming the vertex,
        instead of running the engine and failing verification."""
        msg = rf"vertex {vertex} is not in path\(3\) \(n=3\)"
        with pytest.raises(ValueError, match=msg):
            runner(path_graph(3), [vertex])


@pytest.mark.parametrize(
    "runner",
    [run_flood_counting, run_counting_network, run_periodic_counting,
     run_sweep_counting, run_sweep_queuing],
)
@pytest.mark.parametrize("vertex", [5, -1])
def test_out_of_range_request_rejected(runner, vertex):
    """The flood, counting-network and sweep runners reject a request
    outside the graph before the run, as central and combining do."""
    msg = rf"vertex {vertex} is not in path\(3\) \(n=3\)"
    with pytest.raises(ValueError, match=msg):
        runner(path_graph(3), [vertex])


class TestCombining:
    def test_binary_tree_counts_valid(self):
        st = embedded_binary_tree(complete_graph(15))
        r = run_combining_counting(st, range(15))
        assert sorted(r.counts.values()) == list(range(1, 16))

    def test_root_gets_first_rank_in_its_interval(self):
        st = embedded_binary_tree(complete_graph(7))
        r = run_combining_counting(st, range(7))
        assert r.counts[0] == 1  # root takes base+1 of [1..7]

    def test_subset_requests(self):
        st = bfs_spanning_tree(mesh_graph([4, 4]))
        r = run_combining_counting(st, [3, 7, 11])
        assert sorted(r.counts.values()) == [1, 2, 3]

    def test_delay_scales_with_tree_height(self):
        shallow = run_combining_counting(
            embedded_binary_tree(complete_graph(31)), range(31)
        )
        deep = run_combining_counting(path_spanning_tree(path_graph(31)), range(31))
        assert shallow.total_delay < deep.total_delay

    def test_path_tree_total_quadratic(self):
        totals = {}
        for n in (16, 32, 64):
            st = path_spanning_tree(path_graph(n))
            totals[n] = run_combining_counting(st, range(n)).total_delay
        assert totals[32] / totals[16] > 3.0
        assert totals[64] / totals[32] > 3.0

    def test_capacity_speedup(self):
        st = bfs_spanning_tree(star_graph(16))
        strict = run_combining_counting(st, range(16), capacity=1)
        relaxed = run_combining_counting(st, range(16), capacity=4)
        assert relaxed.total_delay <= strict.total_delay

    @pytest.mark.parametrize("vertex", [5, -1])
    def test_out_of_range_request_rejected(self, vertex):
        st = path_spanning_tree(path_graph(3))
        msg = rf"vertex {vertex} is not in path\(3\) \(n=3\)"
        with pytest.raises(ValueError, match=msg):
            run_combining_counting(st, [vertex])

    def test_random_trees_always_valid(self):
        rng = random.Random(21)
        for trial in range(25):
            n = rng.randint(2, 40)
            t = random_tree(n, seed=trial)
            st = SpanningTree(tree_as_graph(t), t, label="rand")
            req = rng.sample(range(n), rng.randint(1, n))
            r = run_combining_counting(st, req)
            assert sorted(r.counts.values()) == list(range(1, len(set(req)) + 1))


class TestFlood:
    def test_node_zero_completes_immediately(self):
        r = run_flood_counting(complete_graph(8), range(8))
        assert r.delays[0] == 0 and r.counts[0] == 1

    def test_rank_by_id(self):
        r = run_flood_counting(complete_graph(8), [1, 4, 6])
        assert r.counts == {1: 1, 4: 2, 6: 3}

    def test_high_ids_wait_longer_on_average(self):
        n = 32
        r = run_flood_counting(complete_graph(n), range(n))
        low = sum(r.delays[v] for v in range(4))
        high = sum(r.delays[v] for v in range(n - 4, n))
        assert high > low

    def test_works_on_sparse_graphs(self):
        for g in (path_graph(12), mesh_graph([3, 4]), hypercube_graph(3)):
            r = run_flood_counting(g, range(g.n))
            assert sorted(r.counts.values()) == list(range(1, g.n + 1))

    def test_single_requester(self):
        r = run_flood_counting(path_graph(6), [5])
        assert r.counts == {5: 1}
        # node 5 must still learn the bits of nodes 0..4
        assert r.delays[5] >= 5

    def test_dominates_general_lower_bound(self):
        for n in (8, 16, 32):
            r = run_flood_counting(complete_graph(n), range(n))
            assert r.total_delay >= theorem35_lower_bound(n)

    def test_knowledge_masks_complete_and_deltas_disjoint(self, monkeypatch):
        """Every node ends knowing every bit, and no link carries a bit twice."""
        import repro.counting.flood as flood

        n = 64
        requests = range(0, n, 3)
        requested = sum(1 << v for v in requests)
        inner = {}
        carried: dict[tuple[int, int], int] = {}
        real_run_protocol = flood.run_protocol
        real_on_receive = flood._FloodNode.on_receive

        def keep(graph, nodes, **options):
            inner.update(nodes)
            return real_run_protocol(graph, nodes, **options)

        def check_delta(self, msg, ctx):
            delta, req = msg.payload
            link = (msg.src, msg.dst)
            before = carried.get(link, 0)
            assert delta and not delta & before, link
            assert req == delta & requested, link
            carried[link] = before | delta
            real_on_receive(self, msg, ctx)

        monkeypatch.setattr(flood, "run_protocol", keep)
        monkeypatch.setattr(flood._FloodNode, "on_receive", check_delta)
        g = mesh_graph([8, 8])
        run_flood_counting(g, requests)
        assert len(inner) == n
        for node in inner.values():
            assert node.known == (1 << n) - 1
            assert node.req == requested
        assert set(carried) == {(u, v) for u in g.vertices() for v in g.adj[u]}


class TestCountingNetwork:
    def test_counts_valid_full_load(self):
        r = run_counting_network(complete_graph(16), range(16))
        assert sorted(r.counts.values()) == list(range(1, 17))

    def test_counts_valid_subsets(self):
        rng = random.Random(31)
        for trial in range(10):
            n = rng.randint(4, 24)
            g = complete_graph(n)
            req = rng.sample(range(n), rng.randint(1, n))
            r = run_counting_network(g, req)
            assert sorted(r.counts.values()) == list(range(1, len(set(req)) + 1))

    def test_width_override(self):
        r = run_counting_network(complete_graph(12), range(12), width=4)
        assert sorted(r.counts.values()) == list(range(1, 13))

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            run_counting_network(complete_graph(8), range(8), width=6)

    def test_on_sparse_graph(self):
        g = mesh_graph([3, 3])
        r = run_counting_network(g, range(9), width=8)
        assert sorted(r.counts.values()) == list(range(1, 10))

    def test_deeper_network_costs_more(self):
        g = complete_graph(16)
        narrow = run_counting_network(g, range(16), width=2)
        wide = run_counting_network(g, range(16), width=16)
        # width 2: tokens all share one balancer (contention); width 16
        # spreads them across a deeper network.
        assert narrow.total_delay != wide.total_delay  # both valid, different shape


class TestVerificationHooks:
    def test_all_algorithms_verified_internally(self):
        """The runners call verify_counting; a broken monkeypatched engine
        would raise VerificationError rather than return bad counts."""
        g = complete_graph(6)
        for run in (
            lambda: run_central_counting(g, range(6)),
            lambda: run_flood_counting(g, range(6)),
            lambda: run_counting_network(g, range(6)),
            lambda: run_combining_counting(embedded_binary_tree(g), range(6)),
        ):
            r = run()
            assert sorted(r.counts.values()) == [1, 2, 3, 4, 5, 6]

    def test_verify_error_type_importable(self):
        assert issubclass(VerificationError, AssertionError)
