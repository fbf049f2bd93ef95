"""Ordered multicast and token mutual exclusion."""

from __future__ import annotations

import random

import pytest

from repro.multicast import run_counting_multicast, run_queuing_multicast
from repro.mutex import run_token_mutex
from repro.topology import complete_graph, mesh_graph, path_graph
from repro.topology.spanning import (
    bfs_spanning_tree,
    embedded_binary_tree,
    path_spanning_tree,
)


class TestMulticast:
    def setup_method(self):
        self.g = mesh_graph([3, 3])
        self.st = bfs_spanning_tree(self.g)

    def test_counting_flavour_delivers_everywhere(self):
        out = run_counting_multicast(self.g, self.st, [0, 4, 8])
        assert out.flavour == "counting"
        assert len(out.delivery_times) == 9 * 3
        assert sorted(out.delivery_order) == [0, 4, 8]

    def test_queuing_flavour_delivers_everywhere(self):
        out = run_queuing_multicast(self.g, self.st, [0, 4, 8])
        assert out.flavour == "queuing"
        assert sorted(out.delivery_order) == [0, 4, 8]

    def test_counting_order_follows_sequence_numbers(self):
        out = run_counting_multicast(self.g, self.st, [2, 6])
        # delivery order must be the sequence-number order, whatever it is
        assert len(out.delivery_order) == 2

    def test_single_sender(self):
        out = run_queuing_multicast(self.g, self.st, [5])
        assert out.delivery_order == (5,)
        assert out.completion_time >= 1

    def test_queuing_coordination_cheaper_at_scale(self):
        g = complete_graph(16)
        st = path_spanning_tree(g)
        mc = run_counting_multicast(g, st, range(16))
        mq = run_queuing_multicast(g, st, range(16))
        assert mq.total_coordination_delay < mc.total_coordination_delay

    def test_total_coordination_delay_property(self):
        out = run_queuing_multicast(self.g, self.st, [0, 8])
        assert out.total_coordination_delay == sum(
            out.coordination_delays.values()
        )

    def test_random_instances_consistent(self):
        rng = random.Random(13)
        for trial in range(10):
            n = rng.randint(2, 12)
            g = complete_graph(n)
            st = path_spanning_tree(g)
            senders = rng.sample(range(n), rng.randint(1, n))
            for run in (run_counting_multicast, run_queuing_multicast):
                out = run(g, st, senders)
                assert sorted(out.delivery_order) == sorted(set(senders))


class TestMutex:
    def test_all_enter_in_queue_order(self):
        st = path_spanning_tree(path_graph(6))
        out = run_token_mutex(st, range(6), cs_rounds=1)
        assert sorted(out.order) == list(range(6))
        assert out.exclusive_holding()

    def test_cs_duration_spacing(self):
        st = path_spanning_tree(path_graph(5))
        out = run_token_mutex(st, range(5), cs_rounds=4)
        entries = sorted(out.acquire_rounds.values())
        assert all(b - a >= 4 for a, b in zip(entries, entries[1:]))

    def test_zero_length_cs(self):
        st = path_spanning_tree(path_graph(5))
        out = run_token_mutex(st, range(5), cs_rounds=0)
        assert len(out.acquire_rounds) == 5

    def test_single_requester(self):
        st = path_spanning_tree(path_graph(4))
        out = run_token_mutex(st, [3])
        assert out.order == (3,)
        # token travels from tail 0 to node 3 after its request arrives
        assert out.acquire_rounds[3] >= 3

    def test_tail_requester_enters_at_zero(self):
        st = path_spanning_tree(path_graph(4))
        out = run_token_mutex(st, [0, 2])
        assert out.acquire_rounds[0] == 0

    def test_custom_tail(self):
        st = path_spanning_tree(path_graph(5))
        out = run_token_mutex(st, [0, 4], tail=4)
        assert out.order[0] == 4

    def test_binary_tree_topology(self):
        st = embedded_binary_tree(complete_graph(15))
        out = run_token_mutex(st, range(15), cs_rounds=2)
        assert out.exclusive_holding()
        assert len(out.order) == 15

    def test_invalid_cs_rounds(self):
        st = path_spanning_tree(path_graph(3))
        with pytest.raises(ValueError):
            run_token_mutex(st, [1], cs_rounds=-1)

    def test_total_waiting_metric(self):
        st = path_spanning_tree(path_graph(4))
        out = run_token_mutex(st, range(4))
        assert out.total_waiting == sum(out.acquire_rounds.values())

    def test_random_instances_safe(self):
        from helpers import random_tree, tree_as_graph
        from repro.topology.spanning import SpanningTree

        rng = random.Random(19)
        for trial in range(20):
            n = rng.randint(2, 25)
            t = random_tree(n, seed=trial + 900, max_children=3)
            st = SpanningTree(tree_as_graph(t), t, label="rand")
            req = rng.sample(range(n), rng.randint(1, n))
            out = run_token_mutex(
                st, req, cs_rounds=rng.randint(0, 3), tail=rng.randrange(n)
            )
            assert sorted(out.order) == sorted(set(req))
            assert out.exclusive_holding()
