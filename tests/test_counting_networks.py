"""Balancing networks: bitonic and periodic constructions in depth."""

from __future__ import annotations

import math
import random

import pytest
from network_reference import (
    output_counts_have_step_property,
    traverse_interleaved,
    traverse_sequentially,
)

from repro.counting import (
    bitonic_network,
    network_depth,
    periodic_network,
    run_counting_network,
    run_periodic_counting,
)
from repro.topology import complete_graph, hypercube_graph, mesh_graph


class TestConstructionShape:
    @pytest.mark.parametrize("w", [2, 4, 8, 16, 32, 64])
    def test_bitonic_depth_and_size(self, w):
        net = bitonic_network(w)
        lw = int(math.log2(w))
        expected_depth = lw * (lw + 1) // 2
        assert network_depth(net) == expected_depth
        assert len(net.balancers) == (w // 2) * expected_depth

    @pytest.mark.parametrize("w", [2, 4, 8, 16, 32])
    def test_periodic_depth_and_size(self, w):
        net = periodic_network(w)
        lw = int(math.log2(w))
        assert network_depth(net) == lw * lw
        assert len(net.balancers) == (w // 2) * lw * lw

    def test_width_one_is_a_wire(self):
        for ctor in (bitonic_network, periodic_network):
            net = ctor(1)
            assert net.balancers == ()
            assert traverse_sequentially(net, [3]) == [1, 2, 3]

    @pytest.mark.parametrize("ctor", [bitonic_network, periodic_network])
    def test_non_power_of_two_rejected(self, ctor):
        with pytest.raises(ValueError):
            ctor(6)
        with pytest.raises(ValueError):
            ctor(0)

    def test_every_balancer_fully_wired(self):
        for ctor in (bitonic_network, periodic_network):
            for w in (2, 4, 8, 16):
                net = ctor(w)
                for b in net.balancers:
                    assert b.out[0] is not None and b.out[1] is not None

    def test_wrong_load_vector_rejected(self):
        net = bitonic_network(4)
        with pytest.raises(ValueError):
            traverse_sequentially(net, [1, 2])
        with pytest.raises(ValueError):
            traverse_interleaved(net, [1, 2, 3])


class TestCountingProperty:
    @pytest.mark.parametrize("ctor", [bitonic_network, periodic_network])
    @pytest.mark.parametrize("w", [2, 4, 8, 16])
    def test_sequential_outputs_exactly_1_to_x(self, ctor, w):
        rng = random.Random(w)
        for _ in range(30):
            load = [rng.randint(0, 5) for _ in range(w)]
            vals = traverse_sequentially(ctor(w), load)
            assert sorted(vals) == list(range(1, sum(load) + 1))

    @pytest.mark.parametrize("ctor", [bitonic_network, periodic_network])
    @pytest.mark.parametrize("w", [4, 8, 16])
    def test_interleaved_outputs_exactly_1_to_x(self, ctor, w):
        rng = random.Random(w * 7)
        for seed in range(25):
            load = [rng.randint(0, 4) for _ in range(w)]
            vals = traverse_interleaved(ctor(w), load, seed=seed)
            assert sorted(vals) == list(range(1, sum(load) + 1))

    @pytest.mark.parametrize("ctor", [bitonic_network, periodic_network])
    def test_step_property_of_output_loads(self, ctor):
        w = 8
        rng = random.Random(99)
        for _ in range(20):
            net = ctor(w)
            load = [rng.randint(0, 6) for _ in range(w)]
            vals = traverse_sequentially(net, load)
            out_counts = [0] * w
            for v in vals:
                out_counts[(v - 1) % w] += 1
            assert output_counts_have_step_property(out_counts)

    def test_step_property_helper(self):
        assert output_counts_have_step_property([3, 3, 2, 2])
        assert not output_counts_have_step_property([2, 3, 2, 2])
        assert not output_counts_have_step_property([3, 1, 2, 2])


class TestDistributedRuns:
    def test_periodic_on_complete_graph(self):
        r = run_periodic_counting(complete_graph(16), range(16))
        assert sorted(r.counts.values()) == list(range(1, 17))

    def test_periodic_on_sparse_graphs(self):
        for g in (mesh_graph([3, 3]), hypercube_graph(3)):
            r = run_periodic_counting(g, range(g.n), width=8)
            assert sorted(r.counts.values()) == list(range(1, g.n + 1))

    def test_periodic_subsets(self):
        rng = random.Random(4)
        for _ in range(8):
            n = rng.randint(4, 20)
            g = complete_graph(n)
            req = rng.sample(range(n), rng.randint(1, n))
            r = run_periodic_counting(g, req)
            assert sorted(r.counts.values()) == list(range(1, len(set(req)) + 1))

    def test_periodic_deeper_hence_slower_than_bitonic(self):
        g = complete_graph(32)
        bit = run_counting_network(g, range(32))
        per = run_periodic_counting(g, range(32))
        # periodic depth (log w)^2 > bitonic's log w (log w + 1)/2 for w > 2
        assert per.total_delay > bit.total_delay

    def test_periodic_invalid_width(self):
        with pytest.raises(ValueError):
            run_periodic_counting(complete_graph(8), range(8), width=5)
