"""Property-based tests over the extension subsystems.

Hypothesis-driven invariants for the modules added beyond the paper's
core: the directory, fetch-and-add, sweep algorithms, and the delay
models — mirroring the property coverage the core protocols get in
``test_property_hypothesis.py``.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adding import run_combining_addition
from repro.counting import run_sweep_counting, run_sweep_queuing
from repro.core.verify import verify_counting, verify_queuing
from repro.directory import run_object_directory
from repro.sim import UniformDelay
from repro.topology import complete_graph
from repro.topology.base import Graph
from repro.topology.spanning import SpanningTree
from repro.tree import random_tree


@st.composite
def tree_instance(draw, max_n=24):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(0, 10**6))
    tree = random_tree(n, seed=seed, max_children=3)
    g = Graph.from_edges(n, tree.edges(), name="ext-tree")
    k = draw(st.integers(min_value=1, max_value=n))
    rng = random.Random(seed)
    req = sorted(rng.sample(range(n), k))
    return SpanningTree(g, tree, label="ext"), req, seed


class TestDirectoryProperties:
    @given(data=tree_instance())
    @settings(max_examples=40, deadline=None)
    def test_every_requester_acquires_exclusively(self, data):
        st_, req, seed = data
        g = st_.graph
        home = seed % g.n
        use = seed % 3
        out = run_object_directory(g, st_, req, use_rounds=use, home=home)
        assert sorted(out.order) == req
        assert out.exclusive_holding()

    @given(data=tree_instance(max_n=16))
    @settings(max_examples=20, deadline=None)
    def test_directory_under_delays(self, data):
        st_, req, seed = data
        out = run_object_directory(
            st_.graph, st_, req, delay_model=UniformDelay(1, 3, seed=seed)
        )
        assert sorted(out.order) == req


class TestAdditionProperties:
    @given(
        data=tree_instance(),
        deltas=st.lists(st.integers(-20, 20), min_size=24, max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_prefix_sum_consistency(self, data, deltas):
        st_, req, _seed = data
        incs = {v: deltas[i % len(deltas)] for i, v in enumerate(req)}
        r = run_combining_addition(st_, incs)
        last = r.order[-1]
        assert r.prior_sums[last] + incs[last] == sum(incs.values())

    @given(data=tree_instance(max_n=20))
    @settings(max_examples=25, deadline=None)
    def test_delay_obliviousness(self, data):
        st_, req, seed = data
        rng = random.Random(seed)
        a = run_combining_addition(st_, {v: 1 for v in req})
        b = run_combining_addition(st_, {v: rng.randint(-9, 9) for v in req})
        assert a.delays == b.delays


class TestSweepProperties:
    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_counting_rank_equals_path_position(self, n, seed):
        rng = random.Random(seed)
        g = complete_graph(n)
        req = sorted(rng.sample(range(n), rng.randint(1, n)))
        r = run_sweep_counting(g, req)
        verify_counting(req, r.counts)
        # ranks follow id order (the sweep order on K_n is 0..n-1)
        assert [v for v, _ in sorted(r.counts.items())] == req
        assert [r.counts[v] for v in req] == list(range(1, len(req) + 1))

    @given(
        n=st.integers(min_value=2, max_value=40),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_queuing_chain_valid(self, n, seed):
        rng = random.Random(seed)
        g = complete_graph(n)
        req = sorted(rng.sample(range(n), rng.randint(1, n)))
        r = run_sweep_queuing(g, req)
        chain = verify_queuing(req, r.predecessors, tail=0)
        assert [op[1] for op in chain] == req

    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(0, 10**6),
        hi=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_sweep_correct_under_delays(self, n, seed, hi):
        rng = random.Random(seed)
        g = complete_graph(n)
        req = sorted(rng.sample(range(n), rng.randint(1, n)))
        r = run_sweep_counting(g, req, delay_model=UniformDelay(1, hi, seed=seed))
        verify_counting(req, r.counts)


class TestRandomTreeProperties:
    @given(
        n=st.integers(min_value=1, max_value=100),
        seed=st.integers(0, 10**6),
        cap=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    )
    @settings(max_examples=60)
    def test_random_tree_valid_and_capped(self, n, seed, cap):
        t = random_tree(n, seed=seed, max_children=cap)
        assert t.n == n
        if cap is not None:
            assert all(len(t.children[v]) <= cap for v in range(n))
        # deterministic
        t2 = random_tree(n, seed=seed, max_children=cap)
        assert t.parent == t2.parent
