"""The shared shortest-path routing tables (``next_hops_toward``).

One table per (graph, destination), cached on the immutable graph.  The
tables must pick exactly the next hop every protocol picked before the
cache existed — the first neighbor in sorted ``adj[v]`` one hop closer —
and the cache must carry no run state: a run on a warm graph is
byte-identical to a run on a fresh one.  Expected distances come from a
Floyd-Warshall reference, not from the BFS under test.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import run_central_counting, run_counting_network
from repro.directory import run_object_directory
from repro.sim import EventTrace
from repro.topology import (
    all_pairs_distances,
    bfs_distances,
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    next_hops_toward,
    path_graph,
    ring_graph,
    star_graph,
)
from repro.topology.base import Graph


@st.composite
def graphs(draw, max_n=20):
    """A random graph: a relabelled random tree (or, for disconnected
    graphs, none) plus extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    edges = set()
    if draw(st.booleans()):
        edges = {
            (label[v], label[draw(st.integers(min_value=0, max_value=v - 1))])
            for v in range(1, n)
        }
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges |= {(u, v) for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    return Graph.from_edges(n, edges, name=f"hyp({n})")


def reference_distances(g: Graph) -> list[list[int]]:
    """All-pairs hop distances by Floyd-Warshall, -1 where unreachable.

    Independent of the BFS under test: it relaxes every (i, k, j) triple.
    """
    n = g.n
    far = n  # longer than any simple path
    d = [[0 if u == v else 1 if v in g.adj[u] else far for v in range(n)] for u in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return [[x if x < far else -1 for x in row] for row in d]


def assert_first_closer_neighbor(g: Graph) -> None:
    dist = reference_distances(g)
    for dest in g.vertices():
        hops = next_hops_toward(g, dest)
        d = dist[dest]
        for v in g.vertices():
            if v == dest or d[v] < 0:
                expected = v
            else:
                expected = next(u for u in g.adj[v] if d[u] == d[v] - 1)
            assert hops[v] == expected, (g.name, dest, v)


class TestNextHopsToward:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_random_graphs(self, g):
        assert_first_closer_neighbor(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_bfs_distances_match_reference(self, g):
        dist = reference_distances(g)
        for source in g.vertices():
            assert bfs_distances(g, source).tolist() == dist[source], (g.name, source)
        assert all_pairs_distances(g).tolist() == dist

    @pytest.mark.parametrize(
        "g",
        [star_graph(9), complete_graph(7), mesh_graph([3, 4]), path_graph(8), ring_graph(9)],
        ids=lambda g: g.name,
    )
    def test_families(self, g):
        assert_first_closer_neighbor(g)

    def test_second_call_returns_cached_table(self):
        g = mesh_graph([3, 3])
        assert next_hops_toward(g, 4) is next_hops_toward(g, 4)
        assert next_hops_toward(g, 0) is not next_hops_toward(g, 4)

    def test_unreachable_vertices_map_to_themselves(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert next_hops_toward(g, 0) == [0, 0, 2, 3]

    def test_bfs_distances_contract_on_disconnected_graph(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        dist = bfs_distances(g, 1)
        assert isinstance(dist, np.ndarray) and dist.dtype == np.int64
        assert dist.tolist() == [1, 0, 1, -1, -1]

    def test_out_of_range_source_named(self):
        with pytest.raises(ValueError, match=r"vertex -1 is not in path\(4\)"):
            bfs_distances(path_graph(4), -1)

    def test_out_of_range_destination_named(self):
        with pytest.raises(ValueError, match=r"vertex 9 is not in path\(4\)"):
            next_hops_toward(path_graph(4), 9)


class TestGraphCache:
    def test_deepcopy_shares_the_graph(self):
        g = ring_graph(6)
        next_hops_toward(g, 0)
        assert copy.deepcopy(g) is g
        assert copy.deepcopy({"g": g})["g"] is g

    def test_pickle_leaves_out_the_routing_cache(self):
        g = mesh_graph([4, 4])
        cold = pickle.dumps(g)
        for dest in g.vertices():
            next_hops_toward(g, dest)
        assert pickle.dumps(g) == cold
        back = pickle.loads(cold)
        assert back == g and back.name == g.name
        assert next_hops_toward(back, 5) == next_hops_toward(g, 5)


def _traced(run, g, *args, **kwargs):
    t = EventTrace()
    out = run(g, *args, trace=t, **kwargs)
    return t.to_json(), out


class TestColdVsWarm:
    """The same Graph object, first fresh, then with a warm cache."""

    def test_counting_network(self):
        g = mesh_graph([3, 4])
        cold = _traced(run_counting_network, g, range(0, 12, 2))
        assert g._next_hops
        warm = _traced(run_counting_network, g, range(0, 12, 2))
        assert warm == cold

    def test_central_counting(self):
        g = ring_graph(10)
        cold = _traced(run_central_counting, g, range(10), root=3)
        assert g._next_hops
        warm = _traced(run_central_counting, g, range(10), root=3)
        assert warm == cold

    def test_object_directory(self):
        g = mesh_graph([3, 4])
        sp = bfs_spanning_tree(g)
        cold = _traced(run_object_directory, g, sp, range(1, 12, 3))
        assert len(g._next_hops) > 1
        warm = _traced(run_object_directory, g, sp, range(1, 12, 3))
        assert warm == cold
