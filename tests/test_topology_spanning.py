"""Spanning-tree constructions and validation."""

from __future__ import annotations

import pytest

from repro.topology import (
    complete_graph,
    hypercube_graph,
    mesh_graph,
    path_graph,
    perfect_mary_tree,
    star_graph,
)
from repro.topology.base import TopologyError
from repro.topology.spanning import (
    SpanningTree,
    bfs_spanning_tree,
    dfs_spanning_tree,
    embedded_binary_tree,
    embedded_mary_tree,
    path_spanning_tree,
    star_spanning_tree,
    validate_spanning_tree,
)
from repro.tree import RootedTree


class TestBFS:
    def test_bfs_tree_is_shortest_path_tree(self):
        from repro.topology.properties import bfs_distances

        g = mesh_graph([4, 4])
        st = bfs_spanning_tree(g, root=0)
        dist = bfs_distances(g, 0)
        for v in range(g.n):
            assert st.tree.depth[v] == dist[v]

    def test_bfs_on_star_has_hub_degree(self):
        st = bfs_spanning_tree(star_graph(7), root=0)
        assert st.max_degree() == 6

    def test_bfs_custom_root(self):
        st = bfs_spanning_tree(path_graph(5), root=2)
        assert st.root == 2
        assert st.tree.depth[0] == 2 and st.tree.depth[4] == 2


class TestDFS:
    def test_dfs_on_complete_graph_is_deep(self):
        st = dfs_spanning_tree(complete_graph(8))
        assert st.tree.height() == 7  # DFS on K_n yields a path

    def test_dfs_valid_everywhere(self):
        for g in (mesh_graph([3, 3]), hypercube_graph(3), path_graph(6)):
            st = dfs_spanning_tree(g)
            validate_spanning_tree(g, st.tree)


class TestPathTree:
    def test_path_tree_on_mesh(self):
        g = mesh_graph([3, 3])
        st = path_spanning_tree(g)
        assert st.max_degree() == 2
        assert st.tree.height() == g.n - 1

    def test_explicit_order(self):
        g = complete_graph(4)
        st = path_spanning_tree(g, order=[2, 0, 3, 1])
        assert st.root == 2
        assert st.tree.parent[0] == 2

    def test_bad_order_rejected(self):
        g = path_graph(4)
        with pytest.raises(TopologyError):
            path_spanning_tree(g, order=[0, 2, 1, 3])


class TestStarTree:
    def test_star_tree_on_complete(self):
        st = star_spanning_tree(complete_graph(6), hub=2)
        assert st.root == 2
        assert st.tree.height() == 1

    def test_star_tree_requires_adjacency(self):
        with pytest.raises(TopologyError):
            star_spanning_tree(path_graph(4), hub=0)


class TestEmbedded:
    def test_binary_on_complete(self):
        st = embedded_binary_tree(complete_graph(15))
        assert st.max_degree() == 3
        assert st.tree.height() == 3

    def test_mary_on_its_own_tree_graph(self):
        g = perfect_mary_tree(3, 2)
        st = embedded_mary_tree(g, 3)
        assert st.tree.children[0] == (1, 2, 3)

    def test_missing_heap_edge_rejected(self):
        with pytest.raises(TopologyError):
            embedded_binary_tree(path_graph(5))

    def test_invalid_m(self):
        with pytest.raises(TopologyError):
            embedded_mary_tree(complete_graph(5), 1)


class TestValidation:
    def test_size_mismatch(self):
        t = RootedTree([0, 0, 1])
        with pytest.raises(TopologyError):
            validate_spanning_tree(path_graph(4), t)

    def test_non_graph_edge(self):
        t = RootedTree([0, 0, 0])  # edges (0,1),(0,2); path 0-1-2 lacks (0,2)
        with pytest.raises(TopologyError):
            SpanningTree(path_graph(3), t)

    def test_as_graph_roundtrip(self):
        st = bfs_spanning_tree(mesh_graph([3, 3]))
        tg = st.as_graph()
        assert tg.n == 9 and tg.m == 8

    def test_as_graph_is_cached(self):
        st = bfs_spanning_tree(mesh_graph([3, 3]))
        assert st.as_graph() is st.as_graph()

    def test_reused_tree_runs_like_a_fresh_one(self):
        """A tree whose graph (and routing tables) earlier runs warmed
        gives the same arrow trace as a freshly built tree."""
        from repro import run_arrow
        from repro.sim import EventTrace

        def trace(st):
            tr = EventTrace()
            run_arrow(st, range(0, 16, 3), trace=tr)
            return tr.to_json()

        reused = path_spanning_tree(mesh_graph([4, 4]))
        first = trace(reused)
        assert trace(reused) == first
        assert trace(path_spanning_tree(mesh_graph([4, 4]))) == first
