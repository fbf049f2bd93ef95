"""RootedTree: construction, LCA, distances, paths."""

from __future__ import annotations

import random

import pytest

from helpers import random_tree, tree_as_graph
from repro.topology.properties import bfs_distances
from repro.tree import RootedTree, TreeError


class TestConstruction:
    def test_single_vertex(self):
        t = RootedTree([0])
        assert t.n == 1 and t.root == 0 and t.height() == 0

    def test_parent_list(self):
        t = RootedTree([0, 0, 0, 1, 1])
        assert t.root == 0
        assert t.children[0] == (1, 2)
        assert t.children[1] == (3, 4)
        assert t.depth == (0, 1, 1, 2, 2)

    def test_parent_mapping(self):
        t = RootedTree({0: 0, 1: 0, 2: 1})
        assert t.depth[2] == 2

    def test_missing_vertex_in_mapping(self):
        with pytest.raises(TreeError):
            RootedTree({0: 0, 2: 0})

    def test_no_root_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([1, 0])  # two roots? 0->1, 1->0 is a cycle, no self-parent

    def test_two_roots_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([0, 1, 0])

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([0, 2, 1])

    def test_empty_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([])

    def test_from_path(self):
        t = RootedTree.from_path([3, 1, 0, 2])
        assert t.root == 3
        assert t.parent[1] == 3 and t.parent[0] == 1 and t.parent[2] == 0
        assert t.height() == 3

    def test_from_edges(self):
        t = RootedTree.from_edges(4, [(0, 1), (1, 2), (1, 3)], root=1)
        assert t.root == 1
        assert sorted(t.children[1]) == [0, 2, 3]

    def test_from_edges_wrong_count(self):
        with pytest.raises(TreeError):
            RootedTree.from_edges(4, [(0, 1), (1, 2)])

    def test_from_edges_disconnected(self):
        with pytest.raises(TreeError):
            RootedTree.from_edges(4, [(0, 1), (0, 1), (2, 3)])


class TestQueries:
    def make(self):
        #        0
        #      /   \
        #     1     2
        #    / \     \
        #   3   4     5
        #  /
        # 6
        return RootedTree([0, 0, 0, 1, 1, 2, 3])

    def test_lca(self):
        t = self.make()
        assert t.lca(3, 4) == 1
        assert t.lca(6, 4) == 1
        assert t.lca(6, 5) == 0
        assert t.lca(2, 5) == 2
        assert t.lca(0, 6) == 0
        assert t.lca(4, 4) == 4

    def test_distance(self):
        t = self.make()
        assert t.distance(6, 5) == 5
        assert t.distance(3, 4) == 2
        assert t.distance(0, 0) == 0
        assert t.distance(6, 6) == 0

    def test_ancestor(self):
        t = self.make()
        assert t.ancestor(6, 1) == 3
        assert t.ancestor(6, 3) == 0
        assert t.ancestor(6, 99) == 0  # clamped at root

    def test_degree(self):
        t = self.make()
        assert t.degree(0) == 2
        assert t.degree(1) == 3
        assert t.degree(6) == 1
        assert t.max_degree() == 3

    def test_edges(self):
        t = self.make()
        assert sorted(t.edges()) == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6)]

    def test_distance_matches_bfs_on_random_trees(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(2, 40)
            t = random_tree(n, seed=trial)
            g = tree_as_graph(t)
            src = rng.randrange(n)
            dist = bfs_distances(g, src)
            for v in range(n):
                assert t.distance(src, v) == dist[v]


def _lca_by_walking(t: RootedTree, u: int, v: int) -> int:
    while t.depth[u] > t.depth[v]:
        u = t.parent[u]
    while t.depth[v] > t.depth[u]:
        v = t.parent[v]
    while u != v:
        u, v = t.parent[u], t.parent[v]
    return u


def _lazy_cases():
    from repro.topology import (
        bfs_spanning_tree,
        mesh_graph,
        path_graph,
        path_spanning_tree,
        star_graph,
        star_spanning_tree,
    )
    from repro.topology.spanning import SpanningTree

    rt = random_tree(60, seed=5)
    return {
        "path": path_spanning_tree(path_graph(33)),
        "star": star_spanning_tree(star_graph(17)),
        "bfs-mesh": bfs_spanning_tree(mesh_graph([6, 7])),
        "random": SpanningTree(tree_as_graph(rt), rt, label="random"),
    }


class TestLazyTreeWork:
    """The tree work only some callers read is deferred, not changed."""

    @pytest.mark.parametrize("name", ["path", "star", "bfs-mesh", "random"])
    def test_max_degree_and_lca_unchanged(self, name):
        sp = _lazy_cases()[name]
        t = sp.tree
        assert sp.max_degree() == max(t.degree(v) for v in range(t.n))
        assert sp.max_degree() == t.max_degree()
        assert t._up is None  # built on the first query, not in __init__
        rng = random.Random(name)
        for _ in range(200):
            u, v = rng.randrange(t.n), rng.randrange(t.n)
            a = _lca_by_walking(t, u, v)
            assert t.lca(u, v) == a
            assert t.distance(u, v) == t.depth[u] + t.depth[v] - 2 * t.depth[a]
            k = rng.randrange(t.n + 2)
            w = u
            for _ in range(k):
                w = t.parent[w]
            assert t.ancestor(u, k) == w
        assert t._up is not None
