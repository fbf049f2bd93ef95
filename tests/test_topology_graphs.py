"""Graph constructors: sizes, degrees, diameters, validation."""

from __future__ import annotations

import pytest

from repro.topology import (
    binary_tree_graph,
    caterpillar_graph,
    complete_graph,
    diameter,
    hypercube_graph,
    is_connected,
    lollipop_graph,
    max_degree,
    mesh_graph,
    path_graph,
    perfect_mary_tree,
    random_regular_graph,
    ring_graph,
    star_graph,
    torus_graph,
)
from repro.topology.base import Graph, TopologyError


class TestGraphBase:
    def test_from_edges_basics(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.neighbors(1) == (0, 2)
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(2, [(0, 2)])

    def test_empty_graph_rejected(self):
        with pytest.raises(TopologyError):
            Graph.from_edges(0, [])

    def test_repr_mentions_name(self):
        assert "path(5)" in repr(path_graph(5))


class TestPathRingStar:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_path(self, n):
        g = path_graph(n)
        assert g.n == n and g.m == n - 1
        assert is_connected(g)
        if n > 1:
            assert diameter(g) == n - 1
            assert g.degree(0) == 1 and g.degree(n - 1) == 1

    def test_ring(self):
        g = ring_graph(6)
        assert g.m == 6 and all(g.degree(v) == 2 for v in g.vertices())
        assert diameter(g) == 3

    def test_ring_too_small(self):
        with pytest.raises(TopologyError):
            ring_graph(2)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_star(self, n):
        g = star_graph(n)
        assert g.degree(0) == n - 1
        assert all(g.degree(v) == 1 for v in range(1, n))
        assert diameter(g) == (2 if n > 2 else 1)

    def test_star_too_small(self):
        with pytest.raises(TopologyError):
            star_graph(1)


class TestComplete:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_complete(self, n):
        g = complete_graph(n)
        assert g.m == n * (n - 1) // 2
        assert diameter(g) == 1
        assert max_degree(g) == n - 1


class TestMeshTorus:
    def test_mesh_2d_structure(self):
        g = mesh_graph([3, 4])
        assert g.n == 12
        # interior vertex degree 4, corner degree 2
        corners = [v for v, nbrs in g.adj.items() if len(nbrs) == 2]
        assert len(corners) == 4
        assert diameter(g) == (3 - 1) + (4 - 1)

    def test_mesh_edge_count_2d(self):
        r, c = 5, 7
        g = mesh_graph([r, c])
        assert g.m == r * (c - 1) + c * (r - 1)

    def test_mesh_3d_diameter(self):
        g = mesh_graph([3, 3, 3])
        assert g.n == 27
        assert diameter(g) == 6

    def test_mesh_1d_is_path(self):
        g = mesh_graph([7])
        assert g.m == 6 and diameter(g) == 6

    def test_mesh_invalid(self):
        with pytest.raises(TopologyError):
            mesh_graph([])
        with pytest.raises(TopologyError):
            mesh_graph([0, 3])

    def test_torus_regular(self):
        g = torus_graph([4, 4])
        assert all(g.degree(v) == 4 for v in g.vertices())
        assert diameter(g) == 4

    def test_torus_invalid(self):
        with pytest.raises(TopologyError):
            torus_graph([2, 4])


class TestHypercube:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_hypercube(self, d):
        g = hypercube_graph(d)
        assert g.n == 2**d
        assert all(g.degree(v) == d for v in g.vertices())
        assert diameter(g) == d

    def test_hypercube_neighbors_differ_one_bit(self):
        g = hypercube_graph(4)
        for u, v in g.edges():
            assert bin(u ^ v).count("1") == 1

    def test_hypercube_invalid(self):
        with pytest.raises(TopologyError):
            hypercube_graph(0)


class TestTrees:
    @pytest.mark.parametrize("m,depth", [(2, 0), (2, 3), (3, 2), (4, 2)])
    def test_perfect_mary_tree(self, m, depth):
        g = perfect_mary_tree(m, depth)
        assert g.n == (m ** (depth + 1) - 1) // (m - 1)
        assert g.m == g.n - 1
        assert is_connected(g)
        if depth >= 1:
            assert g.degree(0) == m  # root
            assert max_degree(g) == m + 1 if depth >= 2 else m

    def test_perfect_mary_invalid(self):
        with pytest.raises(TopologyError):
            perfect_mary_tree(1, 2)
        with pytest.raises(TopologyError):
            perfect_mary_tree(2, -1)

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 31])
    def test_binary_tree(self, n):
        g = binary_tree_graph(n)
        assert g.m == n - 1
        assert max_degree(g) <= 3
        assert is_connected(g)

    def test_binary_tree_depths_differ_at_most_one(self):
        from repro.tree import RootedTree

        g = binary_tree_graph(21)
        t = RootedTree.from_edges(21, g.edges(), root=0)
        leaf_depths = {t.depth[v] for v in range(21) if not t.children[v]}
        assert max(leaf_depths) - min(leaf_depths) <= 1


class TestHighDiameterFamilies:
    def test_caterpillar(self):
        g = caterpillar_graph(5, 2)
        assert g.n == 15 and g.m == 14
        assert is_connected(g)
        assert diameter(g) == 4 + 2  # spine ends' legs add 2

    def test_caterpillar_no_legs(self):
        g = caterpillar_graph(6, 0)
        assert g.n == 6 and diameter(g) == 5

    def test_caterpillar_invalid(self):
        with pytest.raises(TopologyError):
            caterpillar_graph(1, 1)

    def test_lollipop(self):
        g = lollipop_graph(4, 5)
        assert g.n == 9
        assert g.m == 6 + 1 + 4
        assert diameter(g) == 1 + 5

    def test_lollipop_invalid(self):
        with pytest.raises(TopologyError):
            lollipop_graph(0, 3)


class TestRandomRegular:
    def test_regular_and_connected(self):
        g = random_regular_graph(20, 3, seed=1)
        assert all(g.degree(v) == 3 for v in g.vertices())
        assert is_connected(g)

    def test_deterministic_for_seed(self):
        g1 = random_regular_graph(16, 4, seed=7)
        g2 = random_regular_graph(16, 4, seed=7)
        assert list(g1.edges()) == list(g2.edges())

    def test_infeasible_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_graph(5, 3, seed=0)  # n*d odd
        with pytest.raises(TopologyError):
            random_regular_graph(4, 4, seed=0)  # d >= n
