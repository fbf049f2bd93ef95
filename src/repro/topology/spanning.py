"""Spanning trees of communication graphs.

The arrow protocol runs on a spanning tree chosen at initialization
(Section 4 of the paper); the quality of the tree determines the queuing
upper bound:

* a Hamilton path as spanning tree gives CQ = O(n) (Theorem 4.5);
* a perfect m-ary spanning tree gives CQ = O(n) (Theorem 4.12);
* any constant-degree spanning tree gives CQ = O(n log n) (Corollary 4.2).

:class:`SpanningTree` binds a :class:`~repro.tree.RootedTree` to the host
graph it spans, with validation that every tree edge is a graph edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.topology.base import Graph, TopologyError
from repro.topology.hamilton import hamilton_path_of
from repro.tree import RootedTree


@dataclass(frozen=True)
class SpanningTree:
    """A rooted spanning tree of a host graph.

    Attributes:
        graph: the host communication graph.
        tree: the rooted tree; every tree edge must exist in ``graph``.
        label: how the tree was constructed (for experiment reports).
    """

    graph: Graph
    tree: RootedTree
    label: str = "spanning"

    def __post_init__(self) -> None:
        validate_spanning_tree(self.graph, self.tree)

    @property
    def root(self) -> int:
        """Root vertex of the tree."""
        return self.tree.root

    @property
    def n(self) -> int:
        """Number of vertices (same as the host graph)."""
        return self.tree.n

    def max_degree(self) -> int:
        """Maximum degree within the tree (drives arrow's expanded steps).

        Computed once, from the tree's cached graph.
        """
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        return max(map(len, self._graph.adj.values()))

    def as_graph(self) -> Graph:
        """The tree itself as a :class:`Graph` (for running protocols on it).

        Built on the first call and cached on the tree, so every run on
        one tree shares one graph and its routing tables.
        """
        return self._graph

    @cached_property
    def _graph(self) -> Graph:
        return Graph.from_edges(self.n, self.tree.edges(), name=f"tree[{self.label}]")


def validate_spanning_tree(graph: Graph, tree: RootedTree) -> None:
    """Check that ``tree`` spans ``graph`` using only graph edges.

    Raises:
        TopologyError: on vertex-set mismatch or a tree edge missing from
            the graph.
    """
    if tree.n != graph.n:
        raise TopologyError(f"tree has {tree.n} vertices, graph has {graph.n}")
    for p, c in tree.edges():
        if not graph.has_edge(p, c):
            raise TopologyError(f"tree edge ({p},{c}) is not a graph edge")


def bfs_spanning_tree(graph: Graph, root: int = 0) -> SpanningTree:
    """Breadth-first spanning tree rooted at ``root`` (shortest-path tree)."""
    from repro.topology.properties import next_hops_toward  # local: avoid cycle

    # Each vertex's parent is its smallest-id neighbor one level closer.
    par = next_hops_toward(graph, root)
    if any(p == v != root for v, p in enumerate(par)):
        raise TopologyError("graph is disconnected; no spanning tree")
    tree = RootedTree(par, root=root)
    return SpanningTree(graph, tree, label=f"bfs(root={root})")


def dfs_spanning_tree(graph: Graph, root: int = 0) -> SpanningTree:
    """Depth-first spanning tree rooted at ``root`` (tends to be deep)."""
    n = graph.n
    par = list(range(n))
    seen = [False] * n
    # Mark on pop (not on push) so the tree is a genuine depth-first tree:
    # on K_n this yields a Hamilton path, not a star.
    stack: list[tuple[int, int]] = [(root, root)]
    while stack:
        v, p = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        par[v] = p
        for u in reversed(graph.adj[v]):
            if not seen[u]:
                stack.append((u, v))
    if not all(seen):
        raise TopologyError("graph is disconnected; no spanning tree")
    tree = RootedTree(par, root=root)
    return SpanningTree(graph, tree, label=f"dfs(root={root})")


def path_spanning_tree(graph: Graph, order: Sequence[int] | None = None) -> SpanningTree:
    """A Hamilton-path spanning tree (Theorem 4.5's choice).

    Args:
        graph: the host graph.
        order: an explicit Hamilton path; when omitted, a construction is
            found via :func:`repro.topology.hamilton.hamilton_path_of`.

    Raises:
        TopologyError: if ``order`` is not a Hamilton path of ``graph``.
    """
    if order is None:
        order = hamilton_path_of(graph)
    from repro.topology.hamilton import is_hamilton_path

    if not is_hamilton_path(graph, order):
        raise TopologyError("given order is not a Hamilton path of the graph")
    tree = RootedTree.from_path(list(order))
    return SpanningTree(graph, tree, label="hamilton_path")


def star_spanning_tree(graph: Graph, hub: int = 0) -> SpanningTree:
    """The depth-1 star tree rooted at ``hub`` (requires hub adjacent to all).

    This is the natural (and only) spanning tree of the star graph, and a
    legal — maximally contended — choice on the complete graph.
    """
    n = graph.n
    par = list(range(n))
    for v in range(n):
        if v != hub:
            if not graph.has_edge(hub, v):
                raise TopologyError(f"hub {hub} not adjacent to {v}")
            par[v] = hub
    return SpanningTree(graph, RootedTree(par, root=hub), label=f"star(hub={hub})")


def embedded_mary_tree(graph: Graph, m: int, root: int = 0) -> SpanningTree:
    """The heap-ordered m-ary tree over vertex ids, as a spanning tree.

    Vertex ``v``'s children are ``m*v + 1 .. m*v + m`` (when < n).  Valid
    whenever all heap edges exist in the graph — always on the complete
    graph (the embedding used for Theorem 4.12 experiments on K_n), and by
    construction on :func:`repro.topology.perfect_mary_tree` graphs.

    Raises:
        TopologyError: if a heap edge is missing from the graph.
    """
    if m < 2:
        raise TopologyError(f"m must be >= 2, got {m}")
    if root != 0:
        raise TopologyError("heap embedding requires root 0")
    n = graph.n
    par = list(range(n))
    for v in range(1, n):
        p = (v - 1) // m
        if not graph.has_edge(p, v):
            raise TopologyError(f"heap edge ({p},{v}) is not a graph edge")
        par[v] = p
    return SpanningTree(graph, RootedTree(par, root=0), label=f"mary(m={m})")


def embedded_binary_tree(graph: Graph, root: int = 0) -> SpanningTree:
    """The heap-ordered binary spanning tree (Section 4.2's perfect binary tree)."""
    return embedded_mary_tree(graph, 2, root=root)
