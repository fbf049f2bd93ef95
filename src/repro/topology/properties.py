"""Graph property computations (distances, routing, diameter, degrees).

Theorem 3.6 ties the counting lower bound to the diameter, so the
experiment harness needs exact diameters; everything here is one
level-by-level BFS over plain Python lists, fast enough for the
n <= 10^4 instances the experiments use.  Distances are handed back
as int64 numpy arrays, imported by the functions that build them, so
the simulator, which only routes, never loads numpy.  Shortest-path
routing tables are lists cached on the graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.topology.base import Graph

if TYPE_CHECKING:
    import numpy as np


def check_vertices(graph: Graph, vertices: Iterable[int]) -> None:
    """Raise ``ValueError`` naming the first of ``vertices`` not in ``graph``."""
    n = graph.n
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} is not in {graph.name} (n={n})")


def _bfs(graph: Graph, source: int) -> list[int]:
    """Hop distances from ``source`` as a list (-1 if unreachable).

    Stops once every vertex has a distance, so K_n costs O(n), not O(n^2).
    """
    n = graph.n
    check_vertices(graph, (source,))
    adj = graph.adj
    dist = [-1] * n
    dist[source] = 0
    left = n - 1  # vertices still without a distance
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = d
                    nxt.append(v)
            if len(nxt) == left:
                return dist
        left -= len(nxt)
        frontier = nxt
    return dist


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every vertex (-1 if unreachable).

    Raises:
        ValueError: if ``source`` is not a vertex of ``graph``.
    """
    import numpy as np

    return np.array(_bfs(graph, source), dtype=np.int64)


def next_hops_toward(graph: Graph, dest: int) -> list[int]:
    """Shortest-path next hops toward ``dest``: ``hops[v]`` for every ``v``.

    ``hops[v]`` is the first neighbor in sorted ``adj[v]`` one hop closer
    to ``dest``; ``hops[dest] == dest`` and so does every vertex that
    cannot reach ``dest``.  The table is computed once per (graph,
    destination) and cached on the graph, so callers must not mutate it.

    Raises:
        ValueError: if ``dest`` is not a vertex (checked when the table is built).
    """
    tables = graph._next_hops
    hops = tables.get(dest)
    if hops is None:
        dist = _bfs(graph, dest)
        adj = graph.adj
        hops = list(range(graph.n))
        for v, dv in enumerate(dist):
            if dv == 1:
                hops[v] = dest  # the only vertex at distance 0
            elif dv > 1:
                for u in adj[v]:
                    if dist[u] == dist[v] - 1:
                        hops[v] = u
                        break
        tables[dest] = hops
    return hops


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """The full ``n x n`` hop-distance matrix (BFS from every vertex)."""
    import numpy as np

    n = graph.n
    out = np.empty((n, n), dtype=np.int64)
    for v in range(n):
        out[v] = bfs_distances(graph, v)
    return out


def eccentricity(graph: Graph, v: int) -> int:
    """The largest hop distance from ``v`` to any vertex.

    Raises:
        ValueError: if the graph is disconnected.
    """
    dist = bfs_distances(graph, v)
    if (dist < 0).any():
        raise ValueError(f"eccentricity undefined: {graph.name} is disconnected")
    return int(dist.max())


def diameter(graph: Graph) -> int:
    """The exact diameter: the largest eccentricity, by BFS from every vertex.

    Raises:
        ValueError: if the graph is disconnected.
    """
    return max(eccentricity(graph, v) for v in range(graph.n))


def max_degree(graph: Graph) -> int:
    """The maximum vertex degree."""
    return max(len(nbrs) for nbrs in graph.adj.values())


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected."""
    return not (bfs_distances(graph, 0) < 0).any()


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Mapping degree -> number of vertices with that degree."""
    hist: dict[int, int] = {}
    for nbrs in graph.adj.values():
        d = len(nbrs)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
