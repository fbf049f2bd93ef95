"""Constructors for the graph families in the paper.

Vertex labelling conventions (used throughout tests and experiments):

* ``path_graph`` / ``ring_graph``: vertices in path/ring order.
* ``star_graph``: vertex 0 is the hub.
* ``mesh_graph`` / ``torus_graph``: row-major order over the given dims.
* ``hypercube_graph``: vertex ids are the corner bit strings.
* ``perfect_mary_tree`` / ``binary_tree_graph``: heap order — the children
  of vertex ``v`` are ``m*v + 1 .. m*v + m``, so vertex 0 is the root.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.topology.base import Graph, TopologyError


def path_graph(n: int) -> Graph:
    """The list (path) on ``n`` vertices: the paper's canonical high-diameter graph."""
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)), name=f"path({n})")


def ring_graph(n: int) -> Graph:
    """The cycle on ``n`` vertices (n >= 3)."""
    if n < 3:
        raise TopologyError(f"ring needs n >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, name=f"ring({n})")


def complete_graph(n: int) -> Graph:
    """The complete graph K_n: the paper's most powerful communication graph."""
    edges = ((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph.from_edges(n, edges, name=f"complete({n})")


def star_graph(n: int) -> Graph:
    """The star S_n with hub 0: the paper's Section-5 counterexample topology."""
    if n < 2:
        raise TopologyError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, ((0, v) for v in range(1, n)), name=f"star({n})")


def _mixed_radix_strides(dims: Sequence[int]) -> list[int]:
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def mesh_graph(dims: Sequence[int]) -> Graph:
    """The d-dimensional mesh with side lengths ``dims`` (row-major ids).

    ``mesh_graph([k, k])`` is the paper's two-dimensional mesh with
    diameter ``2(k-1) = Theta(sqrt(n))``.
    """
    dims = list(dims)
    if not dims or any(d < 1 for d in dims):
        raise TopologyError(f"mesh dims must be positive, got {dims}")
    n = math.prod(dims)
    strides = _mixed_radix_strides(dims)
    edges = []
    for v in range(n):
        rem = v
        coord = []
        for s, d in zip(strides, dims):
            coord.append(rem // s)
            rem %= s
        for axis, c in enumerate(coord):
            if c + 1 < dims[axis]:
                edges.append((v, v + strides[axis]))
    label = "x".join(str(d) for d in dims)
    return Graph.from_edges(n, edges, name=f"mesh({label})")


def torus_graph(dims: Sequence[int]) -> Graph:
    """The d-dimensional torus (mesh with wraparound edges)."""
    dims = list(dims)
    if not dims or any(d < 3 for d in dims):
        raise TopologyError(f"torus dims must be >= 3, got {dims}")
    n = math.prod(dims)
    strides = _mixed_radix_strides(dims)
    edges = set()
    for v in range(n):
        rem = v
        coord = []
        for s, d in zip(strides, dims):
            coord.append(rem // s)
            rem %= s
        for axis, c in enumerate(coord):
            nxt = (c + 1) % dims[axis]
            u = v + (nxt - c) * strides[axis]
            edges.add((min(u, v), max(u, v)))
    label = "x".join(str(d) for d in dims)
    return Graph.from_edges(n, edges, name=f"torus({label})")


def hypercube_graph(d: int) -> Graph:
    """The hypercube Q_d on ``2^d`` vertices; ids are the corner bit strings."""
    if d < 1:
        raise TopologyError(f"hypercube needs d >= 1, got {d}")
    n = 1 << d
    edges = ((v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b))
    return Graph.from_edges(n, edges, name=f"hypercube({d})")


def perfect_mary_tree(m: int, depth: int) -> Graph:
    """The perfect m-ary tree of the given depth (all leaves at depth ``depth``).

    Vertices are heap-ordered: the children of ``v`` are
    ``m*v + 1 .. m*v + m``.  The tree has ``(m^(depth+1) - 1) / (m - 1)``
    vertices for ``m >= 2``.
    """
    if m < 2:
        raise TopologyError(f"perfect m-ary tree needs m >= 2, got {m}")
    if depth < 0:
        raise TopologyError(f"depth must be >= 0, got {depth}")
    n = (m ** (depth + 1) - 1) // (m - 1)
    internal = (m**depth - 1) // (m - 1)
    edges = ((v, m * v + i) for v in range(internal) for i in range(1, m + 1))
    return Graph.from_edges(n, edges, name=f"mary_tree(m={m},d={depth})")


def binary_tree_graph(n: int) -> Graph:
    """The heap-shaped binary tree on ``n`` vertices (leaf depths differ <= 1).

    This is the "perfect binary tree" in the paper's sense (Section 4.2):
    depth ``floor(log2 n)`` and all leaves within one level of each other.
    """
    if n < 1:
        raise TopologyError(f"binary tree needs n >= 1, got {n}")
    edges = []
    for v in range(n):
        for c in (2 * v + 1, 2 * v + 2):
            if c < n:
                edges.append((v, c))
    return Graph.from_edges(n, edges, name=f"binary_tree({n})")


def caterpillar_graph(spine: int, legs_per_vertex: int = 1) -> Graph:
    """A caterpillar: a path spine with ``legs_per_vertex`` leaves per spine vertex.

    High diameter (``Theta(spine)``) with a constant-degree spanning tree —
    the graph family of Theorem 4.13.
    """
    if spine < 2:
        raise TopologyError(f"caterpillar needs spine >= 2, got {spine}")
    if legs_per_vertex < 0:
        raise TopologyError("legs_per_vertex must be >= 0")
    n = spine * (1 + legs_per_vertex)
    edges = [(i, i + 1) for i in range(spine - 1)]
    leaf = spine
    for i in range(spine):
        for _ in range(legs_per_vertex):
            edges.append((i, leaf))
            leaf += 1
    return Graph.from_edges(n, edges, name=f"caterpillar({spine},{legs_per_vertex})")


def lollipop_graph(clique: int, tail: int) -> Graph:
    """A clique on ``clique`` vertices with a path of ``tail`` vertices attached.

    Diameter ``Theta(tail)`` with dense local structure; another
    high-diameter family for Theorem 4.13 experiments.
    """
    if clique < 1 or tail < 1:
        raise TopologyError(f"lollipop needs clique,tail >= 1, got {clique},{tail}")
    n = clique + tail
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges.append((clique - 1, clique))
    edges.extend((clique + i, clique + i + 1) for i in range(tail - 1))
    return Graph.from_edges(n, edges, name=f"lollipop({clique},{tail})")


def random_regular_graph(n: int, d: int, seed: int = 0, max_tries: int = 200) -> Graph:
    """A uniformly sampled simple connected d-regular graph (pairing model).

    Args:
        n: vertex count (``n * d`` must be even, ``d < n``).
        d: degree.
        seed: RNG seed (deterministic output for a fixed seed).
        max_tries: resampling budget before giving up.

    Raises:
        TopologyError: on infeasible parameters or if no simple connected
            sample is found within ``max_tries`` attempts.
    """
    if d < 1 or d >= n or (n * d) % 2 != 0:
        raise TopologyError(f"no {d}-regular graph on {n} vertices")
    import numpy as np

    from repro.topology.properties import is_connected

    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = set()
        ok = True
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        g = Graph.from_edges(n, edges, name=f"random_regular({n},{d},seed={seed})")
        if is_connected(g):
            return g
    raise TopologyError(
        f"could not sample a simple connected {d}-regular graph on {n} "
        f"vertices in {max_tries} tries"
    )
