"""The RootedTree value type with O(log n) distance queries."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence


class TreeError(ValueError):
    """Raised for malformed tree constructions."""


class RootedTree:
    """A rooted tree on vertices ``0 .. n-1``.

    Construction is from a parent mapping (``parent[root] == root``).  The
    class precomputes children lists and depths.  A binary-lifting table,
    built on the first ``ancestor``/``lca``/``distance`` query, gives
    each query in O(log n) — distance queries dominate the
    nearest-neighbour TSP computation (Section 4 of the paper), and
    nothing else reads the table.

    Attributes:
        root: the root vertex.
        parent: tuple where ``parent[v]`` is v's parent (root maps to itself).
        depth: tuple of vertex depths (root is 0).
    """

    __slots__ = ("root", "parent", "depth", "children", "_up", "_log")

    def __init__(self, parent: Mapping[int, int] | Sequence[int], root: int | None = None):
        if isinstance(parent, Mapping):
            n = len(parent)
            par = [0] * n
            for v in range(n):
                if v not in parent:
                    raise TreeError(f"parent mapping misses vertex {v}")
                par[v] = parent[v]
        else:
            par = list(parent)
            n = len(par)
        if n == 0:
            raise TreeError("tree needs at least one vertex")

        roots = [v for v in range(n) if par[v] == v]
        if root is not None:
            if par[root] != root:
                raise TreeError(f"declared root {root} has parent {par[root]}")
        else:
            if len(roots) != 1:
                raise TreeError(f"expected exactly one root, found {roots}")
            root = roots[0]
        if len(roots) != 1:
            raise TreeError(f"expected exactly one self-parent, found {roots}")

        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            p = par[v]
            if not (0 <= p < n):
                raise TreeError(f"parent of {v} out of range: {p}")
            if v != root:
                children[p].append(v)

        # BFS from the root to compute depths and detect cycles /
        # disconnected components.
        depth = [-1] * n
        depth[root] = 0
        dq: deque[int] = deque([root])
        seen = 1
        while dq:
            u = dq.popleft()
            for c in children[u]:
                if depth[c] >= 0:
                    raise TreeError(f"vertex {c} reached twice: not a tree")
                depth[c] = depth[u] + 1
                seen += 1
                dq.append(c)
        if seen != n:
            raise TreeError("parent mapping is not a connected tree")

        self.root = root
        self.parent = tuple(par)
        self.depth = tuple(depth)
        self.children = tuple(tuple(sorted(c)) for c in children)
        #: binary-lifting table, built by _lifting() on the first query.
        self._up: list[list[int]] | None = None
        self._log = max(1, (n - 1).bit_length())

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.parent)

    @staticmethod
    def from_path(order: Sequence[int]) -> "RootedTree":
        """A path tree rooted at ``order[0]``, for Hamilton-path spanning trees."""
        n = len(order)
        par = list(range(n))
        for i in range(1, n):
            par[order[i]] = order[i - 1]
        return RootedTree(par, root=order[0])

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], root: int = 0) -> "RootedTree":
        """Root an undirected tree edge list at ``root``."""
        adj: list[list[int]] = [[] for _ in range(n)]
        cnt = 0
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
            cnt += 1
        if cnt != n - 1:
            raise TreeError(f"a tree on {n} vertices has {n - 1} edges, got {cnt}")
        par = list(range(n))
        seen = [False] * n
        seen[root] = True
        dq: deque[int] = deque([root])
        while dq:
            u = dq.popleft()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    par[v] = u
                    dq.append(v)
        if not all(seen):
            raise TreeError("edge list is not connected")
        return RootedTree(par, root=root)

    def _lifting(self) -> list[list[int]]:
        """Build the binary-lifting table: ``_up[k][v]`` is v's 2^k-th
        ancestor."""
        up = [list(self.parent)]
        for k in range(1, self._log):
            prev = up[k - 1]
            up.append([prev[p] for p in prev])
        self._up = up
        return up

    def ancestor(self, v: int, k: int) -> int:
        """The k-th ancestor of ``v`` (clamped at the root)."""
        up = self._up
        if up is None:
            up = self._lifting()
        for bit in range(self._log):
            if k <= 0:
                break
            if k & (1 << bit):
                v = up[bit][v]
                k &= ~(1 << bit)
        return v

    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor of ``u`` and ``v``."""
        du, dv = self.depth[u], self.depth[v]
        if du < dv:
            u, v = v, u
            du, dv = dv, du
        u = self.ancestor(u, du - dv)
        if u == v:
            return u
        up = self._up
        for k in range(self._log - 1, -1, -1):
            if up[k][u] != up[k][v]:
                u = up[k][u]
                v = up[k][v]
        return self.parent[u]

    def distance(self, u: int, v: int) -> int:
        """Hop distance between ``u`` and ``v`` along the tree."""
        a = self.lca(u, v)
        return self.depth[u] + self.depth[v] - 2 * self.depth[a]

    def edges(self) -> list[tuple[int, int]]:
        """All tree edges as ``(parent, child)`` pairs."""
        return [(self.parent[v], v) for v in range(self.n) if v != self.root]

    def degree(self, v: int) -> int:
        """Degree of ``v`` in the (undirected) tree."""
        return len(self.children[v]) + (0 if v == self.root else 1)

    def max_degree(self) -> int:
        """Maximum undirected degree over all vertices."""
        return max(self.degree(v) for v in range(self.n))

    def height(self) -> int:
        """Depth of the deepest vertex."""
        return max(self.depth)

    def __repr__(self) -> str:
        return f"RootedTree(n={self.n}, root={self.root}, height={self.height()})"


def random_tree(
    n: int, seed: int = 0, max_children: int | None = None
) -> RootedTree:
    """A seeded random rooted tree on ``n`` vertices (uniform attachment).

    Vertex ``v`` attaches below a uniformly random earlier vertex; with
    ``max_children`` set, candidates are restricted so the tree degree
    stays bounded (the constant-degree instances of Corollary 4.2).

    Deterministic for a fixed ``(n, seed, max_children)``.
    """
    import random as _random

    if n < 1:
        raise TreeError("tree needs at least one vertex")
    rng = _random.Random(seed)
    parent = [0] * n
    child_count = [0] * n
    for v in range(1, n):
        candidates = (
            range(v)
            if max_children is None
            else [p for p in range(v) if child_count[p] < max_children]
        )
        if not isinstance(candidates, range) and not candidates:
            raise TreeError(
                f"cannot attach vertex {v} with max_children={max_children}"
            )
        p = rng.choice(candidates) if not isinstance(candidates, range) else rng.randrange(v)
        parent[v] = p
        child_count[p] += 1
    return RootedTree(parent)
