"""The Graph value type shared by the whole library."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping


class TopologyError(ValueError):
    """Raised for malformed graph constructions or invalid parameters."""


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``.

    The representation is an immutable adjacency mapping with sorted
    neighbor tuples; all the library's graphs are built through
    :meth:`from_edges` which validates simplicity (no loops, no parallel
    edges) and vertex labelling.  Being immutable, a graph is shared
    rather than copied by :func:`copy.deepcopy`, and it carries caches
    (shortest-path routing tables, neighbor sets) that pickling leaves
    out.

    Attributes:
        adj: mapping vertex -> sorted tuple of neighbors.
        name: human-readable family label, e.g. ``"mesh(8x8)"``.
    """

    adj: Mapping[int, tuple[int, ...]]
    name: str = field(default="graph", compare=False)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]], name: str = "graph") -> "Graph":
        """Build a graph on ``{0..n-1}`` from an edge list.

        Raises:
            TopologyError: on self-loops, out-of-range endpoints, or n < 1.
        """
        if n < 1:
            raise TopologyError(f"graph needs at least one vertex, got n={n}")
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph({v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}, name=name)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.adj)

    @property
    def m(self) -> int:
        """Number of (undirected) edges."""
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def vertices(self) -> range:
        """The vertex set as ``range(n)``."""
        return range(self.n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as ordered pairs ``(u, v)`` with ``u < v``."""
        for u in sorted(self.adj):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return v in self.adj.get(u, ())

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self.adj[v]

    @cached_property
    def _next_hops(self) -> dict[int, list[int]]:
        """Routing tables by destination, filled lazily by
        :func:`repro.topology.properties.next_hops_toward`."""
        return {}

    @cached_property
    def _nbr_sets(self) -> dict[int, frozenset[int]]:
        """Vertex -> its neighbors as a frozenset, for membership tests;
        built once per graph, so every run on it shares the sets."""
        return {v: frozenset(nbrs) for v, nbrs in self.adj.items()}

    def __deepcopy__(self, memo: dict) -> "Graph":
        return self

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_next_hops", None)
        state.pop("_nbr_sets", None)
        return state

    def __repr__(self) -> str:
        return f"Graph(name={self.name!r}, n={self.n}, m={self.m})"
