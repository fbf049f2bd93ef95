"""The nearest-neighbour TSP tour on a tree metric.

The tour is the object Theorem 4.1 compares the arrow protocol against:
start at the root, repeatedly move to the *closest* unvisited requester
(tree distance), until all requesters are visited.  Ties are broken by
smallest vertex id so the tour — like everything in this library — is
deterministic.

The implementation finds each next stop with an expanding breadth-first
search from the current position over the tree's own child and parent
links, so the work per leg is proportional to the ball of radius (leg
length) rather than to ``|R|`` or ``n``; over the whole tour this is
near-linear on the paper's structured trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.tree import RootedTree


@dataclass(frozen=True)
class NNTour:
    """The result of a nearest-neighbour tour.

    Attributes:
        start: starting vertex (the "root" in the paper's terminology).
        order: requesters in visiting order (does not include ``start``
            unless it is itself a requester, in which case it is first
            with a zero-length leg).
        legs: ``legs[i]`` is the tree distance travelled to reach
            ``order[i]`` from the previous position.
        cost: sum of legs — the quantity all of Section 4 bounds.
    """

    start: int
    order: tuple[int, ...]
    legs: tuple[int, ...]

    @property
    def cost(self) -> int:
        """Total tree distance travelled."""
        return sum(self.legs)

    def __len__(self) -> int:
        return len(self.order)


def nearest_neighbor_tour(
    tree: RootedTree,
    requests: Iterable[int],
    start: int | None = None,
) -> NNTour:
    """Compute the deterministic nearest-neighbour tour.

    Args:
        tree: the spanning tree carrying the metric.
        requests: the requesting vertices R (duplicates ignored).
        start: starting vertex; defaults to the tree root, matching the
            paper's definition of the tour.

    Returns:
        The :class:`NNTour`; its ``cost`` is the NN-TSP cost of
        Theorem 4.1.

    Raises:
        ValueError: if ``start`` or a requester is not a vertex of ``tree``.
    """
    n = tree.n
    if start is None:
        start = tree.root
    elif not 0 <= start < n:
        raise ValueError(f"start vertex {start} is not in the tree (n={n})")
    remaining = set(requests)
    bad = [v for v in remaining if not 0 <= v < n]
    if bad:
        raise ValueError(f"requested vertex {min(bad)} is not in the tree (n={n})")
    parent = tree.parent
    children = tree.children

    order: list[int] = []
    legs: list[int] = []
    current = start
    if current in remaining:
        remaining.discard(current)
        order.append(current)
        legs.append(0)

    # Expanding BFS with version-stamped visit marks to avoid reallocating
    # the frontier bookkeeping for every leg.
    stamp = [0] * n
    version = 0
    dist = [0] * n

    while remaining:
        version += 1
        stamp[current] = version
        dist[current] = 0
        frontier = deque([current])
        found: list[int] = []
        found_d = -1
        while frontier:
            u = frontier.popleft()
            if found_d >= 0 and dist[u] >= found_d:
                break  # everything further is at least as far as the hit
            # The root is its own parent, and already stamped.
            for v in children[u] + (parent[u],):
                if stamp[v] == version:
                    continue
                stamp[v] = version
                dist[v] = dist[u] + 1
                if v in remaining:
                    if found_d < 0:
                        found_d = dist[v]
                    if dist[v] == found_d:
                        found.append(v)
                    continue  # a hit need not be expanded this leg
                frontier.append(v)
        # BFS generates vertices in nondecreasing distance and the loop
        # only stops once a vertex at distance found_d is *expanded*, so
        # every requester at distance found_d is already in `found`.
        nxt = min(found)
        order.append(nxt)
        legs.append(found_d)
        remaining.discard(nxt)
        current = nxt

    return NNTour(start=start, order=tuple(order), legs=tuple(legs))

