"""Request-set scenarios: who is counting/queuing.

The paper's complexity is a worst case over all request sets ``R``.  The
experiments approximate that maximum with structured adversarial patterns
(each known to realise the worst case on some topology) plus seeded
random subsets; for tiny instances the benchmarks also search
exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.topology.base import Graph
from repro.topology.properties import bfs_distances


@dataclass(frozen=True)
class RequestScenario:
    """A named request-set generator.

    Attributes:
        name: label used in experiment tables.
        build: maps a graph to the requesting vertex list.
    """

    name: str
    build: Callable[[Graph], list[int]]

    def __call__(self, graph: Graph) -> list[int]:
        req = self.build(graph)
        if not req:
            raise ValueError(f"scenario {self.name!r} produced an empty request set")
        return sorted(set(req))


def all_nodes() -> RequestScenario:
    """Every vertex requests — the pattern Theorems 3.5 and 3.6 analyse."""
    return RequestScenario("all", lambda g: list(g.vertices()))


def random_subset(p: float, seed: int = 0) -> RequestScenario:
    """Each vertex requests independently with probability ``p`` (seeded).

    Guarantees at least one requester by forcing vertex 0 in when the
    draw comes out empty.
    """
    if not (0 < p <= 1):
        raise ValueError(f"p must be in (0, 1], got {p}")

    def build(g: Graph) -> list[int]:
        import numpy as np

        rng = np.random.default_rng(seed)
        mask = rng.random(g.n) < p
        req = [v for v in g.vertices() if mask[v]]
        return req or [0]

    return RequestScenario(f"random(p={p},seed={seed})", build)


def far_half(anchor: int = 0) -> RequestScenario:
    """The half of the vertices farthest from ``anchor``.

    On high-diameter graphs this forces long-haul information transfer —
    the regime of Theorem 3.6.
    """

    def build(g: Graph) -> list[int]:
        dist = bfs_distances(g, anchor)
        order = sorted(g.vertices(), key=lambda v: (-dist[v], v))
        return order[: max(1, g.n // 2)]

    return RequestScenario(f"far_half(from={anchor})", build)


def alternating(stride: int = 2) -> RequestScenario:
    """Every ``stride``-th vertex requests (spread pattern, worst for NN runs)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return RequestScenario(
        f"alternating({stride})", lambda g: list(range(0, g.n, stride))
    )


def scenario_suite(seed: int = 0) -> list[RequestScenario]:
    """The standard portfolio the comparison experiments sweep over."""
    return [
        all_nodes(),
        far_half(),
        alternating(2),
        random_subset(0.5, seed=seed),
        random_subset(0.1, seed=seed + 1),
    ]


def exhaustive_request_sets(n: int) -> list[list[int]]:
    """All non-empty subsets of ``{0..n-1}`` (tiny n only).

    Used by the adversarial-search example to compute the exact
    worst-case complexity on small instances.

    Raises:
        ValueError: if ``n > 16``.
    """
    if n > 16:
        raise ValueError(f"exhaustive search limited to n <= 16, got {n}")
    sets = []
    for mask in range(1, 1 << n):
        sets.append([v for v in range(n) if (mask >> v) & 1])
    return sets


def request_sets_of_size(n: int, k: int, count: int, seed: int = 0) -> list[list[int]]:
    """``count`` distinct random k-subsets of ``{0..n-1}`` (seeded)."""
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    import numpy as np

    rng = np.random.default_rng(seed)
    seen: set[tuple[int, ...]] = set()
    out: list[list[int]] = []
    tries = 0
    while len(out) < count and tries < count * 50:
        tries += 1
        pick = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        if pick not in seen:
            seen.add(pick)
            out.append(list(pick))
    return out
