"""The counting-vs-queuing comparison harness.

Produces the reproduction's headline data: for a graph family and a
request scenario, run a set of algorithms (counting and queuing), collect
the paper's total-delay metric, and fit growth exponents across sizes so
the asymptotic separations (Theorems 4.5, 4.12, 4.13, and the star
counterexample) can be checked as *shapes*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

from repro.core.request import RequestScenario
from repro.topology.base import Graph


class _HasTotalDelay(Protocol):
    """Anything with the paper's cost (both result dataclasses qualify)."""

    @property
    def total_delay(self) -> int: ...  # noqa: E704 - protocol stub

    @property
    def max_delay(self) -> int: ...  # noqa: E704 - protocol stub


#: An algorithm runner: (graph, requests) -> result.
Runner = Callable[[Graph, list[int]], _HasTotalDelay]


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named algorithm entry for the comparison harness.

    Attributes:
        name: display name.
        kind: ``"counting"`` or ``"queuing"``.
        run: the runner callable.
    """

    name: str
    kind: str
    run: Runner

    def __post_init__(self) -> None:
        if self.kind not in ("counting", "queuing"):
            raise ValueError(f"kind must be counting|queuing, got {self.kind!r}")


@dataclass(frozen=True)
class ComparisonRow:
    """One measured data point.

    Attributes mirror the columns of the experiment tables.
    """

    graph: str
    n: int
    scenario: str
    algorithm: str
    kind: str
    requesters: int
    total_delay: int
    max_delay: int


def compare_on_graph(
    graph: Graph,
    algorithms: Sequence[AlgorithmSpec],
    scenarios: Iterable[RequestScenario],
) -> list[ComparisonRow]:
    """Run every algorithm on every scenario of one graph.

    Returns one :class:`ComparisonRow` per (algorithm, scenario) pair.
    """
    rows: list[ComparisonRow] = []
    for scenario in scenarios:
        requests = scenario(graph)
        for spec in algorithms:
            result = spec.run(graph, list(requests))
            rows.append(
                ComparisonRow(
                    graph=graph.name,
                    n=graph.n,
                    scenario=scenario.name,
                    algorithm=spec.name,
                    kind=spec.kind,
                    requesters=len(requests),
                    total_delay=result.total_delay,
                    max_delay=result.max_delay,
                )
            )
    return rows


def growth_exponent(sizes: Sequence[int], totals: Sequence[float]) -> float:
    """Least-squares slope of ``log(total)`` against ``log(size)``.

    The shape check of the benchmarks: a ``Theta(n^2)`` family fits a
    slope near 2, a ``Theta(n)`` family near 1, ``Theta(n log n)`` a bit
    above 1.

    Raises:
        ValueError: with fewer than two points or non-positive values.
    """
    if len(sizes) != len(totals) or len(sizes) < 2:
        raise ValueError("need at least two (size, total) pairs")
    import numpy as np

    s = np.asarray(sizes, dtype=float)
    t = np.asarray(totals, dtype=float)
    if (s <= 0).any() or (t <= 0).any():
        raise ValueError("sizes and totals must be positive for log-log fit")
    slope, _intercept = np.polyfit(np.log(s), np.log(t), 1)
    return float(slope)


def ratio_series(
    rows: Iterable[ComparisonRow],
    counting_algorithm: str,
    queuing_algorithm: str,
) -> dict[int, float]:
    """``n -> counting_total / queuing_total`` for two named algorithms.

    Rows are matched on (n, scenario); multiple scenarios per n are
    averaged.  The paper's claim is that this ratio diverges on Hamilton
    path/m-ary-tree/high-diameter graphs and stays bounded on the star.
    """
    c: dict[tuple[int, str], int] = {}
    q: dict[tuple[int, str], int] = {}
    for row in rows:
        key = (row.n, row.scenario)
        if row.algorithm == counting_algorithm:
            c[key] = row.total_delay
        elif row.algorithm == queuing_algorithm:
            q[key] = row.total_delay
    per_n: dict[int, list[float]] = {}
    for key in c.keys() & q.keys():
        if q[key] > 0:
            per_n.setdefault(key[0], []).append(c[key] / q[key])
    import numpy as np

    return {n: float(np.mean(v)) for n, v in sorted(per_n.items())}
