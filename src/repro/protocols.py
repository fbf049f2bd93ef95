"""The protocol registry: every protocol the CLI and chaos run, by name.

Each :class:`Protocol` runs on a plain graph with every vertex a
candidate requester, building whatever structure it needs (a spanning
tree, a Hamilton path, an embedded network) itself, and returns a
verified :class:`~repro.core.problem.CountingResult` or
:class:`~repro.core.problem.QueuingResult`.  Each entry names the problem
it solves and the safety invariant that monitors it.  Run options go
through unchanged to :func:`repro.sim.run_protocol`, so any entry can run
with faults and reliable delivery, trace, metrics, profiler or monitors
attached — which is what keeps the counting-vs-queuing comparison fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.arrow.runner import run_arrow
from repro.counting import (
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
    run_sweep_counting,
    run_sweep_queuing,
)
from repro.resilience.invariants import (
    ArrowInvariant,
    CountingInvariant,
    InvariantMonitor,
    QueuingInvariant,
)
from repro.topology.base import Graph, TopologyError
from repro.topology.spanning import bfs_spanning_tree, path_spanning_tree


@dataclass(frozen=True)
class Protocol:
    """One registered protocol.

    Attributes:
        run: ``run(graph, requests, **options)``; returns a verified
            counting or queuing result.
        problem: ``"counting"`` or ``"queuing"``.
        invariant: ``invariant(k)`` builds the safety invariant to monitor
            a run with ``k`` requests.
        needs_path: whether it runs only on graphs with a Hamilton path.
    """

    run: Callable[..., Any]
    problem: str
    invariant: Callable[[int], InvariantMonitor]
    needs_path: bool = False


def _arrow(graph: Graph, requests: Iterable[int], **options: Any) -> Any:
    """Arrow on a Hamilton-path tree (Theorem 4.5's choice), else BFS."""
    try:
        spanning = path_spanning_tree(graph)
    except TopologyError:
        spanning = bfs_spanning_tree(graph)
    return run_arrow(spanning, requests, **options)


def _arrow_invariant(k: int) -> ArrowInvariant:
    return ArrowInvariant()


def _combining(graph: Graph, requests: Iterable[int], **options: Any) -> Any:
    return run_combining_counting(bfs_spanning_tree(graph), requests, **options)


#: name -> protocol, in the order the CLI lists them.
PROTOCOLS: dict[str, Protocol] = {
    "arrow": Protocol(_arrow, "queuing", _arrow_invariant),
    "central": Protocol(run_central_counting, "counting", CountingInvariant),
    "flood": Protocol(run_flood_counting, "counting", CountingInvariant),
    "combining": Protocol(_combining, "counting", CountingInvariant),
    "cnet": Protocol(run_counting_network, "counting", CountingInvariant),
    "periodic": Protocol(run_periodic_counting, "counting", CountingInvariant),
    "sweep": Protocol(run_sweep_counting, "counting", CountingInvariant, needs_path=True),
    "central_queuing": Protocol(run_central_queuing, "queuing", QueuingInvariant),
    "sweep_queuing": Protocol(
        run_sweep_queuing, "queuing", QueuingInvariant, needs_path=True
    ),
}

__all__ = ["PROTOCOLS", "Protocol"]
