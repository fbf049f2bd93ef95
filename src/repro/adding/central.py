"""Central-server fetch-and-add (baseline)."""

from __future__ import annotations

from typing import Any, Mapping

from repro.adding.combining import AdditionResult
from repro.counting.central import _run_central
from repro.topology.base import Graph


def run_central_addition(
    graph: Graph,
    increments: Mapping[int, int],
    *,
    root: int = 0,
    **options: Any,
) -> AdditionResult:
    """Run central-server fetch-and-add; the result is verified.

    The root applies increments in arrival order.  ``options`` are run
    options, forwarded to :func:`repro.sim.run_protocol`.
    """
    root_node, net = _run_central(graph, increments, root, False, options)
    return AdditionResult(
        algorithm=f"central-add(root={root})",
        increments=dict(increments),
        prior_sums={
            v: int(s) - increments[v] for v, s in net.delays.result_by_op().items()
        },
        order=tuple(root_node.served),
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )
