"""Long-lived arrow: requests arriving over time (extension).

The paper analyses the one-shot scenario; Kuhn & Wattenhofer (SPAA 2004,
reference [8]) study the dynamic case where queuing requests arrive while
the protocol is running.  This module reproduces that setting as an
extension experiment: each node may issue its operation at an arbitrary
round, and the delay of an operation is measured from its *issue* time to
the round its ``queue()`` message terminates.

The protocol logic is identical to the one-shot case — the arrow rules
are oblivious to time — only issuance is scheduled through the engine's
wakeup mechanism (:class:`~repro.arrow.protocol.ArrowNode`'s ``issue_at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping

from repro.arrow.runner import _run_arrow_nodes
from repro.core.problem import op_of
from repro.core.verify import verify_queuing
from repro.sim import RunStats
from repro.topology.spanning import SpanningTree


@dataclass(frozen=True)
class LongLivedResult:
    """Outcome of a long-lived arrow execution.

    Attributes:
        issue_times: vertex -> round its operation was issued.
        completion: operation id -> round its queue() message terminated.
        predecessors: operation id -> predecessor operation id.
        stats: engine accounting.
    """

    issue_times: dict[int, int]
    completion: dict[Hashable, int]
    predecessors: dict[Hashable, Hashable]
    stats: RunStats

    def response_times(self) -> dict[int, int]:
        """Vertex -> (completion round - issue round)."""
        return {
            v: self.completion[op_of(v)] - t for v, t in self.issue_times.items()
        }

    @property
    def total_response_time(self) -> int:
        """Sum of response times — the dynamic analogue of the paper's cost."""
        return sum(self.response_times().values())


def run_arrow_longlived(
    spanning: SpanningTree,
    issue_times: Mapping[int, int],
    *,
    tail: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> LongLivedResult:
    """Run arrow with per-vertex issue rounds; output verified.

    Args:
        spanning: the spanning tree to run on.
        issue_times: mapping vertex -> issue round (>= 0); vertices absent
            from the mapping issue nothing.
        tail: initial tail node (default: tree root).
        capacity: per-round message budget (default: tree max degree).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.

    Raises:
        ValueError: if a vertex or ``tail`` is not a tree vertex, or an
            issue time is negative.
        VerificationError: if the predecessor links do not form one chain
            over a non-empty set of issuing vertices (a protocol bug).  An
            empty mapping runs no operation and returns an empty result.
    """
    net, predecessors, tail = _run_arrow_nodes(
        spanning, issue_times, tail, capacity, options
    )
    if issue_times:  # an empty schedule has no chain to verify
        verify_queuing(issue_times, predecessors, tail)
    return LongLivedResult(
        issue_times=dict(issue_times),
        completion=net.delays.delay_by_op(),
        predecessors=predecessors,
        stats=net.stats,
    )


def poisson_issue_times(
    n: int, rate: float, horizon: int, seed: int = 0
) -> dict[int, int]:
    """A random arrival schedule: each vertex issues once, at a round
    drawn uniformly from a Poisson-process-like schedule over ``[0, horizon)``.

    A convenience generator for the long-lived benchmarks; ``rate`` scales
    how many of the ``n`` vertices participate (expected ``rate * n``).
    """
    if not (0 < rate <= 1):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    import numpy as np

    rng = np.random.default_rng(seed)
    participants = rng.random(n) < rate
    times = rng.integers(0, horizon, size=n)
    return {v: int(times[v]) for v in range(n) if participants[v]}
