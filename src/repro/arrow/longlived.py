"""Long-lived arrow: requests arriving over time (extension).

The paper analyses the one-shot scenario; Kuhn & Wattenhofer (SPAA 2004,
reference [8]) study the dynamic case where queuing requests arrive while
the protocol is running.  This module reproduces that setting as an
extension experiment: each node may issue its operation at an arbitrary
round, and the delay of an operation is measured from its *issue* time to
the round its ``queue()`` message terminates.

The protocol logic is identical to the one-shot case — the arrow rules
are oblivious to time — only issuance is scheduled through the engine's
wakeup mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping

import numpy as np

from repro.arrow.protocol import ArrowNode, op_of
from repro.sim import NodeContext, RunStats, run_protocol
from repro.topology.spanning import SpanningTree
from repro.tree import RootedTree


class _TimedArrowNode(ArrowNode):
    """Arrow node that issues its operation at a scheduled round."""

    __slots__ = ("issue_at",)

    def __init__(self, node_id: int, link: int, issue_at: int | None) -> None:
        super().__init__(node_id, link, requesting=False)
        self.issue_at = issue_at

    def on_start(self, ctx: NodeContext) -> None:
        if self.issue_at is None:
            return
        if self.issue_at == 0:
            self._issue(ctx)
        else:
            ctx.schedule_wakeup(self.issue_at)

    def on_wake(self, ctx: NodeContext) -> None:
        self._issue(ctx)

    def _issue(self, ctx: NodeContext) -> None:
        a = op_of(self.node_id)
        w = self.link
        self.link = self.node_id
        if w == self.node_id:
            pred = self.parked
            self.parked = a
            self.pred_found[a] = pred
            ctx.complete(a, result=pred)
        else:
            self.parked = a
            ctx.send(w, "queue", payload=a)


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
    """Run arrow with per-vertex issue rounds.

    Args:
        spanning: the spanning tree to run on.
        issue_times: mapping vertex -> issue round (>= 0); vertices absent
            from the mapping issue nothing.
        tail: initial tail node (default: tree root).
        capacity: per-round message budget (default: tree max degree).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    tree = spanning.tree
    if tail is None:
        tail = tree.root
    if capacity is None:
        capacity = max(1, spanning.max_degree())

    if tail == tree.root:
        parent_toward_tail = tree.parent
    else:
        rerooted = RootedTree.from_edges(tree.n, tree.edges(), root=tail)
        parent_toward_tail = rerooted.parent

    for v, t in issue_times.items():
        if not (0 <= v < tree.n):
            raise ValueError(f"vertex {v} out of range")
        if t < 0:
            raise ValueError(f"issue time for {v} must be >= 0, got {t}")

    nodes = {
        v: _TimedArrowNode(
            v, link=parent_toward_tail[v], issue_at=issue_times.get(v)
        )
        for v in range(tree.n)
    }
    net = run_protocol(
        spanning.as_graph(), nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )

    predecessors: dict[Hashable, Hashable] = {}
    for v in range(tree.n):
        predecessors.update(nodes[v].pred_found)

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
    rng = np.random.default_rng(seed)
    participants = rng.random(n) < rate
    times = rng.integers(0, horizon, size=n)
    return {v: int(times[v]) for v in range(n) if participants[v]}
