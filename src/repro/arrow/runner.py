"""One-shot concurrent execution of the arrow protocol."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.arrow.protocol import ArrowNode, init_op
from repro.sim import RunStats, run_protocol
from repro.topology.spanning import SpanningTree


@dataclass(frozen=True)
class ArrowResult:
    """Outcome of a one-shot arrow execution.

    Attributes:
        requests: the requesting vertices, sorted.
        tail: the node holding the initial (dummy) queue tail.
        delays: operation id -> completion round.  Operation ids are
            ``("op", v)``; the initial dummy op never appears.
        predecessors: operation id -> predecessor operation id (the
            queuing problem's answer; the first real operation's
            predecessor is ``("init", tail)``).
        stats: engine accounting for the run.
    """

    requests: tuple[int, ...]
    tail: int
    delays: dict[Hashable, int]
    predecessors: dict[Hashable, Hashable]
    stats: RunStats

    @property
    def total_delay(self) -> int:
        """The paper's cost: sum of per-operation completion rounds."""
        return sum(self.delays.values())

    @property
    def max_delay(self) -> int:
        """Largest single operation delay."""
        return max(self.delays.values(), default=0)

    def order(self) -> list[int]:
        """The induced total order as a list of requesting vertices.

        Reconstructed by chaining predecessor pointers from the initial
        dummy operation.

        Raises:
            ValueError: if the predecessor pointers do not form one chain
                over all requests (a protocol bug — tested never to
                happen).
        """
        succ: dict[Hashable, Hashable] = {}
        for op, pred in self.predecessors.items():
            if pred in succ:
                raise ValueError(f"two operations claim predecessor {pred!r}")
            succ[pred] = op
        chain: list[int] = []
        cur: Hashable = init_op(self.tail)
        while cur in succ:
            cur = succ[cur]
            chain.append(cur[1])
        if len(chain) != len(self.requests):
            raise ValueError(
                f"predecessor chain covers {len(chain)} of "
                f"{len(self.requests)} operations"
            )
        return chain


def run_arrow(
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    tail: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> ArrowResult:
    """Run the one-shot concurrent arrow protocol.

    Args:
        spanning: the spanning tree the protocol runs on; messages travel
            only along tree edges.
        requests: the vertices issuing queuing operations at time 0.
        tail: initial queue-tail node (default: the tree root).  The
            arrows are initialised to point toward it along the tree —
            this is the free initialization step of Section 2.2.
        capacity: per-round send/receive message budget per node; defaults
            to the tree's maximum degree, the paper's expanded-time-step
            convention (Section 4).  Pass 1 for the strict model.
        **options: run options (``max_rounds``, ``trace``, ``faults``,
            ``reliable``, ...), forwarded to :func:`repro.sim.run_protocol`.

    Returns:
        An :class:`ArrowResult` with per-operation delays and the induced
        total order.
    """
    tree = spanning.tree
    if tail is None:
        tail = tree.root
    req = tuple(sorted(set(requests)))
    for v in req:
        if not (0 <= v < tree.n):
            raise ValueError(f"request vertex {v} out of range")

    if capacity is None:
        capacity = max(1, spanning.max_degree())

    # Arrows point toward the tail: on the tree rooted at the *tail*, each
    # node's arrow is its parent.  Re-rooting at the tail gives exactly
    # that orientation.
    if tail == tree.root:
        parent_toward_tail = tree.parent
    else:
        from repro.tree import RootedTree

        rerooted = RootedTree.from_edges(tree.n, tree.edges(), root=tail)
        parent_toward_tail = rerooted.parent

    req_set = set(req)
    nodes = {
        v: ArrowNode(v, link=parent_toward_tail[v], requesting=(v in req_set))
        for v in range(tree.n)
    }
    net = run_protocol(
        spanning.as_graph(), nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )

    predecessors: dict[Hashable, Hashable] = {}
    for v in range(tree.n):
        predecessors.update(nodes[v].pred_found)

    return ArrowResult(
        requests=req,
        tail=tail,
        delays=net.delays.delay_by_op(),
        predecessors=predecessors,
        stats=net.stats,
    )


def arrow_order_positions(result: ArrowResult) -> dict[int, int]:
    """Vertex -> 1-based rank in the arrow total order (for comparisons)."""
    return {v: i + 1 for i, v in enumerate(result.order())}
