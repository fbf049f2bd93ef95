"""Sweep-token counting: a token walks a Hamilton path handing out ranks.

The simplest conceivable counting algorithm: a token starts at one end of
a Hamilton path of the graph carrying a counter; every requester it
passes takes the next value.  Its *maximum* delay is an optimal-looking
O(n) — but its **total** delay is Theta(n^2), a clean illustration of why
the paper's total-delay metric is the right lens: the sweep serialises
everything, and the per-operation bounds of Section 3 are satisfied with
an enormous slack that the combining tree and counting networks avoid.

Like every algorithm here, the walk order is fixed at initialization
(request-oblivious); the token visits *all* nodes because it cannot know
who requested.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.problem import CountingResult, QueuingResult
from repro.core.verify import verify_counting, verify_queuing
from repro.sim import Message, Node, NodeContext, SynchronousNetwork, run_protocol
from repro.topology.base import Graph
from repro.topology.hamilton import hamilton_path_of, is_hamilton_path
from repro.topology.properties import check_vertices


class _SweepNode(Node):
    """Takes a value from the passing token (if requesting) and forwards it.

    Messages:
        ``token``: payload = the next rank to hand out (counting mode) or
            the identifier of the last queued operation (queuing mode).
    """

    __slots__ = ("requesting", "next_on_path", "mode", "completed")

    def __init__(
        self,
        node_id: int,
        requesting: bool,
        next_on_path: int | None,
        mode: str = "count",
    ):
        super().__init__(node_id)
        self.requesting = requesting
        self.next_on_path = next_on_path
        self.mode = mode
        self.completed = False

    def _pass(self, carried, ctx: NodeContext) -> None:
        if self.requesting and not self.completed:
            self.completed = True
            if self.mode == "count":
                ctx.complete(self.node_id, result=carried)
                carried += 1
            else:
                ctx.complete(("op", self.node_id), result=carried)
                carried = ("op", self.node_id)
        if self.next_on_path is not None:
            ctx.send(self.next_on_path, "token", payload=carried)

    def on_start(self, ctx: NodeContext) -> None:
        pass  # only the path head acts, via the runner's kick-off below

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind != "token":  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")
        self._pass(msg.payload, ctx)


class _SweepHead(_SweepNode):
    """The path head starts the sweep in round 0."""

    def on_start(self, ctx: NodeContext) -> None:
        if self.mode == "count":
            self._pass(1, ctx)
        else:
            self._pass(("init", self.node_id), ctx)


def _run_sweep(
    graph: Graph,
    requests: Iterable[int],
    order: Sequence[int] | None,
    mode: str,
    options: dict[str, Any],
) -> tuple[tuple[int, ...], Sequence[int], SynchronousNetwork]:
    """Sweep a token along ``order`` (default: a Hamilton path of ``graph``)."""
    req = tuple(sorted(set(requests)))
    check_vertices(graph, req)
    if order is None:
        order = hamilton_path_of(graph)
    if not is_hamilton_path(graph, order):
        raise ValueError("order is not a Hamilton path of the graph")
    req_set = set(req)
    nxt: dict[int, int | None] = {
        order[i]: (order[i + 1] if i + 1 < len(order) else None)
        for i in range(len(order))
    }
    nodes: dict[int, Node] = {}
    for v in graph.vertices():
        cls = _SweepHead if v == order[0] else _SweepNode
        nodes[v] = cls(v, requesting=(v in req_set), next_on_path=nxt[v], mode=mode)
    return req, order, run_protocol(
        graph, nodes, send_capacity=1, recv_capacity=1, **options
    )


def run_sweep_counting(
    graph: Graph,
    requests: Iterable[int],
    *,
    order: Sequence[int] | None = None,
    **options: Any,
) -> CountingResult:
    """Run sweep-token counting along a Hamilton path; output verified.

    Args:
        graph: communication graph (must have a Hamilton path, or pass an
            explicit ``order``).
        requests: requesting vertices.
        order: an explicit Hamilton path to sweep along.
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    req, _, net = _run_sweep(graph, requests, order, "count", options)
    counts = {v: int(c) for v, c in net.delays.result_by_op().items()}
    verify_counting(req, counts)
    return CountingResult(
        algorithm="sweep",
        requests=req,
        counts=counts,
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )


def run_sweep_queuing(
    graph: Graph,
    requests: Iterable[int],
    *,
    order: Sequence[int] | None = None,
    **options: Any,
) -> QueuingResult:
    """Sweep-token *queuing*: the token carries the last queued op's id.

    A deliberately naive queuing algorithm: like the sweep counter it has
    total delay ``Theta(n^2)`` even though queuing admits O(n) via the
    arrow protocol — demonstrating that the paper's separation is a
    statement about the *best* algorithm for each problem, not about any
    particular one.  Arguments as for :func:`run_sweep_counting`.

    Returns a :class:`repro.core.problem.QueuingResult` (verified).
    """
    req, order, net = _run_sweep(graph, requests, order, "queue", options)
    predecessors = net.delays.result_by_op()
    verify_queuing(req, predecessors, tail=order[0])
    return QueuingResult(
        algorithm="sweep",
        requests=req,
        predecessors=predecessors,
        delays=net.delays.delay_by_op(),
        tail=order[0],
        stats=net.stats,
    )
