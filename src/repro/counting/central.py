"""Central-server counting, queuing and fetch-and-add, with shortest-path routing.

Every requester routes a request ``(origin, increment)`` hop-by-hop
toward a designated root; the root serves requests in arrival order and
routes a reply back.  Under the model's one-message-per-round restriction
the root serialises: on the star this is exactly the ``Theta(n^2)``
behaviour the paper's conclusion discusses, and on the list it realises
Theorem 3.6's ``Omega(n^2)``.  Routing tables (next hop toward the root,
and the root's path back to each origin) are precomputed — initialization
is free per Section 2.2.

One node serves three problems; only the reply differs.  Summing replies
with the running total *including* the request's increment — the rank,
under counting's unit increments; fetch-and-add (:mod:`repro.adding`)
subtracts the increment to get the prior sum.  Queuing (the star-graph
experiment's baseline) replies with the previously served op.  The
messages, hence traces and delays, are the same for all three.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, Mapping

from repro.core.problem import CountingResult, QueuingResult, init_op, op_of
from repro.sim import Message, Node, NodeContext, SynchronousNetwork, run_protocol
from repro.topology.base import Graph
from repro.topology.properties import check_vertices, next_hops_toward


class _CentralNode(Node):
    """A node of the central server.

    Messages:
        ``req``: payload = (origin, increment); forwarded along
            ``next_hop`` toward the root.
        ``reply``: payload = (origin, path, hop, value); source-routed
            back to the origin along the root's ``path`` to it, whose
            ``hop``-th vertex is the receiver.  Every hop forwards the
            same list, so a reply costs O(1) per hop.
    """

    __slots__ = (
        "next_hop",
        "increment",
        "queuing",
        "total",
        "last_op",
        "served",
        "down_paths",
    )

    def __init__(
        self, node_id: int, next_hop: int, increment: int | None, queuing: bool
    ) -> None:
        super().__init__(node_id)
        #: next hop toward the root; the root's is itself.
        self.next_hop = next_hop
        #: this node's increment, or None if it does not request.
        self.increment = increment
        self.queuing = queuing
        self.total = 0
        root = next_hop == node_id
        #: root only: the op served last (queuing's reply).
        self.last_op: Hashable = init_op(node_id) if root else None
        #: root only: origins in the order they were served.
        self.served: list[int] | None = [] if root else None
        #: root only: requester -> path root->...->origin (excluding the root).
        self.down_paths: dict[int, list[int]] | None = {} if root else None

    def _value(self, origin: int, increment: int) -> Hashable:
        """Root-side: the reply to the request served next."""
        if self.queuing:
            value, self.last_op = self.last_op, op_of(origin)
            return value
        self.total += increment
        return self.total

    def _serve(self, origin: int, increment: int, ctx: NodeContext) -> None:
        """Root-side: serve a request and send (or record) its reply."""
        self.served.append(origin)
        value = self._value(origin, increment)
        if origin == self.node_id:
            ctx.complete(origin, result=value)
        else:
            path = self.down_paths[origin]
            ctx.send(path[0], "reply", payload=(origin, path, 0, value))

    def on_start(self, ctx: NodeContext) -> None:
        if self.increment is None:
            return
        if self.next_hop == self.node_id:
            self._serve(self.node_id, self.increment, ctx)
        else:
            ctx.send(self.next_hop, "req", payload=(self.node_id, self.increment))

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "req":
            if self.next_hop == self.node_id:
                origin, increment = msg.payload
                self._serve(origin, increment, ctx)
            else:
                ctx.send(self.next_hop, "req", payload=msg.payload)
        elif msg.kind == "reply":
            origin, path, hop, value = msg.payload
            if origin == self.node_id:
                ctx.complete(origin, result=value)
            else:
                hop += 1
                ctx.send(path[hop], "reply", payload=(origin, path, hop, value))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")


def _run_central(
    graph: Graph, increments: Mapping[int, int], root: int, queuing: bool, options: dict
) -> tuple[_CentralNode, SynchronousNetwork]:
    """Run the central server; returns the root node and the network."""
    check_vertices(graph, increments)
    next_hop = next_hops_toward(graph, root)
    if any(h == v != root for v, h in enumerate(next_hop)):
        raise ValueError("graph is disconnected")
    nodes = {
        v: _CentralNode(v, next_hop[v], increments.get(v), queuing)
        for v in graph.vertices()
    }
    down_paths = nodes[root].down_paths
    for v in increments:
        path = []
        x = v
        while x != root:
            path.append(x)
            x = next_hop[x]
        down_paths[v] = path[::-1]
    net = run_protocol(graph, nodes, send_capacity=1, recv_capacity=1, **options)
    return nodes[root], net


def run_central_counting(
    graph: Graph,
    requests: Iterable[int],
    *,
    root: int = 0,
    **options: Any,
) -> CountingResult:
    """Run central-counter counting; output verified before returning.

    Args:
        graph: communication graph.
        requests: requesting vertices.
        root: the vertex holding the counter.
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    req = tuple(sorted(set(requests)))
    _, net = _run_central(graph, dict.fromkeys(req, 1), root, False, options)
    return CountingResult.of(f"central(root={root})", req, net)


def run_central_queuing(
    graph: Graph,
    requests: Iterable[int],
    *,
    root: int = 0,
    **options: Any,
) -> QueuingResult:
    """Run central-server queuing (root returns each request's predecessor).

    Identical message pattern to :func:`run_central_counting` — the pair
    demonstrates the star-graph conclusion that with a serialising hub,
    counting and queuing cost the same.  ``options`` as for
    :func:`run_central_counting`.
    """
    req = tuple(sorted(set(requests)))
    _, net = _run_central(graph, dict.fromkeys(req, 1), root, True, options)
    # Ops complete under their vertex; the result keys them by op id.
    predecessors = {op_of(v): pred for v, pred in net.delays.result_by_op().items()}
    delays = {op_of(v): d for v, d in net.delays.delay_by_op().items()}
    # The initial dummy op lives at the root for the central server.
    return QueuingResult(
        algorithm=f"central(root={root})",
        requests=req,
        predecessors=predecessors,
        delays=delays,
        tail=root,
        stats=net.stats,
    )
