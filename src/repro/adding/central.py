"""Central-server fetch-and-add (baseline)."""

from __future__ import annotations

from typing import Any, Mapping

from repro.adding.combining import AdditionResult
from repro.counting.central import _routing
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.base import Graph


class _CentralAddNode(Node):
    """Requests route to the root; the root applies increments in arrival
    order and returns the prior accumulator value."""

    __slots__ = ("next_hop", "delta", "is_root", "accumulator", "arrival_order", "_down_paths")

    def __init__(self, node_id: int, next_hop: int, delta: int | None, is_root: bool) -> None:
        super().__init__(node_id)
        self.next_hop = next_hop
        self.delta = delta
        self.is_root = is_root
        self.accumulator = 0
        self.arrival_order: list[int] = []
        self._down_paths: dict[int, list[int]] = {}

    def _serve(self, origin: int, delta: int, ctx: NodeContext) -> None:
        prior = self.accumulator
        self.accumulator += delta
        self.arrival_order.append(origin)
        if origin == self.node_id:
            ctx.complete(origin, result=prior)
        else:
            path = self._down_paths[origin]
            ctx.send(path[0], "reply", payload=(origin, path[1:], prior))

    def on_start(self, ctx: NodeContext) -> None:
        if self.delta is None:
            return
        if self.is_root:
            self._serve(self.node_id, self.delta, ctx)
        else:
            ctx.send(self.next_hop, "req", payload=(self.node_id, self.delta))

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "req":
            origin, delta = msg.payload
            if self.is_root:
                self._serve(origin, delta, ctx)
            else:
                ctx.send(self.next_hop, "req", payload=(origin, delta))
        elif msg.kind == "reply":
            origin, path, prior = msg.payload
            if origin == self.node_id:
                ctx.complete(origin, result=prior)
            else:
                ctx.send(path[0], "reply", payload=(origin, path[1:], prior))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")


def run_central_addition(
    graph: Graph,
    increments: Mapping[int, int],
    *,
    root: int = 0,
    **options: Any,
) -> AdditionResult:
    """Run central-server fetch-and-add; the result is verified.

    ``options`` are run options, forwarded to :func:`repro.sim.run_protocol`.
    """
    for v in increments:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} out of range")
    next_hop, down_paths = _routing(graph, root)
    nodes = {
        v: _CentralAddNode(
            v, next_hop=next_hop[v], delta=increments.get(v), is_root=(v == root)
        )
        for v in graph.vertices()
    }
    nodes[root]._down_paths = down_paths
    net = run_protocol(graph, nodes, send_capacity=1, recv_capacity=1, **options)
    result = AdditionResult(
        algorithm=f"central-add(root={root})",
        increments=dict(increments),
        prior_sums={v: int(s) for v, s in net.delays.result_by_op().items()},
        order=tuple(nodes[root].arrival_order),
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )
    result.verify()
    return result
