"""Counting-based vs queuing-based totally ordered multicast.

Delay accounting note: the coordination delay of the queuing flavour is
the paper's queuing delay — the round at which the operation's
predecessor is *determined* (its queue() message terminates).  Routing
that identity back to the sender is a reply leg over the same tree path,
at most a constant factor; the comparison's asymptotics are unaffected,
and using the paper's own metric keeps the two flavours directly
comparable with the theorems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.arrow.runner import run_arrow
from repro.core.problem import init_op, op_of
from repro.core.verify import verify_total_order_consistency
from repro.counting.combining import run_combining_counting
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.base import Graph
from repro.topology.spanning import SpanningTree


@dataclass(frozen=True)
class MulticastOutcome:
    """Result of one ordered-multicast execution.

    Attributes:
        flavour: ``"counting"`` or ``"queuing"``.
        senders: the multicasting vertices, sorted.
        coordination_delays: sender -> rounds spent obtaining its sequence
            number / predecessor id (the coordination phase the paper
            compares).
        delivery_times: (receiver, sender) -> round the receiver
            *delivered* the sender's message to the application.
        delivery_order: the common delivery sequence (sender ids) —
            identical at every receiver, verified.
    """

    flavour: str
    senders: tuple[int, ...]
    coordination_delays: dict[int, int]
    delivery_times: dict[tuple[int, int], int]
    delivery_order: tuple[int, ...]

    @property
    def total_coordination_delay(self) -> int:
        """The paper's metric for the coordination phase."""
        return sum(self.coordination_delays.values())

    @property
    def completion_time(self) -> int:
        """Round by which every receiver delivered every message."""
        return max(self.delivery_times.values(), default=0)


class _DisseminationNode(Node):
    """Flooding receiver with order-enforcing delivery buffering.

    Messages (kind ``mc``): payload ``(sender, meta)`` where ``meta`` is a
    sequence number (counting flavour) or the predecessor sender id / None
    (queuing flavour).
    """

    __slots__ = (
        "mode",
        "sends_at",
        "meta",
        "known",
        "pending",
        "delivered_list",
        "delivered_at",
        "expected",
    )

    def __init__(
        self,
        node_id: int,
        mode: str,
        sends_at: int | None,
        meta: Hashable,
        expected: int,
    ) -> None:
        super().__init__(node_id)
        self.mode = mode
        self.sends_at = sends_at
        self.meta = meta
        #: sender -> meta for every message seen so far
        self.known: dict[int, Hashable] = {}
        self.pending: dict[int, Hashable] = {}
        self.delivered_list: list[int] = []
        self.delivered_at: dict[int, int] = {}
        self.expected = expected

    # -- delivery rule -----------------------------------------------------

    def _try_deliver(self, ctx: NodeContext) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self.mode == "counting":
                nxt = len(self.delivered_list) + 1
                for sender, seq in sorted(self.pending.items()):
                    if seq == nxt:
                        self._deliver(sender, ctx)
                        progressed = True
                        break
            else:
                delivered = set(self.delivered_list)
                for sender, pred in sorted(self.pending.items()):
                    if pred is None or pred in delivered:
                        self._deliver(sender, ctx)
                        progressed = True
                        break

    def _deliver(self, sender: int, ctx: NodeContext) -> None:
        del self.pending[sender]
        self.delivered_list.append(sender)
        self.delivered_at[sender] = ctx.now
        if len(self.delivered_list) == self.expected:
            ctx.complete(("deliv", self.node_id), result=tuple(self.delivered_list))

    # -- flooding ------------------------------------------------------------

    def _learn(self, sender: int, meta: Hashable, from_: int | None, ctx: NodeContext) -> None:
        if sender in self.known:
            return
        self.known[sender] = meta
        self.pending[sender] = meta
        for u in ctx.neighbors:
            if u != from_:
                ctx.send(u, "mc", payload=(sender, meta))
        self._try_deliver(ctx)

    def on_start(self, ctx: NodeContext) -> None:
        if self.sends_at == 0:
            self._learn(self.node_id, self.meta, None, ctx)
        elif self.sends_at is not None:
            ctx.schedule_wakeup(self.sends_at)

    def on_wake(self, ctx: NodeContext) -> None:
        self._learn(self.node_id, self.meta, None, ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        sender, meta = msg.payload
        self._learn(sender, meta, msg.src, ctx)
        self._try_deliver(ctx)


def _run_dissemination(
    graph: Graph,
    mode: str,
    start_round: dict[int, int],
    meta: dict[int, Hashable],
    **limit: Any,
) -> tuple[dict[tuple[int, int], int], tuple[int, ...]]:
    senders = sorted(start_round)
    nodes = {
        v: _DisseminationNode(
            v,
            mode=mode,
            sends_at=start_round.get(v),
            meta=meta.get(v),
            expected=len(senders),
        )
        for v in graph.vertices()
    }
    run_protocol(graph, nodes, send_capacity=1, recv_capacity=1, **limit)

    delivery_times: dict[tuple[int, int], int] = {}
    orders = []
    for v in graph.vertices():
        node = nodes[v]
        for s in senders:
            delivery_times[(v, s)] = node.delivered_at[s]
        orders.append(node.delivered_list)
    verify_total_order_consistency(orders)
    return delivery_times, tuple(orders[0])


def _round_limit(options: dict[str, Any]) -> dict[str, Any]:
    """The part of the run options phase 2 shares: ``max_rounds``."""
    return {k: v for k, v in options.items() if k == "max_rounds"}


def run_counting_multicast(
    graph: Graph,
    spanning: SpanningTree,
    senders: Iterable[int],
    **options: Any,
) -> MulticastOutcome:
    """Ordered multicast via distributed counting (the conventional solution).

    Phase 1: the senders obtain sequence numbers from a combining-tree
    counter on ``spanning``.
    Phase 2: each sender floods its message — tagged with its sequence
    number — starting the round its number arrived; receivers deliver in
    sequence order.  ``options`` are run options for phase 1, the
    coordination run the comparison is about, forwarded to
    :func:`repro.sim.run_protocol`; phase 2 shares only ``max_rounds``.
    """
    senders_t = tuple(sorted(set(senders)))
    coord = run_combining_counting(spanning, senders_t, **options)
    start = {v: coord.delays[v] for v in senders_t}
    meta: dict[int, Hashable] = {v: coord.counts[v] for v in senders_t}
    delivery, order = _run_dissemination(
        graph, "counting", start, meta, **_round_limit(options)
    )
    return MulticastOutcome(
        flavour="counting",
        senders=senders_t,
        coordination_delays=dict(coord.delays),
        delivery_times=delivery,
        delivery_order=order,
    )


def run_queuing_multicast(
    graph: Graph,
    spanning: SpanningTree,
    senders: Iterable[int],
    **options: Any,
) -> MulticastOutcome:
    """Ordered multicast via distributed queuing (Herlihy et al.'s proposal).

    Phase 1: the senders run the arrow protocol on ``spanning``; each
    message is tagged with its predecessor's sender id (``None`` for the
    first).  Phase 2 floods as in the counting flavour; receivers deliver
    a message once its predecessor has been delivered.  ``options`` as
    for :func:`run_counting_multicast`.
    """
    senders_t = tuple(sorted(set(senders)))
    coord = run_arrow(spanning, senders_t, **options)
    start = {v: coord.delays[op_of(v)] for v in senders_t}
    meta: dict[int, Hashable] = {}
    for v in senders_t:
        pred = coord.predecessors[op_of(v)]
        meta[v] = None if pred == init_op(coord.tail) else pred[1]
    delivery, order = _run_dissemination(
        graph, "queuing", start, meta, **_round_limit(options)
    )
    return MulticastOutcome(
        flavour="queuing",
        senders=senders_t,
        coordination_delays=start,
        delivery_times=delivery,
        delivery_order=order,
    )
