"""Combining-tree counting.

The classic software-combining counter, specialised to the one-shot
scenario:

1. **Aggregate up** — every leaf of the spanning tree reports how many
   requests its subtree holds (0 or 1); an internal node waits for all of
   its children's reports, adds its own bit, and reports the sum to its
   parent.  Non-requesters participate: the request set is unknown to the
   algorithm (Section 2.2), so silence cannot be distinguished from "no
   requests" without the synchronous-silence tricks the lower-bound proof
   worries about — the implementation plays honestly and always sends.
2. **Distribute down** — the root assigns its subtree the rank interval
   ``[1 .. total]``; each node takes the first rank for its own request
   (if any) and splits the remainder among its children in sorted order,
   one interval message per child (serialised by the send capacity).

A requester's delay is the round its rank arrives.  On a balanced
constant-degree tree the total delay is ``O(n log n)``; on a path it
degrades to ``Theta(n^2)``, matching Theorem 3.6's lower bound shape.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.problem import CountingResult
from repro.core.verify import verify_counting
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.spanning import SpanningTree


class _CombiningNode(Node):
    """One node of the combining tree.

    Messages:
        ``up``: payload = subtree request count, child -> parent.
        ``down``: payload = (base,), parent -> child: the child's subtree
            ranks are ``base+1 .. base+subtree_count``.
    """

    __slots__ = (
        "parent",
        "children",
        "requesting",
        "pending",
        "child_counts",
        "subtotal",
        "completed",
    )

    def __init__(
        self, node_id: int, parent: int, children: tuple[int, ...], requesting: bool
    ) -> None:
        super().__init__(node_id)
        self.parent = parent
        self.children = children
        self.requesting = requesting
        self.pending = len(children)
        self.child_counts: dict[int, int] = {}
        self.subtotal = 1 if requesting else 0
        self.completed = False

    def _report_or_finish(self, ctx: NodeContext) -> None:
        """Send the aggregate up, or start distribution if this is the root."""
        if self.parent != self.node_id:
            ctx.send(self.parent, "up", payload=self.subtotal)
        else:
            self._distribute(0, ctx)

    def _distribute(self, base: int, ctx: NodeContext) -> None:
        """Assign ranks ``base+1..base+subtotal`` to this subtree."""
        nxt = base
        if self.requesting and not self.completed:
            self.completed = True
            nxt += 1
            ctx.complete(self.node_id, result=nxt)
        for c in self.children:
            cnt = self.child_counts[c]
            if cnt > 0:
                ctx.send(c, "down", payload=nxt)
            nxt += cnt

    def on_start(self, ctx: NodeContext) -> None:
        if self.pending == 0:
            self._report_or_finish(ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "up":
            self.child_counts[msg.src] = msg.payload
            self.subtotal += msg.payload
            self.pending -= 1
            if self.pending == 0:
                self._report_or_finish(ctx)
        elif msg.kind == "down":
            self._distribute(msg.payload, ctx)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")


def run_combining_counting(
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    capacity: int = 1,
    **options: Any,
) -> CountingResult:
    """Run combining-tree counting on a spanning tree; output verified.

    Args:
        spanning: the spanning tree to combine along (messages use tree
            edges only).
        requests: requesting vertices.
        capacity: per-round message budget (1 = the paper's strict model;
            the tree degree = expanded steps).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    tree = spanning.tree
    req = tuple(sorted(set(requests)))
    req_set = set(req)
    nodes = {
        v: _CombiningNode(
            v,
            parent=tree.parent[v],
            children=tree.children[v],
            requesting=(v in req_set),
        )
        for v in range(tree.n)
    }
    net = run_protocol(
        spanning.as_graph(), nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )
    counts = {v: int(c) for v, c in net.delays.result_by_op().items()}
    verify_counting(req, counts)
    return CountingResult(
        algorithm=f"combining[{spanning.label}]",
        requests=req,
        counts=counts,
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )
