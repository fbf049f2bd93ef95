"""Combining-tree counting (and fetch-and-add).

The classic software-combining counter, specialised to the one-shot
scenario.  Every requester holds an increment (1 for counting):

1. **Aggregate up** — every leaf of the spanning tree reports its
   subtree's increment sum and requester count; an internal node waits
   for all of its children's reports, adds its own, and reports to its
   parent.  Non-requesters participate: the request set is unknown to the
   algorithm (Section 2.2), so silence cannot be distinguished from "no
   requests" without the synchronous-silence tricks the lower-bound proof
   worries about — the implementation plays honestly and always sends.
2. **Distribute down** — each node orders its own request first, then its
   children's subtrees in sorted order, and sends each child holding a
   requester the sum of every increment ordered before that subtree (one
   message per child, serialised by the send capacity).

A requester completes with the *inclusive* prefix sum, which is its rank
under unit increments; fetch-and-add (:mod:`repro.adding`) subtracts the
increment to get the prior sum.  Both send the same messages.

A requester's delay is the round its prefix arrives.  On a balanced
constant-degree tree the total delay is ``O(n log n)``; on a path it
degrades to ``Theta(n^2)``, matching Theorem 3.6's lower bound shape.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.problem import CountingResult
from repro.sim import Message, Node, NodeContext, SynchronousNetwork, run_protocol
from repro.topology.properties import check_vertices
from repro.topology.spanning import SpanningTree


class _CombiningNode(Node):
    """One node of the combining tree.

    Messages:
        ``up``: payload = (subtree increment sum, subtree requesters),
            child -> parent.
        ``down``: payload = base, parent -> child: the sum of every
            increment ordered before the child's subtree.
    """

    __slots__ = (
        "parent",
        "children",
        "increment",
        "pending",
        "child_totals",
        "total",
        "requesters",
        "completed",
    )

    def __init__(
        self, node_id: int, parent: int, children: tuple[int, ...], increment: int | None
    ) -> None:
        super().__init__(node_id)
        self.parent = parent
        self.children = children
        #: this node's increment, or None if it does not request.
        self.increment = increment
        self.pending = len(children)
        #: child -> (subtree increment sum, subtree requesters).
        self.child_totals: dict[int, tuple[int, int]] = {}
        #: this subtree's increment sum and requester count (so far).
        self.total = increment or 0
        self.requesters = 0 if increment is None else 1
        self.completed = False

    def _report_or_finish(self, ctx: NodeContext) -> None:
        """Send the aggregate up, or start distribution if this is the root."""
        if self.parent != self.node_id:
            ctx.send(self.parent, "up", payload=(self.total, self.requesters))
        else:
            self._distribute(0, ctx)

    def _distribute(self, base: int, ctx: NodeContext) -> None:
        """Hand out prefix sums to this subtree, starting after ``base``."""
        nxt = base
        if self.increment is not None and not self.completed:
            self.completed = True
            nxt += self.increment
            ctx.complete(self.node_id, result=nxt)
        for c in self.children:
            total, requesters = self.child_totals[c]
            if requesters:
                ctx.send(c, "down", payload=nxt)
            nxt += total

    def on_start(self, ctx: NodeContext) -> None:
        if self.pending == 0:
            self._report_or_finish(ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "up":
            total, requesters = self.child_totals[msg.src] = msg.payload
            self.total += total
            self.requesters += requesters
            self.pending -= 1
            if self.pending == 0:
                self._report_or_finish(ctx)
        elif msg.kind == "down":
            self._distribute(msg.payload, ctx)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")


def _run_combining(
    spanning: SpanningTree, increments: Mapping[int, int], capacity: int, options: dict
) -> tuple[dict[int, _CombiningNode], SynchronousNetwork]:
    """Run the combining tree; returns its nodes and the network."""
    check_vertices(spanning.graph, increments)
    tree = spanning.tree
    nodes = {
        v: _CombiningNode(v, tree.parent[v], tree.children[v], increments.get(v))
        for v in range(tree.n)
    }
    net = run_protocol(
        spanning.as_graph(), nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )
    return nodes, net


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
    req = tuple(sorted(set(requests)))
    _, net = _run_combining(spanning, dict.fromkeys(req, 1), capacity, options)
    return CountingResult.of(f"combining[{spanning.label}]", req, net)
