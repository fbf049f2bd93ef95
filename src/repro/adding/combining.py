"""Combining-tree fetch-and-add.

The combining counter of :mod:`repro.counting.combining`, generalised to
arbitrary integer increments: the up phase aggregates subtree *sums*
instead of request counts, and the down phase distributes prefix *sums*
instead of rank intervals.  The message pattern — hence the delay
profile — is identical to combining-tree counting, demonstrating that
addition is at least as expensive as counting on the same tree (and
strictly harder to shortcut: the result depends on every predecessor's
value, not just their number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.sim import Message, Node, NodeContext, RunStats, run_protocol
from repro.topology.spanning import SpanningTree


@dataclass(frozen=True)
class AdditionResult:
    """Outcome of a one-shot fetch-and-add execution.

    Attributes:
        algorithm: short name of the adding algorithm.
        increments: vertex -> its contributed increment.
        prior_sums: vertex -> the accumulator value *before* its own
            increment took effect (fetch-and-add's return value).
        order: the induced total order of the requesters.
        delays: vertex -> round the prior sum arrived back.
        stats: engine accounting.
    """

    algorithm: str
    increments: dict[int, int]
    prior_sums: dict[int, int]
    order: tuple[int, ...]
    delays: dict[int, int]
    stats: RunStats

    @property
    def total_delay(self) -> int:
        """The paper's cost metric: sum of per-operation delays."""
        return sum(self.delays.values())

    @property
    def max_delay(self) -> int:
        """Largest single operation delay."""
        return max(self.delays.values(), default=0)

    def verify(self) -> None:
        """Check the fetch-and-add specification.

        Along ``order``, every prior sum must equal the prefix sum of the
        increments ordered before it.

        Raises:
            AssertionError: on any mismatch.
        """
        running = 0
        for v in self.order:
            if self.prior_sums[v] != running:
                raise AssertionError(
                    f"vertex {v}: prior sum {self.prior_sums[v]} != prefix {running}"
                )
            running += self.increments[v]


class _AddNode(Node):
    """One node of the combining-adder.

    Messages:
        ``up``: payload = (subtree increment sum); child -> parent.
        ``down``: payload = base prefix sum for the subtree.
    """

    __slots__ = (
        "parent",
        "children",
        "delta",
        "participating",
        "pending",
        "child_sums",
        "subtotal",
        "completed",
    )

    def __init__(
        self,
        node_id: int,
        parent: int,
        children: tuple[int, ...],
        delta: int | None,
    ) -> None:
        super().__init__(node_id)
        self.parent = parent
        self.children = children
        self.delta = delta
        self.participating = delta is not None
        self.pending = len(children)
        self.child_sums: dict[int, tuple[int, bool]] = {}
        self.subtotal = delta or 0
        self.completed = False

    def _report_or_finish(self, ctx: NodeContext) -> None:
        if self.parent != self.node_id:
            ctx.send(
                self.parent,
                "up",
                payload=(self.subtotal, self._subtree_participates()),
            )
        else:
            self._distribute(0, ctx)

    def _subtree_participates(self) -> bool:
        return self.participating or any(p for _s, p in self.child_sums.values())

    def _distribute(self, base: int, ctx: NodeContext) -> None:
        nxt = base
        if self.participating and not self.completed:
            self.completed = True
            ctx.complete(self.node_id, result=nxt)
            nxt += self.delta
        for c in self.children:
            s, participates = self.child_sums[c]
            if participates:
                ctx.send(c, "down", payload=nxt)
            nxt += s

    def on_start(self, ctx: NodeContext) -> None:
        if self.pending == 0:
            self._report_or_finish(ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "up":
            s, participates = msg.payload
            self.child_sums[msg.src] = (s, participates)
            self.subtotal += s
            self.pending -= 1
            if self.pending == 0:
                self._report_or_finish(ctx)
        elif msg.kind == "down":
            self._distribute(msg.payload, ctx)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")


def run_combining_addition(
    spanning: SpanningTree,
    increments: Mapping[int, int],
    *,
    capacity: int = 1,
    **options: Any,
) -> AdditionResult:
    """Run combining-tree fetch-and-add; the result is verified.

    Args:
        spanning: the spanning tree to combine along.
        increments: mapping vertex -> integer increment (vertices absent
            from the mapping do not participate).
        capacity: per-round message budget (1 = strict model).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    tree = spanning.tree
    for v in increments:
        if not (0 <= v < tree.n):
            raise ValueError(f"vertex {v} out of range")
    nodes = {
        v: _AddNode(
            v,
            parent=tree.parent[v],
            children=tree.children[v],
            delta=increments.get(v),
        )
        for v in range(tree.n)
    }
    net = run_protocol(
        spanning.as_graph(), nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )

    prior = {v: int(s) for v, s in net.delays.result_by_op().items()}
    # The induced order is the DFS order of participants: recover it by
    # walking the tree exactly as _distribute did (iteratively — spanning
    # trees can be path-shaped and deeper than the recursion limit).
    order: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if nodes[v].participating:
            order.append(v)
        stack.extend(
            c
            for c in reversed(nodes[v].children)
            if nodes[c]._subtree_participates()
        )
    result = AdditionResult(
        algorithm=f"combining-add[{spanning.label}]",
        increments=dict(increments),
        prior_sums=prior,
        order=tuple(order),
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )
    result.verify()
    return result
