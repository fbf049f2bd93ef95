"""The arrow node state machine.

State per node ``v`` (Section 4 of the paper):

* ``link``: the arrow — a tree neighbor of ``v``, or ``v`` itself when the
  queue tail is parked here;
* ``parked``: the identifier of the operation currently queued at ``v``
  (the paper's ``id(v)``); meaningful as the queue tail exactly when
  ``link == v``.

Rules (path reversal):

* *Issue* ``a`` at ``v``: remember ``w = link``; set ``link = v`` and
  ``parked = a``; if ``w == v`` the previous parked operation is ``a``'s
  predecessor (complete immediately), otherwise send ``queue(a)`` to ``w``.
* *Receive* ``queue(a)`` from ``y`` at ``v``: remember ``w = link``; set
  ``link = y``; if ``w == v`` then ``a``'s predecessor is ``parked``
  (complete, and park ``a`` here), otherwise forward ``queue(a)`` to ``w``.

Several ``queue()`` messages arriving at a node in the same round are
processed sequentially within the round in deterministic order — the
paper's "expanded time step" convention for constant-degree trees.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.problem import init_op, op_of
from repro.sim import Message, Node, NodeContext


class ArrowNode(Node):
    """One node of the arrow protocol.

    Args:
        node_id: this vertex.
        link: initial arrow (tree parent toward the tail; the tail points
            at itself).
        issue_at: when this node issues its queuing operation: ``None``
            for never, ``0`` in ``on_start``, ``t > 0`` at wake-up ``t``.

    A ``queue()`` message that finds its predecessor here ends in
    :meth:`_queued`, the one hook subclasses override (the token-passing
    node of :mod:`repro.directory` does).
    """

    __slots__ = ("link", "parked", "issue_at", "pred_found")

    def __init__(self, node_id: int, link: int, issue_at: int | None) -> None:
        super().__init__(node_id)
        self.link = link
        self.parked: Hashable = init_op(node_id) if link == node_id else None
        self.issue_at = issue_at
        #: predecessor assignments discovered at this node: op -> pred op
        #: (None until the first one).
        self.pred_found: dict[Hashable, Hashable] | None = None

    def on_start(self, ctx: NodeContext) -> None:
        if self.issue_at == 0:
            self._issue(ctx)
        elif self.issue_at is not None:
            ctx.schedule_wakeup(self.issue_at)

    def on_wake(self, ctx: NodeContext) -> None:
        self._issue(ctx)

    def _issue(self, ctx: NodeContext) -> None:
        a = op_of(self.node_id)
        w = self.link
        self.link = self.node_id
        if w == self.node_id:
            self._found(a, ctx)
        else:
            self.parked = a
            ctx.send(w, "queue", payload=a)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind != "queue":  # pragma: no cover - defensive
            raise ValueError(f"arrow node got unexpected message {msg.kind!r}")
        a = msg.payload
        w = self.link
        self.link = msg.src
        if w == self.node_id:
            self._found(a, ctx)
        else:
            ctx.send(w, "queue", payload=a)

    def _found(self, a: Hashable, ctx: NodeContext) -> None:
        """``a`` reached the queue tail here: the op parked here precedes it."""
        pred = self.parked
        self.parked = a
        found = self.pred_found
        if found is None:
            found = self.pred_found = {}
        found[a] = pred
        self._queued(a, pred, ctx)

    def _queued(self, a: Hashable, pred: Hashable, ctx: NodeContext) -> None:
        """Act on ``pred`` preceding ``a``: by default, complete ``a``."""
        ctx.complete(a, result=pred)
