"""Protocol node base class and the context API the engine exposes to it."""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any

from repro.sim.errors import ProtocolViolation
from repro.sim.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import SynchronousNetwork

#: Builds a bare ``Message`` for the enqueue (see ``NodeContext.send``).
_new_message = object.__new__


class NodeContext:
    """The engine-side API handed to a node's callbacks.

    A context is bound to one node of one network.  All interaction with
    the world — sending messages, learning the current round, reporting
    operation completion — goes through it, which keeps protocol code free
    of engine internals and makes the model rules (neighbors only,
    capacities, unit delay) enforceable in one place.

    ``send`` and ``schedule_wakeup`` write the engine's queues
    themselves, so each is one call from the protocol.

    A context is valid only until its run quiesces.  At quiescence the
    engine detaches every context from the network (``send``, ``now``,
    ``complete`` and ``schedule_wakeup`` then fail), so a finished
    network holds no reference cycle and is freed by reference counting
    as soon as the runner drops it.  A run that raises keeps its
    contexts attached for post-mortems.
    """

    __slots__ = ("_network", "_node_id", "_neighbors", "_nbr_set")

    def __init__(self, network: "SynchronousNetwork", node_id: int) -> None:
        self._network = network
        self._node_id = node_id
        self._neighbors = network.neighbors(node_id)
        self._nbr_set = network.neighbor_set(node_id)

    @property
    def node_id(self) -> int:
        """Id of the node this context is bound to."""
        return self._node_id

    @property
    def now(self) -> int:
        """The current round number (0 during ``on_start``)."""
        return self._network.now

    @property
    def neighbors(self) -> tuple[int, ...]:
        """The node's neighbors in the communication graph, sorted."""
        return self._neighbors

    def send(self, dst: int, kind: str, payload: Any = None) -> Message:
        """Enqueue a message to neighbor ``dst``.

        The message leaves the node's outbox subject to the per-round send
        capacity and arrives one round after it leaves.  Returns the
        :class:`Message` so callers may inspect it after the run.

        Raises:
            ProtocolViolation: if ``dst`` is not a neighbor of this node.
        """
        if dst not in self._nbr_set:
            raise ProtocolViolation(
                f"node {self._node_id} tried to send to non-neighbor {dst}"
            )
        net = self._network
        src = self._node_id
        if net.strict:
            net._charge_send(src)
        seq = net._msg_seq
        net._msg_seq = seq + 1
        # Built without the class call: on CPython 3.11 (timeit, 2-vCPU
        # VM) Message(...) costs ~390 ns, as does a hand-written
        # __init__, while a bare object plus the eight slot stores costs
        # ~225 ns.  Every slot equals Message(src, dst, kind, payload,
        # -1, -1, -1, seq).
        msg = _new_message(Message)
        msg.src = src
        msg.dst = dst
        msg.kind = kind
        msg.payload = payload
        msg.sent_at = -1
        msg.ready_at = -1
        msg.delivered_at = -1
        msg.seq = seq
        box = net._outboxes[src]
        if box is None:
            # The node's first send makes its outbox.
            box = net._outboxes[src] = deque()
        box.append(msg)
        backlog = len(box)
        if backlog == 1:
            net._send_active.append(src)
        stats = net.stats
        if backlog > stats.max_send_backlog:
            stats.max_send_backlog = backlog
        net._last_outbox = backlog
        if net.trace is not None:
            net.trace.log.extend(("enqueue", net.now, src, dst, kind))
        return msg

    def complete(self, op_id: Any, result: Any = None) -> None:
        """Report that operation ``op_id`` received its response this round.

        The engine records the completion round in its
        :class:`~repro.sim.metrics.DelayRecorder`.  Completing the same
        operation twice raises :class:`ProtocolViolation`.
        """
        self._network._record_completion(op_id, result, self._node_id)

    def schedule_wakeup(self, round_: int) -> None:
        """Ask the engine to call this node's ``on_wake`` in round ``round_``.

        Used by long-lived protocols whose nodes act at predetermined
        times without having received a message (e.g. staggered request
        arrivals).  The round must be in the future.

        Raises:
            ProtocolViolation: if ``round_`` is not strictly after the
                current round.
        """
        net = self._network
        if round_ <= net.now:
            raise ProtocolViolation(
                f"wakeup for node {self._node_id} at round {round_} is not in "
                f"the future (now={net.now})"
            )
        due = net._wakeups.get(round_)
        if due is None:
            net._wakeups[round_] = [self._node_id]
            heappush(net._wake_heap, round_)
        else:
            due.append(self._node_id)


class Node:
    """Base class for all protocol nodes.

    Subclasses override :meth:`on_start` (called once, in round 0, for
    every node — this is where requesters issue their operations) and
    :meth:`on_receive` (called once per delivered message).  Both receive
    the node's :class:`NodeContext`.

    The base class stores the node id and nothing else; protocol state
    lives in subclasses.
    """

    __slots__ = ("node_id",)

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_start(self, ctx: NodeContext) -> None:
        """Hook run in round 0, before any message is delivered."""

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        """Hook run when a message is delivered to this node."""

    def on_wake(self, ctx: NodeContext) -> None:
        """Hook run in a round this node scheduled via ``schedule_wakeup``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(node_id={self.node_id})"

