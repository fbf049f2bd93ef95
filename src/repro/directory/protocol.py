"""Mobile-object directory over the arrow queue.

The arrow queue orders the requests on the spanning tree; the object (the
token) then moves from each holder to its successor along shortest paths
of the communication graph ``G``, so on low-diameter graphs the hand-off
is much cheaper than a tree walk.  On ``G = T`` every shortest path is the
tree path, and the run is exactly Raymond's token mutex
(:func:`repro.mutex.run_token_mutex` is this runner on the tree itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.arrow.protocol import ArrowNode, init_op, op_of
from repro.arrow.runner import _run_arrow_nodes
from repro.sim import Message, NodeContext
from repro.topology.base import Graph
from repro.topology.properties import next_hops_toward
from repro.topology.spanning import SpanningTree


class _TokenNode(ArrowNode):
    """Arrow node that also passes the token (the object, the mutex).

    A ``queue()`` message that stops here found its predecessor, which
    originated here: this node records the successor and hands the token
    on once its own use is over.

    Messages:
        ``queue``: the arrow find request, on tree edges only.
        ``token``: the token, payload = destination vertex, routed hop by
            hop along shortest paths of ``graph`` (the tree, for the mutex).

    Operations issue at round 0 only: ``on_wake`` ends a use.
    """

    __slots__ = (
        "graph",
        "use_rounds",
        "has_token",
        "token_for",
        "succ_of",
        "released",
    )

    def __init__(
        self,
        node_id: int,
        link: int,
        issue_at: int | None,
        graph: Graph,
        use_rounds: int,
    ) -> None:
        super().__init__(node_id, link, issue_at)
        is_home = link == node_id
        self.graph = graph
        self.use_rounds = use_rounds
        self.has_token = is_home
        self.token_for: Hashable = init_op(node_id) if is_home else None
        #: op originating here -> origin vertex of its successor op
        self.succ_of: dict[Hashable, int] = {}
        #: ops originating here whose use of the token has finished
        self.released: set[Hashable] = {init_op(node_id)} if is_home else set()

    def _queued(self, a: Hashable, pred: Hashable, ctx: NodeContext) -> None:
        self.succ_of[pred] = a[1]
        self._try_pass(ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind != "token":
            super().on_receive(msg, ctx)
        elif msg.payload == self.node_id:
            self._acquire(ctx)
        else:
            self._send_token(msg.payload, ctx)

    def _acquire(self, ctx: NodeContext) -> None:
        if self.has_token:
            return  # spurious second delivery; acquiring is idempotent
        self.has_token = True
        self.token_for = op_of(self.node_id)
        ctx.complete(op_of(self.node_id), result=ctx.now)
        if self.use_rounds == 0:
            self._release(ctx)
        else:
            ctx.schedule_wakeup(ctx.now + self.use_rounds)

    def on_wake(self, ctx: NodeContext) -> None:
        self._release(ctx)

    def _release(self, ctx: NodeContext) -> None:
        self.released.add(op_of(self.node_id))
        self._try_pass(ctx)

    def _try_pass(self, ctx: NodeContext) -> None:
        if not self.has_token:
            return
        op = self.token_for
        if op not in self.released or op not in self.succ_of:
            return
        target = self.succ_of[op]
        self.has_token = False
        if target == self.node_id:
            self._acquire(ctx)
        else:
            self._send_token(target, ctx)

    def _send_token(self, dest: int, ctx: NodeContext) -> None:
        hop = next_hops_toward(self.graph, dest)[self.node_id]
        ctx.send(hop, "token", payload=dest)


@dataclass(frozen=True)
class DirectoryOutcome:
    """Result of one directory run.

    Attributes:
        requests: requesting vertices, sorted.
        use_rounds: rounds each holder keeps the object.
        acquire_rounds: vertex -> round it received the object.
        order: vertices in acquisition order.
    """

    requests: tuple[int, ...]
    use_rounds: int
    acquire_rounds: dict[int, int]
    order: tuple[int, ...]

    @property
    def total_waiting(self) -> int:
        """Sum of acquisition rounds — the directory's aggregate latency."""
        return sum(self.acquire_rounds.values())

    def exclusive_holding(self) -> bool:
        """The object is never at two places: acquisitions are spaced by
        at least ``use_rounds`` (plus travel, which only helps)."""
        entries = sorted(self.acquire_rounds.values())
        return all(b - a >= self.use_rounds for a, b in zip(entries, entries[1:]))


def run_object_directory(
    graph: Graph,
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    use_rounds: int = 1,
    home: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> DirectoryOutcome:
    """Run the arrow directory: find on the tree, move on the graph.

    Args:
        graph: the communication graph (object moves take shortest paths
            here).
        spanning: the spanning tree of ``graph`` carrying find requests.
        requests: vertices requesting the object at round 0.
        use_rounds: how long each holder uses the object before releasing.
        home: the object's initial location (default: tree root).
        capacity: per-round message budget (default: tree max degree —
            object hops and finds share it, which is the interesting
            contention).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.

    Raises:
        ValueError: if a request vertex or ``home`` is not a vertex, or
            ``use_rounds`` is negative.
        AssertionError: if some requester never obtained the object or
            exclusivity is violated.
    """
    if use_rounds < 0:
        raise ValueError(f"use_rounds must be >= 0, got {use_rounds}")
    req = tuple(sorted(set(requests)))

    def make_node(v: int, link: int, issue_at: int | None) -> _TokenNode:
        return _TokenNode(v, link, issue_at, graph, use_rounds)

    net, _, _ = _run_arrow_nodes(
        spanning, dict.fromkeys(req, 0), home, capacity, options, make_node, graph
    )
    acquire = {op[1]: r for op, r in net.delays.delay_by_op().items()}
    if set(acquire) != set(req):
        raise AssertionError(
            f"{len(acquire)} of {len(req)} requesters obtained the object"
        )
    order = tuple(sorted(acquire, key=lambda v: acquire[v]))
    out = DirectoryOutcome(
        requests=req, use_rounds=use_rounds, acquire_rounds=acquire, order=order
    )
    if not out.exclusive_holding():
        raise AssertionError("object exclusivity violated")
    return out
