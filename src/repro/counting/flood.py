"""Full-information gossip counting ("flood-and-rank").

Every node's input bit is flooded to everyone; a requester ranks itself
by id among the requesters it has heard of.  Because ranks are assigned
in id order, requester ``v`` can complete as soon as it knows the input
bit of every vertex ``u < v`` — an information profile that mirrors the
lower-bound argument of Section 3: a node announcing a high rank must
have learned about many others first.

The protocol is the honest version of the "trivial all-to-all algorithm"
the paper's model restriction is designed to punish: with at most one
message sent and received per node per round, distributing all the bits
takes real time, and the measured delays show it.

Mechanics: a node sends (at most one per round, via engine wakeups) its
current knowledge to the next neighbor — in cyclic order — whose last
update from us predates our current knowledge.  New knowledge reactivates
a dormant node.  Quiescence is reached when all nodes know all bits and
have propagated them.

The gossip step is O(1) because of a cyclic-run invariant.  Every
neighbor was last sent at most the old knowledge, so when a node learns
anything, *all* its neighbors become needy.  Sends then go round-robin
from the cursor ``rr``, so the neighbors still needing the current
knowledge are always the cyclic run of ``fresh`` neighbors starting at
``rr``: the target is ``nbrs[rr]``, no scan is needed, and "gossip again
next round" is ``fresh > 1``.  Growth resets ``fresh`` to the degree.

Gossip messages carry *deltas*, not snapshots.  Knowledge is two integer
bitmasks, ``known`` (the vertices whose input bit we know) and ``req``
(those of them that request); ``sent[i]`` is the ``known`` mask last
sent to ``nbrs[i]``, and the payload is what that link has not carried
yet: ``delta = known & ~sent[i]`` and ``req & delta``.  The message *schedule* is
unchanged — it depends only on when knowledge grows — so traces and
stats are identical to the snapshot version, and a message costs a few
word operations on n-bit integers, not one step per new bit.  Knowledge
union is commutative and idempotent, so duplicated or reordered
deliveries (the fault-tolerant wrapper's retry path) remain correct.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.problem import CountingResult
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.base import Graph
from repro.topology.properties import check_vertices


class _FloodNode(Node):
    """One gossiping node.

    Messages:
        ``gossip``: payload = ``(delta, req)`` bitmasks — the vertices
            whose bits this neighbor has not been sent yet, and which of
            them request.
    """

    __slots__ = (
        "low", "known", "req", "sent", "rr", "fresh",
        "wake_pending", "done", "nbrs",
    )

    def __init__(self, node_id: int, requesting: bool) -> None:
        super().__init__(node_id)
        #: the ids below ours; rank-by-id completion needs all their bits.
        self.low = (1 << node_id) - 1
        #: bit ``u`` set once we know vertex ``u``'s input bit.
        self.known = 1 << node_id
        #: the known vertices whose bit is set (the requesters).
        self.req = self.known if requesting else 0
        #: per neighbor, aligned with ``nbrs``: the ``known`` mask last sent.
        self.sent: list[int] = []
        #: round-robin cursor into ``nbrs``: the next gossip target.
        self.rr = 0
        #: neighbors from ``rr`` on (cyclically) still needing our knowledge.
        self.fresh = 0
        self.wake_pending = False
        #: whether our op has completed; a non-requester has none.
        self.done = not requesting
        #: neighbor tuple, cached from the context in ``on_start``.
        self.nbrs: tuple[int, ...] = ()

    # -- helpers ---------------------------------------------------------

    def _maybe_complete(self, ctx: NodeContext) -> None:
        low = self.low
        if not self.done and self.known & low == low:
            self.done = True
            ctx.complete(self.node_id, result=1 + (self.req & low).bit_count())

    def _gossip_step(self, ctx: NodeContext) -> None:
        """Send to the next needy neighbor, ``nbrs[rr]`` (module docstring).

        Gossip again next round while another neighbor is still needy.
        """
        fresh = self.fresh
        if not fresh:
            return
        rr = self.rr
        sent = self.sent
        known = self.known
        delta = known ^ sent[rr]  # what we sent is a subset of ``known``
        sent[rr] = known
        self.fresh = fresh - 1
        nxt = rr + 1
        self.rr = nxt if nxt < len(sent) else 0
        ctx.send(self.nbrs[rr], "gossip", payload=(delta, self.req & delta))
        if fresh > 1 and not self.wake_pending:
            self.wake_pending = True
            ctx.schedule_wakeup(ctx.now + 1)

    # -- engine hooks ------------------------------------------------------

    def on_start(self, ctx: NodeContext) -> None:
        nbrs = self.nbrs = ctx.neighbors
        self.sent = [0] * len(nbrs)
        self.fresh = len(nbrs)
        self._maybe_complete(ctx)
        self._gossip_step(ctx)

    def on_wake(self, ctx: NodeContext) -> None:
        self.wake_pending = False
        self._gossip_step(ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind != "gossip":  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")
        delta, req = msg.payload
        known = self.known | delta
        if known != self.known:
            self.known = known
            self.req |= req
            # Growth makes every neighbor needy (module docstring); a
            # node that receives has a neighbor, so it gossips next round.
            self.fresh = len(self.nbrs)
            self._maybe_complete(ctx)
            if not self.wake_pending:
                self.wake_pending = True
                ctx.schedule_wakeup(ctx.now + 1)


def run_flood_counting(
    graph: Graph, requests: Iterable[int], **options: Any
) -> CountingResult:
    """Run flood-and-rank counting on any connected graph; output verified.

    ``options`` are run options, forwarded to :func:`repro.sim.run_protocol`.
    """
    req = tuple(sorted(set(requests)))
    check_vertices(graph, req)
    req_set = set(req)
    nodes = {v: _FloodNode(v, requesting=(v in req_set)) for v in graph.vertices()}
    net = run_protocol(graph, nodes, send_capacity=1, recv_capacity=1, **options)
    return CountingResult.of("flood", req, net)
