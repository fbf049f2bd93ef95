"""Arrow-queued token passing for distributed mutual exclusion."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.arrow.protocol import init_op, op_of
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.spanning import SpanningTree
from repro.tree import RootedTree


class _MutexNode(Node):
    """Arrow node extended with token passing and critical-section timing.

    Messages:
        ``queue``: the arrow protocol's request (payload = op id).
        ``token``: the single token, source-routed (payload = remaining
            path, a list of vertices ending at the next holder).
    """

    __slots__ = (
        "link",
        "parked",
        "requesting",
        "tree",
        "cs_rounds",
        "has_token",
        "token_for",
        "succ_of",
        "cs_completed",
        "entry_round",
    )

    def __init__(
        self,
        node_id: int,
        link: int,
        requesting: bool,
        tree: RootedTree,
        cs_rounds: int,
        is_tail: bool,
    ) -> None:
        super().__init__(node_id)
        self.link = link
        self.parked: Hashable = init_op(node_id) if link == node_id else None
        self.requesting = requesting
        self.tree = tree
        self.cs_rounds = cs_rounds
        self.has_token = is_tail
        self.token_for: Hashable = init_op(node_id) if is_tail else None
        #: op originating here -> origin vertex of its successor op
        self.succ_of: dict[Hashable, int] = {}
        #: ops originating here whose critical section has finished
        self.cs_completed: set[Hashable] = {init_op(node_id)} if is_tail else set()
        self.entry_round: int | None = None

    # -- arrow core ---------------------------------------------------------

    def _terminate(self, a: Hashable, ctx: NodeContext) -> None:
        """A queue() message for op ``a`` found its predecessor here."""
        pred = self.parked
        self.parked = a
        # This node is the origin of ``pred``; record the successor and see
        # whether the token can move on.
        self.succ_of[pred] = a[1]
        self._try_pass(ctx)

    def on_start(self, ctx: NodeContext) -> None:
        if not self.requesting:
            return
        a = op_of(self.node_id)
        w = self.link
        self.link = self.node_id
        if w == self.node_id:
            self._terminate(a, ctx)
        else:
            self.parked = a
            ctx.send(w, "queue", payload=a)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "queue":
            a = msg.payload
            w = self.link
            self.link = msg.src
            if w == self.node_id:
                self._terminate(a, ctx)
            else:
                ctx.send(w, "queue", payload=a)
        elif msg.kind == "token":
            path = msg.payload
            if path:
                ctx.send(path[0], "token", payload=path[1:])
            else:
                self._acquire(ctx)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")

    # -- token / critical section -------------------------------------------

    def _acquire(self, ctx: NodeContext) -> None:
        """The token arrived for this node's own operation: enter the CS."""
        if self.has_token:
            return  # spurious second token; acquiring is idempotent
        self.has_token = True
        self.token_for = op_of(self.node_id)
        self.entry_round = ctx.now
        ctx.complete(op_of(self.node_id), result=ctx.now)
        if self.cs_rounds == 0:
            self._exit_cs(ctx)
        else:
            ctx.schedule_wakeup(ctx.now + self.cs_rounds)

    def on_wake(self, ctx: NodeContext) -> None:
        self._exit_cs(ctx)

    def _exit_cs(self, ctx: NodeContext) -> None:
        self.cs_completed.add(op_of(self.node_id))
        self._try_pass(ctx)

    def _try_pass(self, ctx: NodeContext) -> None:
        if not self.has_token:
            return
        op = self.token_for
        if op not in self.cs_completed or op not in self.succ_of:
            return
        target = self.succ_of[op]
        self.has_token = False
        if target == self.node_id:
            self._acquire(ctx)
        else:
            path = self.tree.path(self.node_id, target)[1:]
            ctx.send(path[0], "token", payload=path[1:])


@dataclass(frozen=True)
class MutexOutcome:
    """Result of a token-mutex run.

    Attributes:
        requests: requesting vertices, sorted.
        cs_rounds: critical-section duration used.
        entry_rounds: vertex -> round it entered the critical section.
        order: vertices in critical-section order.
    """

    requests: tuple[int, ...]
    cs_rounds: int
    entry_rounds: dict[int, int]
    order: tuple[int, ...]

    @property
    def total_waiting(self) -> int:
        """Sum of entry rounds — total time spent waiting for the CS."""
        return sum(self.entry_rounds.values())

    def mutual_exclusion_holds(self) -> bool:
        """No two critical sections overlap (entries >= cs_rounds apart)."""
        entries = sorted(self.entry_rounds.values())
        return all(
            b - a >= self.cs_rounds for a, b in zip(entries, entries[1:])
        )


def run_token_mutex(
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    cs_rounds: int = 1,
    tail: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> MutexOutcome:
    """Run one-shot token-based mutual exclusion over the arrow queue.

    Args:
        spanning: spanning tree carrying both the arrow queue and the
            token's travels.
        requests: vertices that want the critical section (all request at
            round 0).
        cs_rounds: how long each critical section lasts.
        tail: initial token holder (default: tree root).
        capacity: per-round message budget (default: tree max degree).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.  Pair ``monitors=`` with
            :class:`repro.resilience.TokenInvariant` to assert token
            uniqueness at the end of every round.

    Raises:
        AssertionError: if the mutual-exclusion property is violated
            (would indicate a protocol bug).
    """
    tree = spanning.tree
    if tail is None:
        tail = tree.root
    if capacity is None:
        capacity = max(1, spanning.max_degree())
    if cs_rounds < 0:
        raise ValueError(f"cs_rounds must be >= 0, got {cs_rounds}")

    if tail == tree.root:
        routing_tree = tree
        parent_toward_tail = tree.parent
    else:
        routing_tree = RootedTree.from_edges(tree.n, tree.edges(), root=tail)
        parent_toward_tail = routing_tree.parent

    req = tuple(sorted(set(requests)))
    req_set = set(req)
    nodes = {
        v: _MutexNode(
            v,
            link=parent_toward_tail[v],
            requesting=(v in req_set),
            tree=routing_tree,
            cs_rounds=cs_rounds,
            is_tail=(v == tail),
        )
        for v in range(tree.n)
    }
    net = run_protocol(
        spanning.as_graph(), nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )

    entry = {op[1]: r for op, r in net.delays.delay_by_op().items()}
    if set(entry) != req_set:
        raise AssertionError(
            f"{len(entry)} of {len(req)} requesters entered the CS"
        )
    order = tuple(sorted(entry, key=lambda v: entry[v]))
    outcome = MutexOutcome(
        requests=req, cs_rounds=cs_rounds, entry_rounds=entry, order=order
    )
    if not outcome.mutual_exclusion_holds():
        raise AssertionError("mutual exclusion violated")
    return outcome
