"""Mobile-object directory over the arrow queue.

The node logic is the mutual-exclusion loop of :mod:`repro.mutex` with
one twist that matters for delay accounting: the *object* is routed
along shortest paths of the communication graph ``G`` (the directory
only uses the spanning tree for find requests), so on low-diameter
graphs the handoff is much cheaper than a tree walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.arrow.protocol import init_op, op_of
from repro.sim import Message, Node, NodeContext, run_protocol
from repro.topology.base import Graph
from repro.topology.properties import next_hops_toward
from repro.topology.spanning import SpanningTree
from repro.tree import RootedTree


class _DirectoryNode(Node):
    """Arrow node + object holder state.

    Messages:
        ``queue``: arrow find request, travels on *tree* edges only.
        ``object``: the mobile object, payload = destination vertex,
            routed hop-by-hop along graph shortest paths.
    """

    __slots__ = (
        "link",
        "parked",
        "requesting",
        "tree_neighbors",
        "use_rounds",
        "has_object",
        "object_for",
        "succ_of",
        "use_completed",
        "graph",
    )

    def __init__(
        self,
        node_id: int,
        link: int,
        requesting: bool,
        tree_neighbors: frozenset[int],
        use_rounds: int,
        is_home: bool,
        graph: Graph,
    ) -> None:
        super().__init__(node_id)
        self.link = link
        self.parked: Hashable = init_op(node_id) if link == node_id else None
        self.requesting = requesting
        self.tree_neighbors = tree_neighbors
        self.use_rounds = use_rounds
        self.has_object = is_home
        self.object_for: Hashable = init_op(node_id) if is_home else None
        self.succ_of: dict[Hashable, int] = {}
        self.use_completed: set[Hashable] = {init_op(node_id)} if is_home else set()
        self.graph = graph

    # -- arrow on the tree ---------------------------------------------------

    def _terminate(self, a: Hashable, ctx: NodeContext) -> None:
        pred = self.parked
        self.parked = a
        self.succ_of[pred] = a[1]
        self._try_hand_off(ctx)

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
            if msg.src not in self.tree_neighbors:  # pragma: no cover
                raise ValueError("find message arrived off-tree")
            a = msg.payload
            w = self.link
            self.link = msg.src
            if w == self.node_id:
                self._terminate(a, ctx)
            else:
                ctx.send(w, "queue", payload=a)
        elif msg.kind == "object":
            dest = msg.payload
            if dest == self.node_id:
                self._acquire(ctx)
            else:
                self._send_object(dest, ctx)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")

    # -- object lifecycle ------------------------------------------------------

    def _acquire(self, ctx: NodeContext) -> None:
        if self.has_object:
            return  # spurious second delivery; acquiring is idempotent
        self.has_object = True
        self.object_for = op_of(self.node_id)
        ctx.complete(op_of(self.node_id), result=ctx.now)
        if self.use_rounds == 0:
            self._release(ctx)
        else:
            ctx.schedule_wakeup(ctx.now + self.use_rounds)

    def on_wake(self, ctx: NodeContext) -> None:
        self._release(ctx)

    def _release(self, ctx: NodeContext) -> None:
        self.use_completed.add(op_of(self.node_id))
        self._try_hand_off(ctx)

    def _try_hand_off(self, ctx: NodeContext) -> None:
        if not self.has_object:
            return
        op = self.object_for
        if op not in self.use_completed or op not in self.succ_of:
            return
        target = self.succ_of[op]
        self.has_object = False
        if target == self.node_id:
            self._acquire(ctx)
        else:
            self._send_object(target, ctx)

    def _send_object(self, dest: int, ctx: NodeContext) -> None:
        ctx.send(next_hops_toward(self.graph, dest)[self.node_id], "object", payload=dest)


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
        AssertionError: if some requester never obtained the object or
            exclusivity is violated.
    """
    tree = spanning.tree
    if home is None:
        home = tree.root
    if capacity is None:
        capacity = max(1, spanning.max_degree())
    if use_rounds < 0:
        raise ValueError(f"use_rounds must be >= 0, got {use_rounds}")

    if home == tree.root:
        parent_toward_home = tree.parent
    else:
        parent_toward_home = RootedTree.from_edges(
            tree.n, tree.edges(), root=home
        ).parent

    tree_adj: dict[int, set[int]] = {v: set() for v in range(tree.n)}
    for p, c in tree.edges():
        tree_adj[p].add(c)
        tree_adj[c].add(p)

    req = tuple(sorted(set(requests)))
    req_set = set(req)
    nodes = {
        v: _DirectoryNode(
            v,
            link=parent_toward_home[v],
            requesting=(v in req_set),
            tree_neighbors=frozenset(tree_adj[v]),
            use_rounds=use_rounds,
            is_home=(v == home),
            graph=graph,
        )
        for v in range(tree.n)
    }
    net = run_protocol(
        graph, nodes, send_capacity=capacity, recv_capacity=capacity, **options
    )

    acquire = {op[1]: r for op, r in net.delays.delay_by_op().items()}
    if set(acquire) != req_set:
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
