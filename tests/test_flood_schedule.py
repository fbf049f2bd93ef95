"""Flood's O(1) gossip step reproduces the neighbour scan it replaced.

``ScanFloodNode`` below is the earlier scan-based flood node, kept here as
the reference: each gossip step scans the neighbours cyclically from the
round-robin cursor for the first one whose last update predates the
current knowledge.  The protocol's node instead relies on the cyclic-run
invariant (see ``repro.counting.flood``) and reads the target off the
cursor.  Both must produce the same execution, event for event.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting.flood import _FloodNode
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.reliable import ReliableNode, ReliableRun
from repro.sim import EventTrace, Message, Node, NodeContext, SynchronousNetwork
from repro.topology import complete_graph, star_graph
from repro.topology.base import Graph


class ScanFloodNode(Node):
    """Reference flood node: one cyclic neighbour scan per gossip step."""

    def __init__(self, node_id: int, requesting: bool) -> None:
        super().__init__(node_id)
        self.requesting = requesting
        self.bits: dict[int, bool] = {node_id: requesting}
        self.order: list[tuple[int, bool]] = [(node_id, requesting)]
        self.sent_size: dict[int, int] = {}
        self.rr = 0
        self.wake_pending = False
        self.done = False
        self.nbrs: tuple[int, ...] = ()
        self.below_known = 0

    def _maybe_complete(self, ctx: NodeContext) -> None:
        if self.done or not self.requesting:
            return
        if self.below_known == self.node_id:
            rank = 1 + sum(1 for u in range(self.node_id) if self.bits[u])
            self.done = True
            ctx.complete(self.node_id, result=rank)

    def _gossip_step(self, ctx: NodeContext) -> None:
        nbrs = self.nbrs
        k = len(nbrs)
        size = len(self.order)
        sent = self.sent_size
        rr = self.rr
        target = None
        more = False
        for off in range(k):
            u = nbrs[(rr + off) % k]
            if sent.get(u, 0) < size:
                if target is not None:
                    more = True
                    break
                target = u
                self.rr = (rr + off + 1) % k
        if target is not None:
            start = sent.get(target, 0)
            sent[target] = size
            ctx.send(target, "gossip", payload=self.order[start:])
        if more and not self.wake_pending:
            self.wake_pending = True
            ctx.schedule_wakeup(ctx.now + 1)

    def _needy_neighbor_exists(self) -> bool:
        size = len(self.bits)
        return any(self.sent_size.get(u, 0) < size for u in self.nbrs)

    def on_start(self, ctx: NodeContext) -> None:
        self.nbrs = ctx.neighbors
        self._maybe_complete(ctx)
        self._gossip_step(ctx)

    def on_wake(self, ctx: NodeContext) -> None:
        self.wake_pending = False
        self._gossip_step(ctx)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        bits = self.bits
        before = len(bits)
        for pair in msg.payload:
            u = pair[0]
            if u not in bits:
                bits[u] = pair[1]
                self.order.append(pair)
                if u < self.node_id:
                    self.below_known += 1
        if len(bits) > before:
            self._maybe_complete(ctx)
            if not self.wake_pending and self._needy_neighbor_exists():
                self.wake_pending = True
                ctx.schedule_wakeup(ctx.now + 1)


@st.composite
def graphs(draw) -> Graph:
    """Random connected graphs: a random spanning tree plus extra edges,
    or a star or a complete graph."""
    shape = draw(st.sampled_from(["random", "random", "star", "complete"]))
    n = draw(st.integers(min_value=1 if shape == "random" else 2, max_value=14))
    if shape == "star":
        return star_graph(n)
    if shape == "complete":
        return complete_graph(n)
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    for u, v in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
    ):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges), name="random")


def _run(graph: Graph, requests: frozenset[int], node_type, plan=None):
    """One run on the engine directly: trace JSON, stats, completions and
    the rounds the loop executed (a spurious wakeup shows in the last)."""
    nodes: dict[int, Node] = {
        v: node_type(v, v in requests) for v in graph.vertices()
    }
    if plan is not None:
        shared = ReliableRun(RetryPolicy(), plan=plan)
        nodes = {v: ReliableNode(node, shared) for v, node in nodes.items()}
    trace = EventTrace()
    net = SynchronousNetwork(
        graph, nodes, send_capacity=1, recv_capacity=1, trace=trace, faults=plan
    )
    stats = net.run(max_rounds=100_000)
    return (
        trace.to_json(), stats, net.delays.result_by_op(), net.delays.delay_by_op(),
        net.rounds_executed,
    )


@st.composite
def instances(draw):
    graph = draw(graphs())
    requests = draw(st.frozensets(st.integers(0, graph.n - 1)))
    return graph, requests


@given(instance=instances())
@settings(max_examples=80, deadline=None)
def test_schedule_equals_scan_reference(instance):
    graph, requests = instance
    assert _run(graph, requests, _FloodNode) == _run(graph, requests, ScanFloodNode)


@given(instance=instances(), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_schedule_equals_scan_reference_under_reliable_faults(instance, seed):
    graph, requests = instance
    plan = FaultPlan(seed=seed, drop_rate=0.2, duplicate_rate=0.2)
    new = _run(graph, requests, _FloodNode, plan)
    ref = _run(graph, requests, ScanFloodNode, plan)
    assert new == ref

