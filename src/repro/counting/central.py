"""Central-counter counting (and queuing) with shortest-path routing.

Every requester routes an increment request hop-by-hop toward a
designated root; the root assigns ranks in arrival order and routes a
reply back.  Under the model's one-message-per-round restriction the root
serialises: on the star this is exactly the ``Theta(n^2)`` behaviour the
paper's conclusion discusses, and on the list it realises Theorem 3.6's
``Omega(n^2)``.

Routing tables (next hop toward the root, and the explicit return path in
each request) are precomputed — initialization is free per Section 2.2.
The same machinery with the root answering "who came before you" instead
of a rank gives the central *queuing* baseline used in the star-graph
experiment.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from repro.core.problem import CountingResult, QueuingResult
from repro.core.verify import verify_counting, verify_queuing
from repro.sim import Message, Node, NodeContext, SynchronousNetwork, run_protocol
from repro.topology.base import Graph
from repro.topology.properties import next_hops_toward


class _CentralNode(Node):
    """A node of the central-counter protocol.

    Messages:
        ``req``: payload = origin vertex; forwarded along ``next_hop``
            toward the root.
        ``reply``: payload = (origin, remaining_path, value); source-routed
            back to the origin.
    """

    __slots__ = (
        "next_hop",
        "requesting",
        "is_root",
        "counter",
        "last_op",
        "mode",
        "_down_paths",
    )

    def __init__(
        self, node_id: int, next_hop: int, requesting: bool, is_root: bool, mode: str
    ) -> None:
        super().__init__(node_id)
        self.next_hop = next_hop
        self.requesting = requesting
        self.is_root = is_root
        self.counter = 0
        self.last_op: Hashable = ("init", node_id)
        self.mode = mode
        #: root only: origin -> path root->...->origin (excluding the root).
        self._down_paths: dict[int, list[int]] = {}

    def _serve(self, origin: int, path: list[int], ctx: NodeContext) -> None:
        """Root-side: assign the next value and send (or record) the reply."""
        self.counter += 1
        if self.mode == "count":
            value: Hashable = self.counter
        else:
            value = self.last_op
            self.last_op = ("op", origin)
        if origin == self.node_id:
            ctx.complete(origin, result=value)
        else:
            ctx.send(path[0], "reply", payload=(origin, path[1:], value))

    def on_start(self, ctx: NodeContext) -> None:
        if not self.requesting:
            return
        if self.is_root:
            self._serve(self.node_id, [], ctx)
        else:
            ctx.send(self.next_hop, "req", payload=self.node_id)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "req":
            origin = msg.payload
            if self.is_root:
                # Return path: reverse of the request's route.  The route
                # is recoverable because requests follow next_hop pointers;
                # the engine-level trick of carrying the path would also
                # work, but the reverse route is simply the BFS-tree path
                # from the root to the origin, precomputed below.
                self._serve(origin, self._down_path(origin), ctx)
            else:
                ctx.send(self.next_hop, "req", payload=origin)
        elif msg.kind == "reply":
            origin, path, value = msg.payload
            if origin == self.node_id:
                ctx.complete(origin, result=value)
            else:
                ctx.send(path[0], "reply", payload=(origin, path[1:], value))
        else:  # pragma: no cover - defensive
            raise ValueError(f"unexpected message kind {msg.kind!r}")

    def _down_path(self, origin: int) -> list[int]:
        return self._down_paths[origin]


def _routing(graph: Graph, root: int) -> tuple[list[int], dict[int, list[int]]]:
    """Next hops toward ``root`` and full root->origin paths, via BFS."""
    next_hop = next_hops_toward(graph, root)
    if any(h == v != root for v, h in enumerate(next_hop)):
        raise ValueError("graph is disconnected")
    down_paths: dict[int, list[int]] = {}
    for v in graph.vertices():
        path = []
        x = v
        while x != root:
            path.append(x)
            x = next_hop[x]
        down_paths[v] = path[::-1]
    return next_hop, down_paths


def _run_central(
    graph: Graph, requests: Iterable[int], root: int, mode: str, options: dict
) -> SynchronousNetwork:
    req = sorted(set(requests))
    next_hop, down_paths = _routing(graph, root)
    req_set = set(req)
    nodes = {
        v: _CentralNode(
            v,
            next_hop=next_hop[v],
            requesting=(v in req_set),
            is_root=(v == root),
            mode=mode,
        )
        for v in graph.vertices()
    }
    nodes[root]._down_paths = down_paths
    return run_protocol(
        graph, nodes, send_capacity=1, recv_capacity=1, **options
    )


def run_central_counting(
    graph: Graph,
    requests: Iterable[int],
    *,
    root: int = 0,
    **options: Any,
) -> CountingResult:
    """Run central-counter counting; output verified before returning.

    Args:
        graph: communication graph.
        requests: requesting vertices.
        root: the vertex holding the counter.
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    req = tuple(sorted(set(requests)))
    net = _run_central(graph, req, root, "count", options)
    counts = {v: int(c) for v, c in net.delays.result_by_op().items()}
    verify_counting(req, counts)
    return CountingResult(
        algorithm=f"central(root={root})",
        requests=req,
        counts=counts,
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )


def run_central_queuing(
    graph: Graph,
    requests: Iterable[int],
    *,
    root: int = 0,
    **options: Any,
) -> QueuingResult:
    """Run central-server queuing (root returns each request's predecessor).

    Identical message pattern to :func:`run_central_counting` — the pair
    demonstrates the star-graph conclusion that with a serialising hub,
    counting and queuing cost the same.  ``options`` as for
    :func:`run_central_counting`.
    """
    req = tuple(sorted(set(requests)))
    net = _run_central(graph, req, root, "queue", options)
    predecessors = {("op", v): pred for v, pred in net.delays.result_by_op().items()}
    # Delays keyed by op id to match QueuingResult's convention.
    delays = {("op", v): d for v, d in net.delays.delay_by_op().items()}
    # The initial dummy op lives at the root for the central server.
    verify_queuing(req, predecessors, tail=root)
    return QueuingResult(
        algorithm=f"central(root={root})",
        requests=req,
        predecessors=predecessors,
        delays=delays,
        tail=root,
        stats=net.stats,
    )
