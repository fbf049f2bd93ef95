"""Executions of the arrow protocol: one-shot and long-lived.

The one-shot run of the paper issues every operation in round 0; the
long-lived run (:mod:`repro.arrow.longlived`) issues each at its own
round.  Both return a :class:`~repro.core.problem.QueuingResult` whose
delays are counted from each operation's issue round, so the one-shot
run is the long-lived run with every issue round 0.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping

from repro.arrow.protocol import ArrowNode
from repro.core.problem import QueuingResult
from repro.sim import SynchronousNetwork, run_protocol
from repro.topology.base import Graph
from repro.topology.spanning import SpanningTree
from repro.tree import RootedTree


def run_arrow(
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    tail: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> QueuingResult:
    """Run the one-shot concurrent arrow protocol; output verified.

    Args:
        spanning: the spanning tree the protocol runs on; messages travel
            only along tree edges.
        requests: the vertices issuing queuing operations at time 0.
        tail: initial queue-tail node (default: the tree root).  The
            arrows are initialised to point toward it along the tree —
            this is the free initialization step of Section 2.2.
        capacity: per-round send/receive message budget per node; defaults
            to the tree's maximum degree, the paper's expanded-time-step
            convention (Section 4).  Pass 1 for the strict model.
        **options: run options (``max_rounds``, ``trace``, ``faults``,
            ``reliable``, ...), forwarded to :func:`repro.sim.run_protocol`.

    Returns:
        A :class:`~repro.core.problem.QueuingResult` (``algorithm="arrow"``)
        with per-operation delays and the induced total order.

    Raises:
        ValueError: if a request vertex or ``tail`` is not a tree vertex.
        VerificationError: if the predecessor links do not form one chain
            over a non-empty request set (a protocol bug).  An empty
            request set runs no operation and returns an empty result.
    """
    return run_arrow_longlived(
        spanning, dict.fromkeys(sorted(requests), 0),
        tail=tail, capacity=capacity, **options,
    )


def run_arrow_longlived(
    spanning: SpanningTree,
    issue_times: Mapping[int, int],
    *,
    tail: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> QueuingResult:
    """Run arrow with per-vertex issue rounds; output verified.

    Args:
        spanning: the spanning tree to run on.
        issue_times: mapping vertex -> issue round (>= 0); vertices absent
            from the mapping issue nothing.
        tail: initial tail node (default: tree root).
        capacity: per-round message budget (default: tree max degree).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.

    Returns:
        A :class:`~repro.core.problem.QueuingResult`
        (``algorithm="arrow"``) whose ``delays`` are response times: the
        round each op's ``queue()`` message terminated minus its issue
        round.

    Raises:
        ValueError: if a vertex or ``tail`` is not a tree vertex, or an
            issue time is negative.
        VerificationError: as for :func:`run_arrow`.
    """
    net, predecessors, tail = _run_arrow_nodes(
        spanning, issue_times, tail, capacity, options
    )
    return QueuingResult(
        algorithm="arrow",
        requests=tuple(sorted(issue_times)),
        predecessors=predecessors,
        delays={
            op: r - issue_times[op[1]] for op, r in net.delays.delay_by_op().items()
        },
        tail=tail,
        stats=net.stats,
    )


def _run_arrow_nodes(
    spanning: SpanningTree,
    issue_times: Mapping[int, int],
    tail: int | None,
    capacity: int | None,
    options: dict[str, Any],
    make_node: Callable[[int, int, int | None], ArrowNode] = ArrowNode,
    graph: Graph | None = None,
) -> tuple[SynchronousNetwork, dict[Hashable, Hashable], int]:
    """The set-up every arrow-family runner shares, and the run itself.

    ``tail`` defaults to the tree root; it and every vertex of
    ``issue_times`` (vertex -> issue round) must be tree vertices.  Each
    arrow starts at the vertex's parent on the tree rooted at the tail.
    ``capacity`` defaults to the tree's maximum degree.  ``make_node(v,
    link, issue_at)`` builds the node of ``v`` (default
    :class:`ArrowNode`), and the run goes on ``graph`` (default: the tree
    itself) with the run ``options``.

    Returns:
        ``(network, predecessors, tail)``: the finished network, every
        op -> predecessor link the nodes found, and the tail used.

    Raises:
        ValueError: naming the first vertex that is out of range, or a
            negative issue round.
    """
    tree = spanning.tree
    n = tree.n
    if tail is None:
        tail = tree.root
    elif not 0 <= tail < n:
        raise ValueError(f"queue tail {tail} out of range for the {n}-node tree")
    for v, t in issue_times.items():
        if not 0 <= v < n:
            raise ValueError(f"request vertex {v} out of range for the {n}-node tree")
        if t < 0:
            raise ValueError(f"issue time for {v} must be >= 0, got {t}")
    if capacity is None:
        capacity = max(1, spanning.max_degree())
    # Arrows point toward the tail: each node's parent on the tree
    # re-rooted at the tail.
    if tail == tree.root:
        toward_tail = tree.parent
    else:
        toward_tail = RootedTree.from_edges(n, tree.edges(), root=tail).parent
    nodes = {v: make_node(v, toward_tail[v], issue_times.get(v)) for v in range(n)}
    net = run_protocol(
        spanning.as_graph() if graph is None else graph, nodes,
        send_capacity=capacity, recv_capacity=capacity, **options,
    )
    predecessors: dict[Hashable, Hashable] = {}
    for node in nodes.values():
        if node.pred_found:
            predecessors.update(node.pred_found)
    return net, predecessors, tail

