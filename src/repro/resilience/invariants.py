"""Round-granular safety invariant monitors.

Each monitor watches one of the paper's exact safety properties *while
the run executes* and raises a structured
:class:`~repro.sim.errors.InvariantViolation` at the end of the first
round in which the property is observably broken — with the round, the
offending nodes, and (when the run is traced) a replayable trace window
attached.

Monitors attach through the engine's ``monitors=`` hook, composed by a
:class:`MonitorSet`; like the :mod:`repro.obs` hooks they are duck-typed
and cost exactly one ``is not None`` check per call site when disabled.
On healthy protocols an enabled monitor changes nothing observable:
traces, stats, and outputs stay byte-identical.

Node-state monitors (:class:`ArrowInvariant`, :class:`TokenInvariant`)
transparently look through adapter nodes (anything exposing ``inner``,
e.g. the reliable-delivery wrapper) to the protocol state underneath.
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import Any, Hashable, Iterable

from repro.sim.errors import InvariantViolation, StallDetected

#: Rounds of trace context attached before the violation round.
TRACE_CONTEXT_ROUNDS = 10


def _protocol_node(node: Any) -> Any:
    """The protocol node behind ``node``, unwrapping adapter layers."""
    seen = 0
    while hasattr(node, "inner") and seen < 8:
        node = node.inner
        seen += 1
    return node


class InvariantMonitor:
    """Base class: one named invariant checked against the live network.

    Subclasses override any subset of the three hooks.  ``on_round`` runs
    at the end of every executed round (round 0 included), ``on_complete``
    on every operation completion, ``on_finish`` once at quiescence.
    """

    #: Dotted invariant name carried by raised violations.
    name = "invariant"

    def on_round(self, net: Any) -> None:
        """End-of-round check against the live engine state."""

    def on_complete(self, net: Any, op_id: Hashable, result: Any, node_id: int) -> None:
        """Check one operation completion as it is recorded."""

    def on_finish(self, net: Any) -> None:
        """Whole-run check at quiescence."""

    def _violate(
        self, net: Any, detail: str, nodes: Iterable[int] = ()
    ) -> None:
        raise InvariantViolation(self.name, net.now, tuple(nodes), detail)


class CountingInvariant(InvariantMonitor):
    """Rank uniqueness and density for counting protocols.

    Safety (Theorem 3.5 setting): the ranks handed out must be exactly
    ``{1..|R|}``, each to one requester.  Checked incrementally:

    * **uniqueness** — at the completion that hands out a rank already
      issued (or a rank outside ``[1, expected]``), not post-hoc;
    * **density** — at quiescence the issued ranks must be the contiguous
      range ``{1..k}`` with no gaps.

    Works through any node wrapper because it only watches completion
    results, so it monitors fault-tolerant runs too.

    Args:
        expected: the number of requesters ``|R|``, bounding legal ranks;
            ``None`` skips the upper-bound and exact-density checks.
    """

    name = "counting.rank-uniqueness"

    def __init__(self, expected: int | None = None) -> None:
        self.expected = expected
        #: rank -> node that completed with it.
        self.issued: dict[int, int] = {}

    def on_complete(self, net: Any, op_id: Hashable, result: Any, node_id: int) -> None:
        if not isinstance(result, int):
            return  # queuing-style result: not a rank
        holder = self.issued.get(result)
        if holder is not None:
            self._violate(
                net,
                f"rank {result} issued twice (first to node {holder}, "
                f"again to node {node_id})",
                (holder, node_id),
            )
        if result < 1 or (self.expected is not None and result > self.expected):
            upper = "" if self.expected is None else f"..{self.expected}"
            self._violate(
                net, f"rank {result} outside the legal range 1{upper}", (node_id,)
            )
        self.issued[result] = node_id

    def on_finish(self, net: Any) -> None:
        if not self.issued:
            return
        want = self.expected if self.expected is not None else len(self.issued)
        missing = sorted(set(range(1, want + 1)) - set(self.issued))
        if missing:
            shown = ", ".join(map(str, missing[:8]))
            more = "..." if len(missing) > 8 else ""
            self._violate(
                net,
                f"issued ranks are not dense: missing [{shown}{more}] "
                f"out of 1..{want}",
                self.issued.values(),
            )


class QueuingInvariant(InvariantMonitor):
    """One predecessor per operation, for any queuing protocol.

    Safety (Section 2.2): the predecessor links form one chain over the
    requests.  Checked from completions alone, keyed only by the op id
    and its result (the predecessor), so it holds for any op-id scheme
    and through any node wrapper:

    * each op completes once;
    * no predecessor is claimed by two ops (the order would fork);
    * at quiescence, exactly ``expected`` ops have completed.

    Args:
        expected: the number of requesters ``|R|``.
    """

    name = "queuing.single-predecessor"

    def __init__(self, expected: int) -> None:
        self.expected = expected
        #: predecessor -> (op that claimed it, node it completed at).
        self.claimed: dict[Hashable, tuple[Hashable, int]] = {}
        self.completed: set[Hashable] = set()

    def on_complete(self, net: Any, op_id: Hashable, result: Any, node_id: int) -> None:
        if op_id in self.completed:
            self._violate(net, f"operation {op_id!r} completed twice", (node_id,))
        first = self.claimed.get(result)
        if first is not None:
            self._violate(
                net,
                f"operations {first[0]!r} (node {first[1]}) and {op_id!r} "
                f"(node {node_id}) both claim predecessor {result!r}",
                (first[1], node_id),
            )
        self.completed.add(op_id)
        self.claimed[result] = (op_id, node_id)

    def on_finish(self, net: Any) -> None:
        if len(self.completed) != self.expected:
            self._violate(
                net, f"{len(self.completed)} of {self.expected} operations completed"
            )


#: Nodes per block of :class:`ArrowInvariant`'s link column.
_BLOCK = 64


class _ArrowRows:
    """:class:`ArrowInvariant`'s columns over one network's arrow vertices.

    Attributes:
        vs, nodes, nbrs: the vertices, their protocol nodes and their
            neighbor sets.
        passed: per block of :data:`_BLOCK` vertices, the links it last
            passed the pointer test with (``None`` before its first).
        sinks: per block, its number of self-pointing vertices at that
            test.
    """

    __slots__ = ("vs", "nodes", "nbrs", "passed", "sinks")

    def __init__(self, vs: list[int], nodes: list[Any], nbrs: list[frozenset[int]]) -> None:
        self.vs, self.nodes, self.nbrs = vs, nodes, nbrs
        blocks = -(-len(vs) // _BLOCK)
        self.passed: list[list[Any] | None] = [None] * blocks
        self.sinks = [0] * blocks


class ArrowInvariant(InvariantMonitor):
    """Arrow-pointer well-formedness and queue-order consistency.

    For the arrow/directory family (path reversal over a tree — Section 4
    / Demmer & Herlihy), two properties hold at the end of every round:

    * **pointer well-formedness** — every node's arrow points at itself
      or a graph neighbor, and the number of self-pointing nodes (local
      queue tails) is exactly ``1 + q`` where ``q`` is the number of
      in-flight ``queue`` messages: every find-predecessor message in
      transit accounts for exactly one extra parked tail;
    * **queue-order consistency** — merging every node's discovered
      predecessor links never makes two operations claim the same
      predecessor (that would fork the total order).

    The message-count identity is only sound when messages are exactly
    the protocol's (no retransmitted or enveloped copies), so under
    adapter-wrapped nodes the monitor checks the wrapper-independent
    parts: pointer targets, at least one sink, and predecessor-link
    consistency.
    """

    name = "arrow.single-sink"

    def __init__(self) -> None:
        #: Weak reference to the network :attr:`_rows` were resolved for
        #: (compared by identity, so a restored checkpoint's copy
        #: re-resolves).  Weak, because the network holds this monitor:
        #: a strong reference would keep every finished network alive
        #: until a cyclic-GC pass.
        self._rows_net: weakref.ref | None = None
        self._rows: _ArrowRows | None = None
        self._wrapped = False

    def _resolve_rows(self, net: Any) -> _ArrowRows:
        """The arrow vertices' columns, resolved once per network.

        Nodes without a ``link`` attribute (mixed networks) get no row;
        every arrow node also has ``pred_found`` (``None`` until its first
        find), so the per-round scan reads both attributes without
        ``getattr`` defaults.
        """
        if self._rows_net is None or self._rows_net() is not net:
            vs, nodes, nbrs = [], [], []
            wrapped = False
            for v in net.node_ids:
                raw = net.node(v)
                node = _protocol_node(raw)
                wrapped = wrapped or node is not raw
                if hasattr(node, "link"):
                    vs.append(v)
                    nodes.append(node)
                    nbrs.append(net.neighbor_set(v))
            self._rows_net, self._wrapped = weakref.ref(net), wrapped
            self._rows = _ArrowRows(vs, nodes, nbrs)
        return self._rows

    def __getstate__(self) -> dict[str, Any]:
        # Copies and pickles leave the row cache out (a weak reference
        # cannot be pickled); it is re-resolved on the next round.
        state = dict(self.__dict__)
        state.update(_rows_net=None, _rows=None, _wrapped=False)
        return state

    def _in_flight_queue_msgs(self, net: Any) -> int:
        links, outboxes = net._queued_messages()
        count = 0
        for q in links:
            for m in q:
                if m.kind == "queue":
                    count += 1
        for box in outboxes:
            for m in box:
                if m.kind == "queue":
                    count += 1
        return count

    def on_round(self, net: Any) -> None:
        # Every node every round: the link and pred_found columns are read
        # whole, and every claimed predecessor is counted.  The pointer
        # test runs per block of the link column, and only on a block
        # whose links differ from the ones it last passed with (a block
        # compares in C); an unchanged block keeps its verdict and sink
        # count.  A round that fails a test pays the per-node scan, which
        # names the first offender in node order.
        rows = self._resolve_rows(net)
        vs, nbrs = rows.vs, rows.nbrs
        links = [node.link for node in rows.nodes]
        found = [f for node in rows.nodes if (f := node.pred_found)]
        claimed = list(chain.from_iterable(map(dict.values, found)))
        if len(set(claimed)) != len(claimed):
            self._scan(net, rows)
        passed, block_sinks = rows.passed, rows.sinks
        for i, lo in enumerate(range(0, len(links), _BLOCK)):
            hi = lo + _BLOCK
            block = links[lo:hi]
            if block == passed[i]:
                continue
            here = 0
            for v, link, ok in zip(vs[lo:hi], block, nbrs[lo:hi]):
                if link == v:
                    here += 1
                elif link not in ok and link is not None:
                    self._scan(net, rows)
            block_sinks[i] = here
            passed[i] = block
        sinks = sum(block_sinks)
        if not sinks:
            self._violate(net, "no node points at itself: the queue tail is lost")
        if not self._wrapped:
            q = self._in_flight_queue_msgs(net)
            if sinks != 1 + q:
                self._violate(
                    net,
                    f"{sinks} self-pointing nodes but {q} queue "
                    f"messages in flight (expected sinks = 1 + in-flight)",
                    [v for v, link in zip(vs, links) if link == v],
                )

    def _scan(self, net: Any, rows: _ArrowRows) -> None:
        """Raise for the first off-tree arrow or forked predecessor, in
        node order (a node whose link is ``None`` is skipped whole)."""
        preds: dict[Hashable, tuple[Hashable, int]] = {}
        for v, node, ok in zip(rows.vs, rows.nodes, rows.nbrs):
            link = node.link
            if link != v and link not in ok:
                if link is None:
                    continue  # no arrow this round
                self._violate(
                    net, f"node {v}'s arrow points at non-neighbor {link}", (v,)
                )
            found = node.pred_found
            if not found:
                continue
            for op, pred in found.items():
                other = preds.get(pred)
                if other is not None and other[0] != op:
                    other_op, other_v = other
                    self._violate(
                        net,
                        f"operations {op!r} (node {v}) and {other_op!r} "
                        f"(node {other_v}) both claim predecessor {pred!r} "
                        "— the total order forked",
                        (v, other_v),
                    )
                preds[pred] = (op, v)


class TokenInvariant(InvariantMonitor):
    """Token uniqueness for token-passing protocols (mutex, directory).

    At the end of every round, the number of nodes holding the token plus
    the number of token messages in flight must be exactly one — a token
    is never duplicated and never destroyed.

    Holders keep a truthy ``has_token`` and the token travels as
    ``token`` messages.  Like :class:`ArrowInvariant`, under
    adapter-wrapped nodes the monitor checks only the part that holds
    through the wrapper — at most one holder — since the token then
    travels inside envelopes that may be retransmitted or duplicated.

    Args:
        name: invariant name for raised violations.
    """

    def __init__(self, name: str = "mutex.token-uniqueness") -> None:
        self.name = name

    def on_round(self, net: Any) -> None:
        holders = []
        wrapped = False
        for v in net.node_ids:
            raw = net.node(v)
            node = _protocol_node(raw)
            wrapped = wrapped or node is not raw
            if getattr(node, "has_token", False):
                holders.append(v)
        if wrapped:
            if len(holders) > 1:
                self._violate(
                    net,
                    f"token duplicated: {len(holders)} holders (at most 1 "
                    "under wrapped delivery)",
                    holders,
                )
            return
        links, outboxes = net._queued_messages()
        in_flight = sum(
            1 for q in links for m in q if m.kind == "token"
        ) + sum(1 for box in outboxes for m in box if m.kind == "token")
        total = len(holders) + in_flight
        if total != 1:
            what = "duplicated" if total > 1 else "lost"
            self._violate(
                net,
                f"token {what}: {len(holders)} holders and {in_flight} "
                f"token messages in flight (must total 1)",
                holders,
            )


class MonitorSet:
    """Composes invariants, a watchdog, and a checkpointer for the engine.

    This is the object handed to ``SynchronousNetwork(monitors=...)``.
    Per round it runs, in order: the checkpointer (so the last checkpoint
    *before* a violation always exists), every invariant, then the
    watchdog.  When a check raises and the run is traced, the violation
    is stamped into the trace (``"violation"`` event) and a trace window
    ending at the violation round is attached to the exception.

    Args:
        invariants: :class:`InvariantMonitor` instances to run per round.
        watchdog: optional :class:`repro.resilience.Watchdog`.
        checkpointer: optional
            :class:`repro.resilience.PeriodicCheckpointer`.
        metrics: optional metrics registry; gains
            ``resilience.rounds_checked`` and ``resilience.violations``
            counters.
    """

    def __init__(
        self,
        invariants: Iterable[InvariantMonitor] = (),
        watchdog: Any | None = None,
        checkpointer: Any | None = None,
        metrics: Any | None = None,
    ) -> None:
        self.invariants = tuple(invariants)
        self.watchdog = watchdog
        self.checkpointer = checkpointer
        self.metrics = metrics
        #: ``resilience.rounds_checked``, bound on its first increment.
        self._rounds_checked: Any = None

    # ------------------------------------------------------- engine hooks

    def on_round(self, net: Any) -> None:
        # Counted before the checkpoint, so a copy resumed from it (which
        # never re-checks this round) ends with the uninterrupted count.
        if self.metrics is not None:
            c = self._rounds_checked
            if c is None:
                c = self._rounds_checked = self.metrics.counter(
                    "resilience.rounds_checked"
                )
            c.value += 1
        if self.checkpointer is not None:
            self.checkpointer.on_round(net)
        try:
            for inv in self.invariants:
                inv.on_round(net)
            if self.watchdog is not None:
                self.watchdog.on_round(net)
        except (InvariantViolation, StallDetected) as exc:
            self._stamp(net, exc)
            raise

    def on_complete(self, net: Any, op_id: Hashable, result: Any, node_id: int) -> None:
        try:
            for inv in self.invariants:
                inv.on_complete(net, op_id, result, node_id)
        except InvariantViolation as exc:
            self._stamp(net, exc)
            raise

    def on_finish(self, net: Any) -> None:
        try:
            for inv in self.invariants:
                inv.on_finish(net)
            if self.watchdog is not None:
                self.watchdog.on_finish(net)
        except (InvariantViolation, StallDetected) as exc:
            self._stamp(net, exc)
            raise

    # ---------------------------------------------------------- internals

    def _stamp(self, net: Any, exc: Exception) -> None:
        """Attach trace evidence to a violation and record it."""
        if self.metrics is not None:
            self.metrics.counter("resilience.violations").value += 1
        if net.trace is not None:
            net.trace.record(
                "violation",
                net.now,
                invariant=getattr(exc, "invariant", getattr(exc, "kind", "?")),
                detail=str(exc),
            )
            if getattr(exc, "trace_slice", None) is None and hasattr(
                exc, "trace_slice"
            ):
                exc.trace_slice = net.trace.slice(
                    max(0, net.now - TRACE_CONTEXT_ROUNDS), net.now
                )

    def last_checkpoint_before(self, round_: int):
        """The newest stored checkpoint strictly before ``round_``.

        The deterministic-replay entry point: after a violation at round
        ``r``, ``last_checkpoint_before(r)`` is the state to restore and
        resume to step through the failure again.
        """
        if self.checkpointer is None:
            return None
        return self.checkpointer.before(round_)


__all__ = [
    "ArrowInvariant",
    "CountingInvariant",
    "InvariantMonitor",
    "MonitorSet",
    "QueuingInvariant",
    "TokenInvariant",
    "TRACE_CONTEXT_ROUNDS",
]
