"""The synchronous round-based execution engine.

The engine implements the model of Section 2.1 of the paper exactly
(``docs/MODEL.md`` states it rule by rule):

* unit link delay: a message sent in round ``t`` is receivable from round
  ``t + 1`` on;
* per-round send capacity: each node moves at most ``send_capacity``
  messages from its outbox onto links per round (excess messages wait in
  FIFO order — *send contention*);
* per-round receive capacity: each node processes at most
  ``recv_capacity`` messages per round, each link at most one.  A link's
  head is eligible from ``max(ready_at, round after the link's previous
  delivery)``, and eligible heads are served by ``(eligible round,
  creation seq)``; excess messages wait on their link in FIFO order
  (*receive contention*);
* all remaining computation is local and free.

The engine is event-driven within the round structure: per round it only
touches nodes that have something to receive or send, so the total work is
proportional to the total number of message-rounds, not ``rounds x n``.
This matters because the paper's contention bounds make some protocols run
for Theta(n^2) rounds.

Vertex ids must be the contiguous range ``0..n-1`` (true for every
``repro.topology`` generator), so link queues, outboxes and ready heaps
live in flat list-indexed arrays, the per-round "who is active" lists are
maintained incrementally, and idle stretches are skipped with a
next-event heap (see ``docs/PERFORMANCE.md``).  ``tests/oracle.py``
restates the model as a naive loop over every node and link in every
round; ``tests/test_oracle.py`` diffs this engine's traces, stats and
completions against it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.errors import (
    CapacityError,
    ProtocolViolation,
    RoundLimitExceeded,
    StrictModeViolation,
)
from repro.sim.message import Message
from repro.sim.metrics import DelayRecorder
from repro.sim.node import Node, NodeContext
from repro.sim.trace import EventTrace
from repro.topology.base import Graph

#: Builds a bare ``Message`` for the enqueue (see there).
_new_message = object.__new__


@dataclass(slots=True)
class RunStats:
    """Aggregate accounting for one simulation run.

    Attributes:
        rounds: number of rounds executed until quiescence (the round in
            which the last message was delivered).
        messages_sent: messages that entered a link.
        messages_delivered: messages processed by a receiver.
        max_send_backlog: largest outbox length observed.
        max_recv_backlog: largest single-link queue length observed.
        total_link_wait: sum over delivered messages of the rounds they
            waited at the receiver beyond the unit link delay — the total
            receive contention in the run.
        messages_dropped: messages lost at link entry by an injected
            fault (random loss or link outage); zero without a fault plan.
        messages_duplicated: extra copies injected onto links by a fault
            plan; each copy also counts in ``messages_sent`` once it is
            on the link.
        node_crashes: crash windows entered during the run.
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    max_send_backlog: int = 0
    max_recv_backlog: int = 0
    total_link_wait: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    node_crashes: int = 0


class _EngineMetrics:
    """The engine's instruments in an attached metrics registry.

    Each counter, gauge, histogram and series is looked up in the
    registry on its first publish and updated directly afterwards, as
    :class:`repro.faults.ReliableNode` does for ``reliable.*``: a metric
    never exists before it has a value, and a phase publishes with one
    call here instead of one registry call per metric.  Holding registry
    objects (not bound methods) keeps a checkpoint's deep copy publishing
    into the copied registry.
    """

    __slots__ = (
        "registry", "sent", "delivered", "link_wait_total", "dropped",
        "duplicated", "completions", "send_backlog", "recv_backlog",
        "in_flight", "in_flight_series", "rounds", "op_delay", "link_wait",
    )

    def __init__(self, registry: Any) -> None:
        self.registry = registry
        self.sent = self.delivered = self.link_wait_total = None
        self.dropped = self.duplicated = self.completions = None
        self.send_backlog = self.recv_backlog = self.in_flight = None
        self.in_flight_series = self.rounds = None
        self.op_delay = self.link_wait = None

    def _bind(self, slot: str, kind: str, name: str) -> Any:
        """Look up ``name`` (made by ``registry.<kind>(name)``), bind it to ``slot``."""
        reg = self.registry
        obj = reg.series.setdefault(name, []) if kind == "series" else getattr(reg, kind)(name)
        setattr(self, slot, obj)
        return obj

    def receive_phase(self, delivered: int, wait_total: int, waits: dict[int, int]) -> None:
        """One receive phase's deliveries and their link waits."""
        c = self.delivered or self._bind("delivered", "counter", "engine.messages_delivered")
        c.value += delivered
        c = self.link_wait_total or self._bind(
            "link_wait_total", "counter", "engine.link_wait_total"
        )
        c.value += wait_total
        h = self.link_wait or self._bind("link_wait", "histogram", "msg.link_wait")
        for wait, n in waits.items():
            h.observe(wait, n)

    def send_phase(
        self, sent: int, peak: int, last: int, dropped: int, duplicated: int
    ) -> None:
        """One send phase's link entries, losses and duplicates.

        ``peak`` is the run's largest link queue so far and ``last`` the
        last link length: writing both leaves the gauge's high and value
        where one write per link entry would have.
        """
        if sent:
            c = self.sent or self._bind("sent", "counter", "engine.messages_sent")
            c.value += sent
            g = self.recv_backlog or self._bind("recv_backlog", "gauge", "engine.recv_backlog")
            g.set(peak)
            g.set(last)
        if dropped:
            c = self.dropped or self._bind("dropped", "counter", "engine.messages_dropped")
            c.value += dropped
        if duplicated:
            c = self.duplicated or self._bind(
                "duplicated", "counter", "engine.messages_duplicated"
            )
            c.value += duplicated

    def outboxes(self, peak: int, last: int) -> None:
        """The outbox lengths of the enqueues since the last publish (see
        :meth:`send_phase` for the two writes)."""
        g = self.send_backlog or self._bind("send_backlog", "gauge", "engine.send_backlog")
        g.set(peak)
        g.set(last)

    def round_end(self, t: int, in_flight: int) -> None:
        """The messages in flight at the end of round ``t``."""
        g = self.in_flight or self._bind("in_flight", "gauge", "engine.in_flight")
        g.set(in_flight)
        s = self.in_flight_series
        if s is None:
            s = self._bind("in_flight_series", "series", "engine.in_flight")
        s.append((t, in_flight))

    def completed(self, t: int) -> None:
        """One operation completed in round ``t``."""
        c = self.completions or self._bind("completions", "counter", "engine.completions")
        c.value += 1
        h = self.op_delay or self._bind("op_delay", "histogram", "op.delay")
        h.observe(t)

    def finished(self, t: int) -> None:
        """The run quiesced at round ``t``."""
        g = self.rounds or self._bind("rounds", "gauge", "engine.rounds")
        g.set(t)


def _as_adjacency(graph: Any) -> Mapping[int, tuple[int, ...]]:
    """Normalize a graph-like input to a sorted adjacency mapping.

    Accepts a :class:`repro.topology.Graph`, anything else with an
    ``adj`` mapping, a plain mapping ``{node: neighbors}``, or an
    iterable of edges ``(u, v)``.  A ``Graph``'s ``adj`` already maps
    every vertex to a sorted tuple, so it is used as is, not re-sorted.
    """
    if isinstance(graph, Graph):
        return graph.adj
    if hasattr(graph, "adj"):
        raw: Mapping[int, Sequence[int]] = graph.adj
        return {v: tuple(sorted(raw[v])) for v in raw}
    if isinstance(graph, Mapping):
        return {v: tuple(sorted(graph[v])) for v in graph}
    adj: dict[int, set[int]] = {}
    for u, v in graph:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}


class SynchronousNetwork:
    """A synchronous message-passing network over a fixed graph.

    Args:
        graph: the communication graph (see :func:`_as_adjacency` for the
            accepted forms); its vertex ids must be ``0..n-1``.
        nodes: mapping from node id to the :class:`Node` protocol object
            for that id; must cover every vertex of the graph and contain
            no entries for vertices outside it.
        send_capacity: messages a node may send per round (paper: 1).
        recv_capacity: messages a node may receive per round (paper: 1;
            the arrow protocol uses the spanning-tree degree, the paper's
            "expanded time step" convention).
        delay_model: callable ``(msg) -> int`` giving each message's link
            delay; defaults to the paper's synchronous unit delay.  See
            :mod:`repro.sim.delays` for the asynchronous extensions.
        trace: optional :class:`EventTrace` to record engine events into.
            The engine appends its own records through the trace's
            producer entry point (``trace.log.extend``, bound once per
            phase), so an ``EventTrace`` subclass that overrides
            ``record`` does not see them.
        metrics: optional :class:`repro.obs.MetricsRegistry` (duck-typed:
            ``counter(name)``, ``gauge(name)`` and ``histogram(name)``
            return get-or-create objects with an integer ``value``, a
            ``set(value)`` and an ``observe(value, n)``, and ``series``
            maps a name to a list of ``(round, value)`` pairs).
            When attached, the engine publishes message counters, per-op
            completion-delay and link-wait histograms, and per-round
            in-flight/backlog gauges.  It looks each object up on its
            first publish and updates it directly afterwards, so a
            registry subclass that overrides ``inc``/``set_gauge``/
            ``observe``/``sample`` does not see the engine's updates.
            The engine publishes message
            counters (drops and duplicates included), link waits and
            backlogs from local tallies once per phase or round, even
            when a handler raises; completions and crash boundaries are
            published per event.  When ``None`` (the default)
            every instrumented call site reduces to one ``is not None`` check,
            so the run is unobserved at zero cost.  ``RunStats`` stays
            the always-on thin aggregate view; an attached registry
            reproduces it exactly (``metrics.run_stats_view()``).
        profiler: optional :class:`repro.obs.PhaseProfiler` (duck-typed:
            ``clock``/``add``/``tick_round``).  Times the engine phases
            (send drain, delivery, wakeups, fault ticks, and the nested
            protocol ``on_receive`` compute) per executed round.  Pure
            observation: a profiled run is event-for-event identical to
            an unprofiled one.
        strict: when true, exceeding a per-round send or receive budget
            raises :class:`StrictModeViolation` instead of queuing the
            excess.  Opt-in: contention-by-design protocols (the paper's
            main subject) must leave this off.
        faults: optional :class:`repro.faults.FaultPlan` describing
            message drops, duplications, link outages, and node crashes
            to inject (see :mod:`repro.faults`).  An empty plan (or
            ``None``) leaves every code path untouched, so the run is
            byte-for-byte identical to a fault-free one.
        monitors: optional :class:`repro.resilience.MonitorSet`
            (duck-typed: ``on_round``/``on_complete``/``on_finish``).
            Runs end-of-round invariant checks, watchdog progress
            tracking, and periodic checkpoints against the live network.
            Pure observation unless an invariant breaks (then a
            structured :class:`~repro.sim.errors.InvariantViolation` or
            :class:`~repro.sim.errors.StallDetected` is raised); when
            ``None`` (the default) each hook site is one ``is not None``
            check, and traces stay byte-identical.

    Typical use::

        net = SynchronousNetwork(graph, nodes)
        stats = net.run(max_rounds=10_000)
        delays = net.delays.delay_by_op()
    """

    def __init__(
        self,
        graph: Any,
        nodes: Mapping[int, Node],
        *,
        send_capacity: int = 1,
        recv_capacity: int = 1,
        delay_model: DelayModel | None = None,
        trace: EventTrace | None = None,
        metrics: Any | None = None,
        profiler: Any | None = None,
        strict: bool = False,
        faults: Any | None = None,
        monitors: Any | None = None,
    ) -> None:
        if send_capacity < 1:
            raise CapacityError(f"send_capacity must be >= 1, got {send_capacity}")
        if recv_capacity < 1:
            raise CapacityError(f"recv_capacity must be >= 1, got {recv_capacity}")
        self._adj = _as_adjacency(graph)
        n = len(self._adj)
        # Keys are unique, so min/max pin the range (the empty graph has none).
        if n and not (min(self._adj) == 0 and max(self._adj) == n - 1):
            first = next(v for v in range(n) if v not in self._adj)
            raise ProtocolViolation(
                f"vertex ids must be 0..{n - 1}; id {first} is missing"
            )
        missing = set(self._adj) - set(nodes)
        if missing:
            raise ProtocolViolation(f"no Node object for vertices {sorted(missing)[:5]}...")
        extra = set(nodes) - set(self._adj)
        if extra:
            raise ProtocolViolation(
                f"Node objects for vertices not in the graph: {sorted(extra)[:5]}"
            )
        self._nodes: list[Node] = [nodes[v] for v in range(n)]
        self._nbr_sets = {v: frozenset(nbrs) for v, nbrs in self._adj.items()}
        self.send_capacity = send_capacity
        self.recv_capacity = recv_capacity
        self.delay_model = delay_model if delay_model is not None else ConstantDelay(1)
        self.now = 0
        self.delays = DelayRecorder()
        self.stats = RunStats()
        self.trace = trace
        # Observability hooks (see repro.obs).  Both are duck-typed so the
        # engine never imports the obs package; None disables publishing.
        self.metrics = metrics
        self._pub = _EngineMetrics(metrics) if metrics is not None else None
        self.profiler = profiler
        # Resilience hook (see repro.resilience).  Duck-typed like the
        # obs hooks; None disables all end-of-round checking.
        self.monitors = monitors
        self.strict = strict
        # Runtime fault state, or None for fault-free runs.  Duck-typed
        # (see repro.faults.injector.FaultInjector) so the engine never
        # imports the faults package.
        self._injector = faults.injector() if faults is not None else None
        # ``inj.crashed`` bound once, and only when the plan schedules a
        # crash: a crash-free plan costs the phases no per-node call.
        self._crashed = (
            self._injector.crashed
            if self._injector is not None and self._injector.has_crashes()
            else None
        )
        #: Last outbox length since ``engine.send_backlog`` was published
        #: (0: nothing to publish).  With metrics attached the engine
        #: publishes the gauge once per round, not per enqueue.
        self._send_backlog_last = 0
        # Strict-mode send accounting: node -> (round, sends so far).
        self._send_budget: dict[int, tuple[int, int]] = {}

        self._unit_delay = (
            type(self.delay_model) is ConstantDelay and self.delay_model.delay == 1
        )
        self._outboxes: list[deque[Message]] = [deque() for _ in range(n)]
        #: per destination: incoming-link FIFO queues keyed by source.
        self._in_links: list[dict[int, deque[Message]]] = [{} for _ in range(n)]
        #: per node: heap of (eligible round, seq, src) over link heads.
        #: Only heads are in the heap, so arbitration is O(log deg) per
        #: delivery even on the star's hub.
        self._rheaps: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        # Maintained active sets: a node is listed exactly once while
        # its outbox / ready heap is non-empty (crashed nodes included),
        # so it is appended when that container turns non-empty.
        self._send_active: list[int] = []
        self._recv_active: list[int] = []
        self._ctx: list[NodeContext] = [NodeContext(self, v) for v in range(n)]
        self._msg_seq = 0
        self._started = False
        self._wakeups: dict[int, list[int]] = {}
        #: Shared next-event heap over wakeup rounds.  Contains every
        #: round that currently has (or once had) scheduled wakeups; rounds
        #: no longer in ``_wakeups`` are discarded lazily on peek.
        self._wake_heap: list[int] = []
        #: Rounds the run loop actually iterated (idle stretches that the
        #: clock jumped over are not counted).  ``stats.rounds`` stays the
        #: model-level clock; this is the engine-level work measure.
        self.rounds_executed = 0

    # ---------------------------------------------------------------- API

    @property
    def _in_flight(self) -> int:
        """Messages enqueued but neither delivered nor dropped yet.

        Every message, fault duplicates included, takes one ``_msg_seq``
        number and then sits in an outbox or on a link until it is
        delivered or dropped, so the count is derived, not maintained.
        """
        stats = self.stats
        return self._msg_seq - stats.messages_delivered - stats.messages_dropped

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Sorted neighbors of ``v``."""
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Neighbors of ``v`` as a frozenset (for membership tests)."""
        return self._nbr_sets[v]

    @property
    def node_ids(self) -> list[int]:
        """All vertex ids, sorted."""
        return list(range(len(self._nodes)))

    def node(self, v: int) -> Node:
        """The protocol object at vertex ``v``."""
        return self._nodes[v]

    def context(self, v: int) -> NodeContext:
        """The :class:`NodeContext` bound to vertex ``v``."""
        return self._ctx[v]

    def run(self, max_rounds: int = 1_000_000) -> RunStats:
        """Execute the protocol to quiescence and return run statistics.

        Round 0 calls every node's ``on_start`` (in node-id order) and
        flushes outboxes once; rounds 1, 2, ... alternate the receive and
        send phases until no message remains in any link or outbox.

        Raises:
            RoundLimitExceeded: if quiescence is not reached within
                ``max_rounds`` rounds.
            ProtocolViolation: if :meth:`run` is called twice.
        """
        if self._started:
            raise ProtocolViolation("a SynchronousNetwork can only be run once")
        self._started = True

        self.now = 0
        inj = self._injector
        pub = self._pub
        prof = self.profiler
        mon = self.monitors
        t_run = prof.clock() if prof is not None else 0.0
        try:
            if inj is not None:
                inj.tick(0, self.stats, self.trace, self.metrics)
            self._timed("node.on_start", self._start_nodes)
            self._timed("send", self._send_phase)
            if pub is not None:
                self._publish_send_backlog(pub)
            if mon is not None:
                self._timed("monitors", mon.on_round, self)

            return self._loop(max_rounds, t_run)
        finally:
            if pub is not None:
                # A handler raised mid-round: publish what it enqueued.
                self._publish_send_backlog(pub)

    def resume(self, max_rounds: int = 1_000_000) -> RunStats:
        """Continue a started network to quiescence.

        The checkpoint/restore workflow: a network deepcopied mid-run by
        :class:`repro.resilience.Checkpoint` re-enters the round loop
        here and finishes byte-identically to the original — same trace
        events, same stats, same completion order.  ``max_rounds`` is the
        same *absolute* round budget :meth:`run` takes.

        Raises:
            ProtocolViolation: if the network was never started (call
                :meth:`run` instead).
        """
        if not self._started:
            raise ProtocolViolation(
                "resume() on a network that was never run; call run() first"
            )
        prof = self.profiler
        t_run = prof.clock() if prof is not None else 0.0
        try:
            return self._loop(max_rounds, t_run)
        finally:
            if self._pub is not None:
                self._publish_send_backlog(self._pub)

    def _start_nodes(self) -> None:
        for node, ctx in zip(self._nodes, self._ctx):
            node.on_start(ctx)

    def _timed(self, phase: str, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)``, timed as ``phase`` when a profiler is attached.

        For the once-per-run and monitor sites; the per-round phases and
        the per-message ``on_receive`` keep their own inline split.
        """
        prof = self.profiler
        if prof is None:
            fn(*args)
            return
        t0 = prof.clock()
        fn(*args)
        prof.add(phase, prof.clock() - t0)

    def _loop(self, max_rounds: int, t_run: float = 0.0) -> RunStats:
        """The round loop: rounds ``now+1 ...`` until quiescence."""
        receive_phase = self._receive_phase
        send_phase = self._send_phase
        # Under the paper's unit delay every link head is receivable by
        # round now+1, so while messages are in flight the clock can never
        # jump: skip the scan entirely.
        maybe_jump = None if self._unit_delay else self._maybe_jump
        inj = self._injector
        met = self.metrics
        pub = self._pub
        prof = self.profiler
        mon = self.monitors

        executed = self.rounds_executed
        while self._in_flight > 0 or self._wakeups:
            self.now += 1
            executed += 1
            if self.now > max_rounds:
                self.rounds_executed = executed
                raise RoundLimitExceeded(
                    max_rounds,
                    self._in_flight,
                    pending_nodes=self._pending_nodes(),
                    oldest=self._oldest_undelivered(),
                )
            # Per round, so the unprofiled phases pay one branch, not four.
            if prof is None:
                if inj is not None:
                    inj.tick(self.now, self.stats, self.trace, met)
                self._wake_phase(max_rounds)
                receive_phase()
                send_phase()
            else:
                prof.tick_round()
                t0 = prof.clock()
                if inj is not None:
                    inj.tick(self.now, self.stats, self.trace, met)
                    t1 = prof.clock()
                    prof.add("faults.tick", t1 - t0)
                    t0 = t1
                self._wake_phase(max_rounds)
                t1 = prof.clock()
                prof.add("wake", t1 - t0)
                receive_phase()
                t0 = prof.clock()
                prof.add("receive", t0 - t1)
                send_phase()
                prof.add("send", prof.clock() - t0)
            if pub is not None:
                self._publish_send_backlog(pub)
                pub.round_end(self.now, self._in_flight)
            if mon is not None:
                # Sync the executed-round counter so monitors (and any
                # checkpoint they capture) see a consistent engine.
                self.rounds_executed = executed
                self._timed("monitors", mon.on_round, self)
            if maybe_jump is not None:
                maybe_jump(max_rounds)

        self.rounds_executed = executed
        self.stats.rounds = self.now
        if pub is not None:
            pub.finished(self.now)
        if mon is not None:
            mon.on_finish(self)
        if prof is not None:
            prof.wall += prof.clock() - t_run
        # Quiescent: nothing can act any more.  Detaching the contexts
        # breaks the network <-> context cycles, so the finished network
        # is freed by reference counting, not by a cyclic-GC pass.
        for ctx in self._ctx:
            ctx._network = ctx._enqueue = ctx._wakeup = None
        return self.stats

    def _pending_nodes(self) -> tuple[int, ...]:
        """Nodes with unsent outbound or undelivered inbound messages."""
        pending = {u for u, box in enumerate(self._outboxes) if box}
        for dst, links in enumerate(self._in_links):
            if any(links.values()):
                pending.add(dst)
        return tuple(sorted(pending))

    def _queued_messages(self) -> tuple[Iterator[deque[Message]], Iterator[deque[Message]]]:
        """(link queues, outboxes) iterators for diagnostics."""
        return (
            (q for links in self._in_links for q in links.values()),
            iter(self._outboxes),
        )

    def _oldest_undelivered(self) -> tuple[str, int, int, int] | None:
        """``(kind, src, dst, sent_at)`` of the oldest queued message."""
        links, outboxes = self._queued_messages()
        oldest: Message | None = None
        for q in links:
            for m in q:
                if oldest is None or (m.sent_at, m.seq) < (oldest.sent_at, oldest.seq):
                    oldest = m
        if oldest is None:
            for box in outboxes:
                for m in box:
                    if oldest is None or m.seq < oldest.seq:
                        oldest = m
        if oldest is None:
            return None
        return (oldest.kind, oldest.src, oldest.dst, oldest.sent_at)

    # ------------------------------------------------------------ engine

    def _enqueue_send(self, src: int, dst: int, kind: str, payload: Any) -> Message:
        if self.strict:
            last_round, count = self._send_budget.get(src, (-1, 0))
            count = count + 1 if last_round == self.now else 1
            self._send_budget[src] = (self.now, count)
            if count > self.send_capacity:
                raise StrictModeViolation(src, self.now, "send", self.send_capacity)
        seq = self._msg_seq
        self._msg_seq = seq + 1
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
        box = self._outboxes[src]
        box.append(msg)
        backlog = len(box)
        if backlog == 1:
            self._send_active.append(src)
        stats = self.stats
        if backlog > stats.max_send_backlog:
            stats.max_send_backlog = backlog
        if self._pub is not None:
            self._send_backlog_last = backlog
        if self.trace is not None:
            self.trace.log.extend(("enqueue", self.now, src, dst, kind))
        return msg

    def _publish_send_backlog(self, pub: _EngineMetrics) -> None:
        """Publish ``engine.send_backlog`` for the enqueues since the last call.

        Two gauge writes, the run's peak and then the last outbox length,
        leave the gauge's ``high`` and ``value`` exactly where one write
        per enqueue would have.
        """
        last = self._send_backlog_last
        if last:
            pub.outboxes(self.stats.max_send_backlog, last)
            self._send_backlog_last = 0

    def _schedule_wakeup(self, node_id: int, round_: int) -> None:
        if round_ <= self.now:
            raise ProtocolViolation(
                f"wakeup for node {node_id} at round {round_} is not in the "
                f"future (now={self.now})"
            )
        due = self._wakeups.get(round_)
        if due is None:
            self._wakeups[round_] = [node_id]
            heapq.heappush(self._wake_heap, round_)
        else:
            due.append(node_id)

    def _next_wakeup(self) -> int | None:
        """The earliest round with scheduled wakeups, via the event heap.

        Lazily discards heap entries whose round has already fired (the
        ``_wakeups`` key was popped).  O(log w) amortised.
        """
        heap = self._wake_heap
        wakeups = self._wakeups
        while heap:
            r = heap[0]
            if r in wakeups:
                return r
            heapq.heappop(heap)
        return None

    def _wake_phase(self, max_rounds: int) -> None:
        due = self._wakeups.pop(self.now, None)
        if not due:
            # If nothing is in flight, jump the clock to the next wakeup so
            # idle stretches of a long-lived schedule cost no work.  The
            # jump stops at the budget; the loop then raises a round later.
            if self._in_flight == 0 and self._wakeups:
                nxt = self._next_wakeup()
                if nxt is not None and nxt > self.now:
                    self.now = min(nxt, max_rounds)
                    due = self._wakeups.pop(self.now, None)
                    # The loop ticked the faults for the round it left;
                    # tick the landing round too, before anyone wakes, so
                    # crash/recover boundaries jumped over are emitted.
                    if self._injector is not None:
                        self._injector.tick(self.now, self.stats, self.trace, self.metrics)
            if not due:
                return
        crashed = self._crashed
        nodes, ctxs = self._nodes, self._ctx
        for v in due if len(due) == 1 else sorted(set(due)):
            if crashed is not None and crashed(v, self.now):
                # Crashed nodes do not act; their wakeups fire at recovery
                # (and are dropped for a permanent crash).
                rec = self._injector.recovery_round(v, self.now)
                if rec is not None:
                    deferred = self._wakeups.get(rec)
                    if deferred is None:
                        self._wakeups[rec] = [v]
                        heapq.heappush(self._wake_heap, rec)
                    else:
                        deferred.append(v)
                continue
            nodes[v].on_wake(ctxs[v])

    def _maybe_jump(self, max_rounds: int) -> None:
        """Skip idle rounds (only reachable with non-unit delays): with long
        link delays nothing may be receivable for a while, so advance the
        clock to the round before the next event.

        The active receiver set holds exactly the nodes with a non-empty
        ready heap, so the scan is O(active), not O(n)."""
        if self._in_flight == 0:
            return
        if self._send_active:
            return  # an outbox holds messages (crashed senders included)
        nxt = None
        rheaps = self._rheaps
        for v in self._recv_active:
            h = rheaps[v]
            if h and (nxt is None or h[0][0] < nxt):
                nxt = h[0][0]
        if self._wakeups:
            w = self._next_wakeup()
            if w is not None:
                nxt = w if nxt is None else min(nxt, w)
        if nxt is not None and nxt > self.now + 1:
            self.now = min(nxt - 1, max_rounds)

    def _record_completion(self, op_id: Any, result: Any, node_id: int) -> None:
        self.delays.record(op_id, self.now, result=result, at_node=node_id)
        if self._pub is not None:
            self._pub.completed(self.now)
        if self.trace is not None:
            self.trace.log.extend(("complete", self.now, node_id, op_id))
        if self.monitors is not None:
            self.monitors.on_complete(self, op_id, result, node_id)

    # ------------------------------------------------------------ phases
    #
    # Stats and engine metrics are tallied locally and folded once per
    # phase, even when a handler raises.  Trace records go through the
    # trace's producer entry point, bound as a local per phase.

    def _receive_phase(self) -> None:
        active = self._recv_active
        if not active:
            return
        t = self.now
        crashed = self._crashed
        pub = self._pub
        prof = self.profiler
        emit = self.trace.log.extend if self.trace is not None else None
        strict = self.strict
        cap = self.recv_capacity
        heappop = heapq.heappop
        heappush = heapq.heappush
        nodes = self._nodes
        ctxs = self._ctx
        in_links = self._in_links
        rheaps = self._rheaps
        order = sorted(active)
        active.clear()
        delivered = 0
        wait_total = 0
        # link wait -> deliveries this phase (only with metrics attached).
        waits: dict[int, int] = {}
        try:
            for v in order:
                heap = rheaps[v]
                if crashed is not None and crashed(v, t):
                    # Crashed receiver: messages wait on their links.
                    active.append(v)
                    continue
                node = nodes[v]
                ctx = ctxs[v]
                links_v = in_links[v]
                budget = cap
                while budget and heap:
                    head = heap[0]
                    if head[0] > t:
                        break  # still traversing its link
                    heappop(heap)
                    src = head[2]
                    q = links_v[src]
                    msg = q.popleft()
                    if q:
                        nxt = q[0]
                        ra = nxt.ready_at
                        if ra <= t:
                            ra = t + 1
                        heappush(heap, (ra, nxt.seq, src))
                    msg.delivered_at = t
                    budget -= 1
                    delivered += 1
                    wait = t - msg.ready_at
                    wait_total += wait
                    if pub is not None:
                        waits[wait] = waits.get(wait, 0) + 1
                    if emit is not None:
                        emit(("deliver", t, src, v, msg.kind, wait))
                    # Per message, so the unprofiled call stays a bare call.
                    if prof is None:
                        node.on_receive(msg, ctx)
                    else:
                        t0 = prof.clock()
                        node.on_receive(msg, ctx)
                        prof.add("node.on_receive", prof.clock() - t0)
                if heap:
                    if strict and heap[0][0] <= t:
                        raise StrictModeViolation(v, t, "receive", cap)
                    active.append(v)
        finally:
            # Folded even when a handler raised, so stats and metrics
            # count every delivery made, the raising one included.
            self.stats.messages_delivered += delivered
            self.stats.total_link_wait += wait_total
            if pub is not None and delivered:
                pub.receive_phase(delivered, wait_total, waits)

    def _send_phase(self) -> None:
        active = self._send_active
        if not active:
            return
        t = self.now
        verdict_of = self._injector.on_link_entry if self._injector is not None else None
        crashed = self._crashed
        pub = self._pub
        emit = self.trace.log.extend if self.trace is not None else None
        cap = self.send_capacity
        unit = self._unit_delay
        delay_model = self.delay_model
        outboxes = self._outboxes
        in_links = self._in_links
        rheaps = self._rheaps
        recv_active = self._recv_active
        heappush = heapq.heappush
        stats = self.stats
        order = sorted(active)
        active.clear()
        sent = 0
        dropped = 0
        duplicated = 0
        lq = 0
        max_backlog = stats.max_recv_backlog
        try:
            for u in order:
                box = outboxes[u]
                if crashed is not None and crashed(u, t):
                    # Crashed sender: outbox frozen until recovery.
                    active.append(u)
                    continue
                budget = cap
                while budget and box:
                    budget -= 1
                    msg = box.popleft()
                    msg.sent_at = t
                    duplicate = False
                    if verdict_of is not None:
                        verdict = verdict_of(msg, t)
                        if verdict in ("drop", "outage"):
                            # Lost on the wire: the send slot is consumed but
                            # the message never enters the link.
                            dropped += 1
                            if emit is not None:
                                emit(("drop", t, u, msg.dst, msg.kind, verdict))
                            continue
                        duplicate = verdict == "duplicate"
                    # Inlined link entry (the hot path).
                    dst = msg.dst
                    ready_at = t + 1 if unit else t + delay_model(msg)
                    msg.ready_at = ready_at
                    links_d = in_links[dst]
                    q = links_d.get(u)
                    if q is None:
                        q = links_d[u] = deque()
                    q.append(msg)
                    lq = len(q)
                    if lq > max_backlog:
                        max_backlog = lq
                    if lq == 1:
                        heap = rheaps[dst]
                        if not heap:
                            recv_active.append(dst)
                        heappush(heap, (ready_at, msg.seq, u))
                    sent += 1
                    if emit is not None:
                        emit(("send", t, u, dst, msg.kind))
                    if duplicate:
                        clone = Message(
                            src=msg.src, dst=dst, kind=msg.kind,
                            payload=msg.payload, seq=self._msg_seq,
                        )
                        self._msg_seq += 1
                        clone.sent_at = t
                        duplicated += 1
                        # Right behind its original on the same link, so
                        # the link's head is already in the ready heap.
                        clone.ready_at = t + delay_model(clone)
                        q.append(clone)
                        lq += 1
                        if lq > max_backlog:
                            max_backlog = lq
                        sent += 1
                        if emit is not None:
                            emit((
                                "send", t, u, dst, msg.kind,
                                "duplicate", t, u, dst, msg.kind,
                            ))
                if box:
                    active.append(u)
        finally:
            stats.max_recv_backlog = max_backlog
            stats.messages_sent += sent
            stats.messages_dropped += dropped
            stats.messages_duplicated += duplicated
            if pub is not None:
                pub.send_phase(sent, max_backlog, lq, dropped, duplicated)


def run_protocol(
    graph: Any,
    nodes: Mapping[int, Node],
    *,
    max_rounds: int = 50_000_000,
    reliable: Any | None = None,
    **engine: Any,
) -> SynchronousNetwork:
    """Build a network over ``nodes``, run it to quiescence, return it.

    Every protocol runner builds and runs its engine here, so every runner
    takes the same run options and forwards them unchanged:

    * ``max_rounds``: the engine's safety limit (see
      :meth:`SynchronousNetwork.run`);
    * ``reliable``: an optional :class:`repro.faults.RetryPolicy`.  When
      set, every node is wrapped in a :class:`repro.faults.ReliableNode`
      (acks, timeouts, bounded retries) that shares the run's ``metrics``
      and ``faults`` plan; runners still read results off their own,
      unwrapped nodes;
    * everything else goes to the :class:`SynchronousNetwork` constructor
      as is: ``send_capacity``, ``recv_capacity``, ``delay_model``,
      ``trace``, ``metrics``, ``profiler``, ``strict``, ``faults`` and
      ``monitors``.  An unknown name raises ``TypeError``, and so does a
      capacity the runner already passes (the fixed unit budgets of the
      strict model, or its own ``capacity`` parameter).

    The returned network exposes ``delays`` (per-operation completion
    rounds) and ``stats`` (aggregate accounting).

    Raises:
        ValueError: if ``reliable`` and ``strict`` are both set: acks and
            retransmits legitimately exceed the per-round budgets.
    """
    if reliable is not None:
        if engine.get("strict"):
            raise ValueError(
                "strict mode is incompatible with reliable delivery: acks "
                "and retransmits legitimately exceed the per-round budgets"
            )
        from repro.faults.reliable import ReliableNode

        metrics = engine.get("metrics")
        plan = engine.get("faults")
        nodes = {
            v: ReliableNode(node, reliable, metrics=metrics, plan=plan)
            for v, node in nodes.items()
        }
    net = SynchronousNetwork(graph, nodes, **engine)
    net.run(max_rounds=max_rounds)
    return net
