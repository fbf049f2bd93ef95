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
from dataclasses import dataclass, replace
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


#: ``RunStats`` field -> the ``engine.*`` counter that publishes it.
_ENGINE_COUNTERS = (
    ("messages_sent", "engine.messages_sent"),
    ("messages_delivered", "engine.messages_delivered"),
    ("messages_dropped", "engine.messages_dropped"),
    ("messages_duplicated", "engine.messages_duplicated"),
)


#: hook argument -> (the interface it stands for, the attributes the
#: engine reads from it).
_HOOK_INTERFACES = (
    ("trace", "EventTrace", ("log",)),
    ("metrics", "MetricsRegistry", ("counter", "gauge", "histogram", "series")),
    ("profiler", "PhaseProfiler", ("clock", "add", "tick_round", "wall")),
    ("monitors", "MonitorSet", ("on_round", "on_complete", "on_finish")),
)


def _check_hooks(**hooks: Any) -> None:
    """Reject a hook that lacks an attribute the engine uses, before round 0.

    Raises:
        TypeError: naming the hook, the interface it must provide, and
            the attributes it lacks.
    """
    for name, interface, attrs in _HOOK_INTERFACES:
        hook = hooks[name]
        if hook is None:
            continue
        missing = [a for a in attrs if not hasattr(hook, a)]
        if missing:
            raise TypeError(
                f"{name}= expects the {interface} interface "
                f"({', '.join(attrs)}); got {type(hook).__name__}, which "
                f"lacks {', '.join(missing)}"
            )


def _as_graph(graph: Any) -> Graph:
    """Normalize a graph-like input to a :class:`Graph` with sorted adjacency.

    Accepts a :class:`repro.topology.Graph` (used as is: its ``adj``
    already maps every vertex to a sorted tuple, and its neighbor sets
    are cached on it), anything else with an ``adj`` mapping, a plain
    mapping ``{node: neighbors}``, or an iterable of edges ``(u, v)``.
    """
    if isinstance(graph, Graph):
        return graph
    if hasattr(graph, "adj"):
        raw: Mapping[int, Sequence[int]] = graph.adj
        return Graph({v: tuple(sorted(raw[v])) for v in raw})
    if isinstance(graph, Mapping):
        return Graph({v: tuple(sorted(graph[v])) for v in graph})
    adj: dict[int, set[int]] = {}
    for u, v in graph:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return Graph({v: tuple(sorted(nbrs)) for v, nbrs in adj.items()})


class SynchronousNetwork:
    """A synchronous message-passing network over a fixed graph.

    Args:
        graph: the communication graph (see :func:`_as_graph` for the
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
            When attached, the engine publishes its ``engine.*`` message
            counters and backlog gauges from ``stats``, the
            ``engine.completions`` counter and ``op.delay`` histogram
            from ``delays``, the ``msg.link_wait`` histogram from a
            wait -> count tally, and the ``engine.in_flight`` gauge and
            series from a per-round log; it keeps the tally and the log
            only while a registry is attached.  It publishes once, when
            :meth:`run` or :meth:`resume` returns or raises, adding only
            what changed since the last publish, so a registry holds no
            ``engine.*`` metric until then, and a resumed run or a second
            run into the same registry counts nothing twice.  A metric is
            created with its first value; ``engine.rounds`` is set only
            when the run quiesces.  The engine calls ``counter``/
            ``gauge``/``histogram`` and updates the objects directly, so
            a registry subclass that overrides ``inc``/``set_gauge``/
            ``observe``/``sample`` does not see the engine's updates.
            When ``None`` (the default) every instrumented call site
            reduces to one ``is not None`` check.  ``RunStats`` stays the
            always-on aggregate; after a run the registry reproduces it
            exactly (``metrics.run_stats_view()``).
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

    A hook that lacks an attribute the engine reads raises ``TypeError``
    here, before round 0, naming the interface it must provide.

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
        _check_hooks(trace=trace, metrics=metrics, profiler=profiler, monitors=monitors)
        self._graph = _as_graph(graph)
        adj = self._graph.adj
        n = len(adj)
        # Keys are unique, so min/max pin the range (the empty graph has none).
        if n and not (min(adj) == 0 and max(adj) == n - 1):
            first = next(v for v in range(n) if v not in adj)
            raise ProtocolViolation(
                f"vertex ids must be 0..{n - 1}; id {first} is missing"
            )
        missing = set(adj) - set(nodes)
        if missing:
            raise ProtocolViolation(f"no Node object for vertices {sorted(missing)[:5]}...")
        extra = set(nodes) - set(adj)
        if extra:
            raise ProtocolViolation(
                f"Node objects for vertices not in the graph: {sorted(extra)[:5]}"
            )
        self._nodes: list[Node] = [nodes[v] for v in range(n)]
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
        #: What the registry already holds (see _publish_metrics): the
        #: stats and the completions published so far.
        self._published = RunStats()
        self._published_ops = 0
        #: link wait -> deliveries, and (round, in flight) per executed
        #: round, since the last publish; kept only with a registry.
        self._link_waits: dict[int, int] | None = {} if metrics is not None else None
        self._in_flight_log: list[tuple[int, int]] | None = (
            [] if metrics is not None else None
        )
        #: The outbox length at the last enqueue and the link length at
        #: the last link entry since the last publish (0: none).
        self._last_outbox = 0
        self._last_link = 0
        #: Whether the run quiesced (``engine.rounds`` is published then).
        self._quiesced = False
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
        # Strict-mode send accounting: node -> (round, sends so far).
        self._send_budget: dict[int, tuple[int, int]] = {}

        self._unit_delay = (
            type(self.delay_model) is ConstantDelay and self.delay_model.delay == 1
        )
        # Per-vertex containers are made on the vertex's first send (its
        # outbox) or first incoming link entry (its link table and ready
        # heap), so a vertex that never acts costs no allocation.
        self._outboxes: list[deque[Message] | None] = [None] * n
        #: per destination: incoming-link FIFO queues keyed by source.
        self._in_links: list[dict[int, deque[Message]] | None] = [None] * n
        #: per node: heap of (eligible round, seq, src) over link heads.
        #: Only heads are in the heap, so arbitration is O(log deg) per
        #: delivery even on the star's hub.
        self._rheaps: list[list[tuple[int, int, int]] | None] = [None] * n
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
        #: Rounds the run loop completed (idle stretches that the clock
        #: jumped over are not counted, nor a round cut short by a
        #: raise).  ``stats.rounds`` stays the model-level clock; this is
        #: the engine-level work measure.
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
        return self._graph.adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Neighbors of ``v`` as a frozenset (for membership tests)."""
        return self._graph._nbr_sets[v]

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
        prof = self.profiler
        mon = self.monitors
        t_run = prof.clock() if prof is not None else 0.0
        try:
            if inj is not None:
                inj.tick(0, self.stats, self.trace, self.metrics)
            self._timed("node.on_start", self._start_nodes)
            self._timed("send", self._send_phase)
            if mon is not None:
                self._timed("monitors", mon.on_round, self)

            return self._loop(max_rounds, t_run)
        finally:
            if self.metrics is not None:
                self._publish_metrics()

    def resume(self, max_rounds: int = 1_000_000) -> RunStats:
        """Continue a started network to quiescence.

        The checkpoint/restore workflow: a network deepcopied mid-run by
        :class:`repro.resilience.Checkpoint` re-enters the round loop
        here and finishes byte-identically to the original — same trace
        events, same stats, same completion order.  ``max_rounds`` is the
        same *absolute* round budget :meth:`run` takes.  A network that
        raised :class:`RoundLimitExceeded` stands at the end of its last
        complete round, so resuming it with a larger budget also finishes
        exactly as one uninterrupted run would.

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
            if self.metrics is not None:
                self._publish_metrics()

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
        in_flight_log = self._in_flight_log
        prof = self.profiler
        mon = self.monitors

        executed = self.rounds_executed
        try:
            while self._in_flight > 0 or self._wakeups:
                # Idle rounds are skipped at the top of every round after
                # round 0, so a network resumed after a raise or from a
                # checkpoint skips exactly what an uninterrupted run does.
                if maybe_jump is not None and self.now:
                    maybe_jump(max_rounds)
                # Checked before the clock advances: a network that raises
                # stands at the end of its last complete round.
                if self.now >= max_rounds:
                    raise self._round_limit(max_rounds)
                self.now += 1
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
                executed += 1
                if in_flight_log is not None:
                    in_flight_log.append((self.now, self._in_flight))
                if mon is not None:
                    # Sync the executed-round counter so monitors (and any
                    # checkpoint they capture) see a consistent engine.
                    self.rounds_executed = executed
                    self._timed("monitors", mon.on_round, self)
        finally:
            self.rounds_executed = executed

        self.stats.rounds = self.now
        self._quiesced = True
        if mon is not None:
            mon.on_finish(self)
        if prof is not None:
            prof.wall += prof.clock() - t_run
        # Quiescent: nothing can act any more.  Detaching the contexts
        # breaks the network <-> context cycles, so the finished network
        # is freed by reference counting, not by a cyclic-GC pass.
        for ctx in self._ctx:
            ctx._network = None
        return self.stats

    def _publish_metrics(self) -> None:
        """Add what the run tallied since the last call to ``self.metrics``.

        The engine's only write into the registry (see the ``metrics``
        argument).  Counters and histograms gain the difference since
        the last publish; each gauge is written as its peak and then its
        last value, which leaves its ``value`` and ``high`` where a write
        per change would have.
        """
        reg = self.metrics
        stats = self.stats
        done = self._published
        for field, name in _ENGINE_COUNTERS:
            n = getattr(stats, field) - getattr(done, field)
            if n:
                reg.counter(name).value += n
        if stats.messages_delivered > done.messages_delivered:
            # Created with the first delivery, even while every wait is 0.
            reg.counter("engine.link_wait_total").value += (
                stats.total_link_wait - done.total_link_wait
            )
        self._published = replace(stats)
        waits = self._link_waits
        if waits:
            h = reg.histogram("msg.link_wait")
            for wait, n in waits.items():
                h.observe(wait, n)
            waits.clear()
        rounds = list(self.delays.delay_by_op().values())[self._published_ops:]
        if rounds:
            self._published_ops += len(rounds)
            reg.counter("engine.completions").value += len(rounds)
            h = reg.histogram("op.delay")
            for r in rounds:
                h.observe(r)
        for name, peak, last in (
            ("engine.send_backlog", stats.max_send_backlog, self._last_outbox),
            ("engine.recv_backlog", stats.max_recv_backlog, self._last_link),
        ):
            if last:
                g = reg.gauge(name)
                g.set(peak)
                g.set(last)
        self._last_outbox = self._last_link = 0
        log = self._in_flight_log
        if log:
            g = reg.gauge("engine.in_flight")
            g.set(max(v for _, v in log))
            g.set(log[-1][1])
            reg.series.setdefault("engine.in_flight", []).extend(log)
            log.clear()
        if self._quiesced:
            reg.gauge("engine.rounds").set(stats.rounds)

    def _round_limit(self, max_rounds: int) -> RoundLimitExceeded:
        """The error for a run that has not quiesced within ``max_rounds``."""
        return RoundLimitExceeded(
            max_rounds,
            self._in_flight,
            pending_nodes=self._pending_nodes(),
            oldest=self._oldest_undelivered(),
        )

    def _pending_nodes(self) -> tuple[int, ...]:
        """Nodes with unsent outbound or undelivered inbound messages."""
        pending = {u for u, box in enumerate(self._outboxes) if box}
        for dst, links in enumerate(self._in_links):
            if links and any(links.values()):
                pending.add(dst)
        return tuple(sorted(pending))

    def _queued_messages(self) -> tuple[Iterator[deque[Message]], Iterator[deque[Message]]]:
        """(link queues, outboxes) iterators for diagnostics."""
        return (
            (q for links in self._in_links if links for q in links.values()),
            (box for box in self._outboxes if box),
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

    def _charge_send(self, src: int) -> None:
        """Strict mode: count a send against ``src``'s per-round budget."""
        last_round, count = self._send_budget.get(src, (-1, 0))
        count = count + 1 if last_round == self.now else 1
        self._send_budget[src] = (self.now, count)
        if count > self.send_capacity:
            raise StrictModeViolation(src, self.now, "send", self.send_capacity)

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
            # idle stretches of a long-lived schedule cost no work.
            if self._in_flight == 0 and self._wakeups:
                nxt = self._next_wakeup()
                if nxt is not None and nxt > self.now:
                    # The jump stops at the budget.
                    self.now = min(nxt, max_rounds)
                    due = self._wakeups.pop(self.now, None)
                    # The loop ticked the faults for the round it left;
                    # tick the landing round too, before anyone wakes, so
                    # crash/recover boundaries jumped over are emitted.
                    if self._injector is not None:
                        self._injector.tick(self.now, self.stats, self.trace, self.metrics)
                    if nxt > max_rounds:
                        # Nothing happens up to the budget: stop there,
                        # with no round undone, so resume() jumps on.
                        raise self._round_limit(max_rounds)
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
        if self.trace is not None:
            self.trace.log.extend(("complete", self.now, node_id, op_id))
        if self.monitors is not None:
            self.monitors.on_complete(self, op_id, result, node_id)

    # ------------------------------------------------------------ phases
    #
    # Stats are tallied locally and folded once per phase, even when a
    # handler raises.  Trace records go through the trace's producer entry
    # point, bound as a local per phase.

    def _receive_phase(self) -> None:
        active = self._recv_active
        if not active:
            return
        t = self.now
        crashed = self._crashed
        waits = self._link_waits
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
                    if waits is not None:
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
            # Folded even when a handler raised, so the stats count every
            # delivery made, the raising one included.
            self.stats.messages_delivered += delivered
            self.stats.total_link_wait += wait_total

    def _send_phase(self) -> None:
        active = self._send_active
        if not active:
            return
        t = self.now
        verdict_of = self._injector.on_link_entry if self._injector is not None else None
        crashed = self._crashed
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
                    if links_d is None:
                        # dst's first incoming message: its link table
                        # and ready heap are made now.
                        links_d = in_links[dst] = {}
                        rheaps[dst] = []
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
            if sent:
                self._last_link = lq


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
      (acks, timeouts, bounded retries); all wrappers share one
      :class:`repro.faults.ReliableRun` holding the policy, the run's
      ``metrics`` and ``faults`` plan, and the ``reliable.*`` counters.
      Runners still read results off their own, unwrapped nodes;
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
        from repro.faults.reliable import ReliableNode, ReliableRun

        shared = ReliableRun(reliable, engine.get("metrics"), engine.get("faults"))
        nodes = {v: ReliableNode(node, shared) for v, node in nodes.items()}
    net = SynchronousNetwork(graph, nodes, **engine)
    net.run(max_rounds=max_rounds)
    return net
