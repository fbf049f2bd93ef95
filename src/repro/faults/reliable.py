"""Reliable delivery over lossy links: an ack/retry :class:`Node` adapter.

:class:`ReliableNode` wraps any protocol :class:`~repro.sim.node.Node`
and makes its message exchange survive the faults a
:class:`~repro.faults.plan.FaultPlan` injects:

* every application send travels as a ``rel`` envelope carrying a
  per-sender sequence number; the receiver acks every copy and delivers
  the payload to the wrapped node exactly once (duplicates are absorbed
  by a per-sender seen-set);
* unacked envelopes are retransmitted on a timeout with exponential
  backoff, up to a bounded retry budget — exceeding it raises
  :class:`RetryBudgetExceeded`, turning a silent deadlock into a
  diagnosable failure.

The wrapper is itself a conforming protocol node: it only talks through
the :class:`~repro.sim.node.NodeContext` API (rules R1-R5 of
``docs/LINT.md`` apply to it like to any other node), so wrapped
protocols run on the unmodified engine and their runs remain
deterministic.  The wrapped node's callbacks receive the wrapper itself
as their context.

Guarantee: under a plan where every message is eventually deliverable
(finite outages and crash windows, bounded drop runs — see
:meth:`FaultPlan.eventually_delivers`) and a sufficient retry budget, a
wrapped protocol's messages are all delivered exactly once, so the
protocol completes and its outputs verify.  Non-guarantees: no ordering
beyond the engine's FIFO links is restored, crashed nodes do not lose
state (crash = fail-stop pause, not amnesia), and a permanent crash or
an unbounded drop run can still exhaust the retry budget.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.sim.errors import SimulationError
from repro.sim.message import Message
from repro.sim.node import Node, NodeContext

#: Builds the unwrapped inner ``Message`` the way the engine builds its own.
_new_message = object.__new__


class RetryBudgetExceeded(SimulationError):
    """A reliable sender gave up on a message after ``max_retries`` resends.

    ``faulty`` says whether the run injected any faults.  Without faults
    no envelope or ack was lost, so the retries can only have run out
    while the envelope sat queued behind contention.
    """

    def __init__(
        self,
        node_id: int,
        dst: int,
        kind: str,
        attempts: int,
        round_: int | None = None,
        faulty: bool = True,
    ) -> None:
        self.node_id = node_id
        self.dst = dst
        self.kind = kind
        self.attempts = attempts
        self.round = round_
        at = "" if round_ is None else f" (round {round_})"
        cause = (
            "the fault plan starved the link" if faulty else
            "no faults were injected; the retries ran out while the "
            "envelope was queued"
        )
        super().__init__(
            f"node {node_id} gave up sending {kind!r} to {dst} after "
            f"{attempts} attempts{at} — {cause}"
        )


class RetryPolicy:
    """Retransmission knobs for :class:`ReliableNode`.

    Attributes:
        timeout: rounds to wait for an ack before the first retransmit.
            Must cover the round trip (2 link delays) plus expected
            receiver contention; too small a value wastes bandwidth on
            spurious retransmits but never breaks correctness.
        backoff: multiplicative interval growth per retransmit (>= 1).
        max_interval: cap on the retransmit interval.
        max_retries: retransmissions allowed per message before
            :class:`RetryBudgetExceeded`.
    """

    __slots__ = ("timeout", "backoff", "max_interval", "max_retries")

    def __init__(
        self,
        timeout: int = 6,
        backoff: float = 2.0,
        max_interval: int = 64,
        max_retries: int = 30,
    ) -> None:
        if timeout < 1:
            raise ValueError(f"timeout must be >= 1 round, got {timeout}")
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.timeout = timeout
        self.backoff = backoff
        self.max_interval = max(timeout, max_interval)
        self.max_retries = max_retries

    def next_interval(self, interval: int) -> int:
        """The interval following ``interval`` under the backoff curve."""
        return min(self.max_interval, max(interval + 1, int(interval * self.backoff)))


class ReliableRun:
    """What every :class:`ReliableNode` of one run shares.

    Holds the retry policy, the run's fault plan (when known), its
    metrics registry, and the ``reliable.*`` counters.  Each counter is
    looked up in the registry on its first increment, by whichever
    wrapper makes it, and bumped directly by every wrapper afterwards:
    one lookup per counter per run, and no counter before its first
    increment.  :func:`repro.sim.run_protocol` builds one per run.
    """

    __slots__ = (
        "policy", "plan", "metrics", "windows", "crashable", "app_sends",
        "acks_sent", "duplicates_absorbed", "retransmits", "budget_pauses",
    )

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        metrics: Any | None = None,
        plan: Any | None = None,
    ) -> None:
        self.policy = policy if policy is not None else RetryPolicy()
        self.metrics = metrics
        #: the run's FaultPlan, when known: scheduled outage/crash windows
        #: pause the retry budget instead of burning it (crash-aware
        #: retries — see docs/FAULTS.md).
        self.plan = plan
        #: whether the plan schedules outage or crash windows: only then
        #: can a retransmit be blocked (see ReliableNode._retransmit_due).
        self.windows = plan is not None and bool(plan.outages or plan.crashes)
        #: the vertices the plan may crash, or None when the plan is
        #: unknown (then every vertex is assumed to; see
        #: ReliableNode.on_wake).
        self.crashable = (
            None if plan is None else frozenset(c.node for c in plan.crashes)
        )
        self.app_sends: Any = None
        self.acks_sent: Any = None
        self.duplicates_absorbed: Any = None
        self.retransmits: Any = None
        self.budget_pauses: Any = None

    def bind(self, slot: str) -> Any:
        """Bind counter ``reliable.<slot>`` to ``slot`` and return it."""
        c = self.metrics.counter("reliable." + slot)
        setattr(self, slot, c)
        return c


class _Pending:
    """One unacked envelope awaiting retransmission."""

    __slots__ = ("dst", "kind", "payload", "attempts", "interval", "due")

    def __init__(self, dst: int, kind: str, payload: Any, interval: int, due: int):
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.attempts = 1
        self.interval = interval
        self.due = due


class ReliableNode(Node):
    """Ack + timeout + bounded-retry wrapper around any protocol node.

    Args:
        inner: the wrapped protocol node (supplies the node id).
        shared: the run's :class:`ReliableRun` (default: the default
            :class:`RetryPolicy`, no registry, no plan).

    Message kinds on the wire:
        ``rel``: payload ``(seq, kind, payload)`` — one application
            message under a per-sender sequence number.
        ``ack``: payload ``seq`` — receipt confirmation, sent for every
            copy received (acks are not themselves acked).

    The wrapper is the wrapped node's context: it looks exactly like the
    engine's (``node_id``/``now``/``neighbors``/``send``/``complete``/
    ``schedule_wakeup``), routes sends through the reliability envelope,
    and multiplexes the wrapped node's wakeups with its own retransmit
    timers.  It keeps the engine's context of its vertex from
    ``on_start`` on.

    Runners wrap every node in one when given ``reliable=`` (see
    :func:`repro.sim.run_protocol`), all sharing one :class:`ReliableRun`
    with the run's ``metrics`` and fault plan.  When a
    :class:`repro.obs.MetricsRegistry` is attached, the wrapper publishes
    the reliability overhead that aggregate message counts hide:
    ``reliable.app_sends`` (application messages enveloped),
    ``reliable.retransmits``, ``reliable.acks_sent``, and
    ``reliable.duplicates_absorbed`` (copies suppressed by the
    seen-set), plus ``reliable.budget_pauses`` (retransmits deferred past
    a scheduled outage or crash window).  The counters live in the
    shared :class:`ReliableRun`, so ``metrics`` must be a registry with
    ``counter(name)``; a counter is never created before its first
    increment.  As everywhere, ``metrics=None`` costs nothing.

    The per-vertex containers (:attr:`pending` and :attr:`timers`,
    :attr:`seen`, :attr:`armed`, :attr:`inner_wakes`) are ``None`` until
    their first use, so a vertex that never sends, receives or sleeps
    allocates none of them.

    Retransmit timers live in :attr:`timers`, a heap of ``(due, seq)``
    with lazy deletion: an ack only drops the envelope from
    :attr:`pending`, and a heap entry whose ``seq`` is no longer pending
    is discarded when it surfaces.  Every pending envelope has exactly
    one heap entry, carrying its current ``due``.

    A wake at round ``t`` covers the armed rounds and inner wakeups up to
    ``t``.  Only a node that can crash ever sees one before ``t`` (the
    engine defers a crashed node's wakeups to its recovery), so any
    other node matches ``t`` alone, without scanning either set.
    """

    __slots__ = (
        "inner", "shared", "next_seq", "pending", "timers", "seen", "armed",
        "inner_wakes", "_ctx",
    )

    def __init__(self, inner: Node, shared: ReliableRun | None = None) -> None:
        super().__init__(inner.node_id)
        self.inner = inner
        self.shared = shared if shared is not None else ReliableRun()
        self.next_seq = 0
        #: seq -> unacked envelope; made with :attr:`timers` on the first send.
        self.pending: dict[int, _Pending] | None = None
        #: heap of (due, seq) retransmit timers; stale once seq is acked.
        self.timers: list[tuple[int, int]] | None = None
        #: sender -> seqs already delivered to the wrapped node.
        self.seen: dict[int, set[int]] | None = None
        #: rounds with an engine wakeup already scheduled.
        self.armed: set[int] | None = None
        #: rounds at which the wrapped node asked to be woken.
        self.inner_wakes: set[int] | None = None
        #: the engine's context of this vertex (set in on_start).
        self._ctx: NodeContext | None = None

    # ------------------------------------- the wrapped node's context API

    @property
    def now(self) -> int:
        return self._ctx.now

    @property
    def neighbors(self) -> tuple[int, ...]:
        return self._ctx.neighbors

    def send(self, dst: int, kind: str, payload: Any = None) -> Message:
        """Send ``(kind, payload)`` reliably: envelope, track, arm timer."""
        ctx = self._ctx
        shared = self.shared
        pending = self.pending
        if pending is None:
            pending = self.pending = {}
            self.timers = []
        seq = self.next_seq
        self.next_seq = seq + 1
        timeout = shared.policy.timeout
        now = ctx.now
        due = now + timeout
        pending[seq] = _Pending(dst, kind, payload, timeout, due)
        heappush(self.timers, (due, seq))
        if shared.metrics is not None:
            c = shared.app_sends or shared.bind("app_sends")
            c.value += 1
        msg = ctx.send(dst, "rel", (seq, kind, payload))
        self._arm_timer(ctx, now)
        return msg

    def complete(self, op_id: Any, result: Any = None) -> None:
        self._ctx.complete(op_id, result=result)

    def schedule_wakeup(self, round_: int) -> None:
        inner_wakes = self.inner_wakes
        if inner_wakes is None:
            inner_wakes = self.inner_wakes = set()
        inner_wakes.add(round_)
        armed = self.armed
        if armed is None:
            armed = self.armed = set()
        if round_ not in armed:
            armed.add(round_)
            self._ctx.schedule_wakeup(round_)

    # ----------------------------------------------------------- plumbing

    def _arm_timer(self, ctx: NodeContext, now: int) -> None:
        """Ensure a wakeup covers the earliest pending retransmission
        (``now`` is the current round)."""
        timers = self.timers
        if timers is None:
            return  # never sent
        pending = self.pending
        while timers and timers[0][1] not in pending:
            heappop(timers)  # acked since it was armed
        if not timers:
            return
        due = timers[0][0]
        if due <= now:
            due = now + 1
        armed = self.armed
        if armed is None:
            armed = self.armed = set()
        if due not in armed:
            armed.add(due)
            ctx.schedule_wakeup(due)

    # ----------------------------------------------------- engine callbacks

    def on_start(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        self.inner.on_start(self)

    def on_receive(self, msg: Message, ctx: NodeContext) -> None:
        if msg.kind == "rel":
            seq, kind, payload = msg.payload
            src = msg.src
            ctx.send(src, "ack", seq)
            shared = self.shared
            metered = shared.metrics is not None
            if metered:
                c = shared.acks_sent or shared.bind("acks_sent")
                c.value += 1
            seen_by = self.seen
            if seen_by is None:
                seen_by = self.seen = {}
            seen = seen_by.get(src)
            if seen is None:
                seen = seen_by[src] = set()
            if seq in seen:
                if metered:
                    c = shared.duplicates_absorbed or shared.bind("duplicates_absorbed")
                    c.value += 1
                return  # duplicate (injected or retransmitted): ack only
            seen.add(seq)
            # Every slot equals Message(src, msg.dst, kind, payload,
            # msg.sent_at, msg.ready_at, msg.delivered_at, msg.seq).
            inner_msg = _new_message(Message)
            inner_msg.src = src
            inner_msg.dst = msg.dst
            inner_msg.kind = kind
            inner_msg.payload = payload
            inner_msg.sent_at = msg.sent_at
            inner_msg.ready_at = msg.ready_at
            inner_msg.delivered_at = msg.delivered_at
            inner_msg.seq = msg.seq
            self.inner.on_receive(inner_msg, self)
        elif msg.kind == "ack":
            # An ack answers a rel this node sent, so pending exists.
            self.pending.pop(msg.payload, None)
        else:  # pragma: no cover - defensive
            raise ValueError(f"reliable node got unexpected kind {msg.kind!r}")

    def on_wake(self, ctx: NodeContext) -> None:
        # Every engine wakeup of a wrapper was armed, so armed exists.
        t = ctx.now
        armed = self.armed
        armed.discard(t)
        inner_wakes = self.inner_wakes
        crashable = self.shared.crashable
        if crashable is not None and self.node_id not in crashable:
            if inner_wakes and t in inner_wakes:
                inner_wakes.discard(t)
                self.inner.on_wake(self)
        else:
            if armed and min(armed) < t:
                # The engine deferred a wakeup armed for an earlier round
                # past a crash window; this wake covers it too.
                armed.difference_update([r for r in armed if r < t])
            # Fire every inner wakeup due at or *before* t: when this node
            # crashes over its scheduled round, the engine defers the
            # wakeup to the recovery round, so an exact-round match would
            # silently swallow the wrapped node's timer and stall its
            # protocol (the old flood_ft-under-crash-windows failure).
            # Deferred wakeups are coalesced into one late on_wake,
            # matching the "wake at or after r" semantics a crash-deferred
            # timer can honestly offer.
            if inner_wakes:
                due_inner = [r for r in inner_wakes if r <= t]
                if due_inner:
                    inner_wakes.difference_update(due_inner)
                    self.inner.on_wake(self)
        timers = self.timers
        if timers and timers[0][0] <= t:
            self._retransmit_due(ctx, t)
        self._arm_timer(ctx, t)

    def _retransmit_due(self, ctx: NodeContext, t: int) -> None:
        """Retransmit every pending envelope due by ``t``, in ``seq`` order."""
        timers = self.timers
        pending = self.pending
        due = []
        while timers and timers[0][0] <= t:
            seq = heappop(timers)[1]
            if seq in pending:
                due.append(seq)
        due.sort()
        shared = self.shared
        policy = shared.policy
        plan = shared.plan
        windows = shared.windows
        for seq in due:
            p = pending[seq]
            if windows:
                clear = plan.blocked_until(self.node_id, p.dst, t)
                if clear is not None and clear > t:
                    # Scheduled outage / crash window: retransmitting now
                    # would feed the message into a link that is known to
                    # lose or freeze it.  Re-aim at the first clear round
                    # without charging the retry budget.
                    p.due = clear
                    heappush(timers, (clear, seq))
                    if shared.metrics is not None:
                        c = shared.budget_pauses or shared.bind("budget_pauses")
                        c.value += 1
                    continue
            if p.attempts > policy.max_retries:
                raise RetryBudgetExceeded(
                    self.node_id, p.dst, p.kind, p.attempts, round_=t,
                    faulty=plan is not None and not plan.is_empty(),
                )
            p.attempts += 1
            p.interval = policy.next_interval(p.interval)
            p.due = t + p.interval
            heappush(timers, (p.due, seq))
            if shared.metrics is not None:
                c = shared.retransmits or shared.bind("retransmits")
                c.value += 1
            ctx.send(p.dst, "rel", (seq, p.kind, p.payload))


__all__ = [
    "ReliableNode",
    "ReliableRun",
    "RetryPolicy",
    "RetryBudgetExceeded",
]
