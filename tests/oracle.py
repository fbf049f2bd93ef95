"""A naive reference engine, written straight from ``docs/MODEL.md``.

``ReferenceNetwork`` visits every node and every incoming link, in id
order, in every round, with no heaps, active lists or clock jumps, so
each rule of MODEL.md is one short block below.  It shares with the
engine only the model's data types and the fault plan's
``FaultInjector``, asked for verdicts in model order: ``tick`` at the
start of every round, ``crashed`` per acting node, ``on_link_entry`` per
message leaving an outbox.  Metrics, profiler, monitor and strict-mode
hooks are not modelled.  ``tests/test_oracle.py`` diffs it against
:class:`repro.sim.SynchronousNetwork`.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Any

from repro.sim import (
    ConstantDelay, EventTrace, Message, ProtocolViolation, RoundLimitExceeded, RunStats,
)
from repro.sim.metrics import DelayRecorder


class ReferenceContext:
    """The node-facing API: ``node_id``, ``now``, ``neighbors``, ``send``,
    ``complete`` and ``schedule_wakeup``, as in ``NodeContext``."""

    def __init__(self, net: "ReferenceNetwork", v: int) -> None:
        self._net = net
        self.node_id = v
        self.neighbors = net.adj[v]

    @property
    def now(self) -> int:
        return self._net.now

    def send(self, dst: int, kind: str, payload: Any = None) -> Message:
        net = self._net
        if dst not in self.neighbors:
            raise ProtocolViolation(f"node {self.node_id} tried to send to non-neighbor {dst}")
        msg = Message(self.node_id, dst, kind, payload, seq=next(net.seq))
        box = net.outbox[self.node_id]
        box.append(msg)
        net.stats.max_send_backlog = max(net.stats.max_send_backlog, len(box))
        net.record("enqueue", src=self.node_id, dst=dst, kind=kind)
        return msg

    def complete(self, op_id: Any, result: Any = None) -> None:
        net = self._net
        net.delays.record(op_id, net.now, result=result, at_node=self.node_id)
        net.record("complete", node=self.node_id, op=op_id)

    def schedule_wakeup(self, round_: int) -> None:
        net = self._net
        if round_ <= net.now:
            raise ProtocolViolation(f"wakeup at round {round_} is not in the future")
        net.wakeups.setdefault(round_, []).append(self.node_id)


class ReferenceNetwork:
    """Drop-in for ``SynchronousNetwork`` on graphs with ids ``0..n-1``."""

    def __init__(self, graph: Any, nodes: dict, *, send_capacity: int = 1,
                 recv_capacity: int = 1, delay_model: Any = None,
                 trace: EventTrace | None = None, faults: Any = None,
                 **hooks: Any) -> None:
        if any(hooks.values()):
            raise NotImplementedError(f"the oracle models no hooks: {sorted(hooks)}")
        adj = getattr(graph, "adj", graph)  # a Graph or a {node: neighbors} dict
        self.adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
        self.ids = sorted(self.adj)
        self.nodes = nodes
        self.send_cap = send_capacity
        self.recv_cap = recv_capacity
        self.delay = delay_model if delay_model is not None else ConstantDelay(1)
        self.trace = trace
        self.inj = faults.injector() if faults is not None else None
        self.ctx = {v: ReferenceContext(self, v) for v in self.ids}
        self.outbox: dict[int, deque[Message]] = {v: deque() for v in self.ids}
        #: per directed link (u, v): FIFO of messages on it, and the round
        #: of its last delivery (a link delivers at most once per round).
        self.link = {(u, v): deque() for v in self.ids for u in self.adj[v]}
        self.last_delivery = {key: -1 for key in self.link}
        self.wakeups: dict[int, list[int]] = {}
        self.seq = count()  # creation sequence numbers
        self.now = 0
        self.stats = RunStats()
        self.delays = DelayRecorder()

    def record(self, event: str, **data: Any) -> None:
        if self.trace is not None:
            self.trace.record(event, self.now, **data)

    def crashed(self, v: int) -> bool:
        return self.inj is not None and self.inj.crashed(v, self.now)

    def queued(self) -> int:
        return sum(map(len, self.outbox.values())) + sum(map(len, self.link.values()))

    # ------------------------------------------------------------- rounds

    def run(self, max_rounds: int = 1_000_000) -> RunStats:
        """Round 0: ``on_start`` in id order, then one send phase.  Rounds
        1, 2, ...: wake, receive, send, until nothing is queued anywhere
        and no wakeup is pending."""
        self.tick()
        for v in self.ids:
            self.nodes[v].on_start(self.ctx[v])
        self.send_phase()
        while self.queued() or self.wakeups:
            self.now += 1
            if self.now > max_rounds:
                raise RoundLimitExceeded(max_rounds, self.queued())
            self.tick()
            self.wake_phase()
            self.receive_phase()
            self.send_phase()
        self.stats.rounds = self.now
        return self.stats

    def tick(self) -> None:
        if self.inj is not None:
            self.inj.tick(self.now, self.stats, self.trace)

    def wake_phase(self) -> None:
        """Due nodes run ``on_wake`` once each, in id order.  A crashed node
        instead wakes in its recovery round (never, if it never recovers)."""
        for v in sorted(set(self.wakeups.pop(self.now, ()))):
            if self.crashed(v):
                recovery = self.inj.recovery_round(v, self.now)
                if recovery is not None:
                    self.wakeups.setdefault(recovery, []).append(v)
                continue
            self.nodes[v].on_wake(self.ctx[v])

    def receive_phase(self) -> None:
        """Each live node takes up to ``recv_cap`` link heads, each link at
        most once per round.  A head is eligible from ``max(ready_at,
        round after its link's previous delivery)``; eligible heads are
        served by (eligible round, creation seq)."""
        t = self.now
        for v in self.ids:
            if self.crashed(v):
                continue
            heads = []
            for u in self.adj[v]:
                q = self.link[(u, v)]
                if q:
                    eligible = max(q[0].ready_at, self.last_delivery[(u, v)] + 1)
                    if eligible <= t:
                        heads.append((eligible, q[0].seq, u))
            for _, _, u in sorted(heads)[: self.recv_cap]:
                msg = self.link[(u, v)].popleft()
                self.last_delivery[(u, v)] = t
                msg.delivered_at = t
                wait = t - msg.ready_at
                self.stats.messages_delivered += 1
                self.stats.total_link_wait += wait
                self.record("deliver", src=u, dst=v, kind=msg.kind, wait=wait)
                self.nodes[v].on_receive(msg, self.ctx[v])

    def send_phase(self) -> None:
        """Each live node moves up to ``send_cap`` outbox messages, FIFO,
        onto their links.  A dropped message uses its send slot; a
        duplicated one enters its link twice, the copy right behind."""
        t = self.now
        for u in self.ids:
            if self.crashed(u):
                continue
            for _ in range(min(self.send_cap, len(self.outbox[u]))):
                msg = self.outbox[u].popleft()
                msg.sent_at = t
                verdict = self.inj.on_link_entry(msg, t) if self.inj is not None else "deliver"
                if verdict in ("drop", "outage"):
                    self.stats.messages_dropped += 1
                    self.record("drop", src=u, dst=msg.dst, kind=msg.kind, reason=verdict)
                    continue
                self.enter_link(msg)
                if verdict == "duplicate":
                    copy = Message(u, msg.dst, msg.kind, msg.payload, seq=next(self.seq))
                    copy.sent_at = t
                    self.stats.messages_duplicated += 1
                    self.enter_link(copy)
                    self.record("duplicate", src=u, dst=msg.dst, kind=msg.kind)

    def enter_link(self, msg: Message) -> None:
        msg.ready_at = self.now + self.delay(msg)
        q = self.link[(msg.src, msg.dst)]
        q.append(msg)
        self.stats.max_recv_backlog = max(self.stats.max_recv_backlog, len(q))
        self.stats.messages_sent += 1
        self.record("send", src=msg.src, dst=msg.dst, kind=msg.kind)
