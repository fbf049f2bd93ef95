"""Property-based engine tests: model invariants under random protocols.

A random "chatter" protocol exercises the engine with arbitrary traffic;
the model's invariants must hold regardless of what the protocol does:

* a node never receives more than ``recv_capacity`` messages per round;
* a node never puts more than ``send_capacity`` messages on links per round;
* every message sent is delivered exactly once (conservation);
* per-link delivery order equals send order (FIFO);
* no message is delivered before ``sent_at + delay``.

A monitor also checks, every round, the bookkeeping the engine's hot
loops rely on: the active lists name exactly the nodes with a non-empty
outbox / ready heap, and the derived in-flight count equals the messages
actually queued.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, NodeCrash
from repro.sim import EventTrace, Message, Node, SynchronousNetwork, UniformDelay
from repro.topology.base import Graph


class ChatterNode(Node):
    """Sends a random batch at start; forwards with decaying TTL."""

    def __init__(self, node_id: int, rng: random.Random, fanout: int):
        super().__init__(node_id)
        self.rng = rng
        self.fanout = fanout
        self.seen: list[Message] = []

    def on_start(self, ctx):
        for _ in range(self.fanout):
            if ctx.neighbors:
                dst = self.rng.choice(ctx.neighbors)
                ctx.send(dst, "chat", payload=3)  # TTL

    def on_receive(self, msg, ctx):
        self.seen.append(msg)
        ttl = msg.payload
        if ttl > 0 and ctx.neighbors and self.rng.random() < 0.7:
            ctx.send(self.rng.choice(ctx.neighbors), "chat", payload=ttl - 1)


@st.composite
def chatter_setup(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    # random connected graph: path backbone + extra edges
    edges = {(i, i + 1) for i in range(n - 1)}
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=2 * n,
        )
    )
    for u, v in extra:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    seed = draw(st.integers(0, 10**6))
    send_cap = draw(st.integers(min_value=1, max_value=3))
    recv_cap = draw(st.integers(min_value=1, max_value=3))
    delay_hi = draw(st.integers(min_value=1, max_value=4))
    fanout = draw(st.integers(min_value=0, max_value=4))
    return n, sorted(edges), seed, send_cap, recv_cap, delay_hi, fanout


class TestEngineInvariants:
    @given(setup=chatter_setup())
    @settings(max_examples=50, deadline=None)
    def test_all_invariants_hold(self, setup):
        n, edges, seed, send_cap, recv_cap, delay_hi, fanout = setup
        g = Graph.from_edges(n, edges, name="chatter")
        rng = random.Random(seed)
        nodes = {v: ChatterNode(v, rng, fanout) for v in range(n)}
        trace = EventTrace()
        model = UniformDelay(1, delay_hi, seed=seed)
        net = SynchronousNetwork(
            g,
            nodes,
            send_capacity=send_cap,
            recv_capacity=recv_cap,
            delay_model=model,
            trace=trace,
        )
        stats = net.run(max_rounds=100_000)

        # conservation
        assert stats.messages_sent == stats.messages_delivered

        # capacities
        assert trace.max_deliveries_in_a_round() <= recv_cap
        assert trace.max_sends_in_a_round() <= send_cap

        # per-link FIFO + delay respected
        per_link_seqs: dict[tuple[int, int], list[int]] = {}
        for v in range(n):
            for msg in nodes[v].seen:
                assert msg.delivered_at >= msg.ready_at
                assert msg.ready_at - msg.sent_at >= 1
                per_link_seqs.setdefault((msg.src, msg.dst), []).append(msg.seq)
        # within each link, the receiver saw messages in creation order of
        # their *send*, which for a single sender equals enqueue order
        for link, seqs in per_link_seqs.items():
            assert seqs == sorted(seqs), f"FIFO violated on {link}"


class BookkeepingMonitor:
    """End-of-round check of the engine's derived and maintained state.

    Duck-types the ``monitors=`` hook (``on_round``/``on_complete``/
    ``on_finish``).
    """

    def __init__(self) -> None:
        self.rounds_checked = 0

    def on_round(self, net: SynchronousNetwork) -> None:
        links, outboxes = net._queued_messages()
        queued = sum(len(q) for q in links) + sum(len(box) for box in outboxes)
        assert net._in_flight == queued
        n = len(net._outboxes)
        # sorted() == the non-empty ones: listed exactly once, no others.
        assert sorted(net._send_active) == [v for v in range(n) if net._outboxes[v]]
        assert sorted(net._recv_active) == [v for v in range(n) if net._rheaps[v]]
        self.rounds_checked += 1

    def on_complete(self, net, op_id, result, node_id) -> None:
        pass

    def on_finish(self, net: SynchronousNetwork) -> None:
        self.on_round(net)


@st.composite
def fault_plans(draw, n: int):
    """Drop/duplicate rates and finite crash windows over ``n`` nodes."""
    crashes = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, 12), st.integers(1, 8)
            ),
            max_size=3,
        )
    )
    return FaultPlan(
        seed=draw(st.integers(0, 10**6)),
        drop_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        crashes=tuple(NodeCrash(v, start, start + span) for v, start, span in crashes),
    )


class TestEngineBookkeeping:
    @given(setup=chatter_setup(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_active_lists_and_in_flight_every_round(self, setup, data):
        n, edges, seed, send_cap, recv_cap, delay_hi, fanout = setup
        plan = data.draw(st.none() | fault_plans(n))
        g = Graph.from_edges(n, edges, name="chatter")
        rng = random.Random(seed)
        nodes = {v: ChatterNode(v, rng, fanout) for v in range(n)}
        monitor = BookkeepingMonitor()
        net = SynchronousNetwork(
            g,
            nodes,
            send_capacity=send_cap,
            recv_capacity=recv_cap,
            delay_model=UniformDelay(1, delay_hi, seed=seed),
            faults=plan,
            monitors=monitor,
        )
        net.run(max_rounds=100_000)
        assert monitor.rounds_checked >= 2  # round 0 and the finish
        assert net._in_flight == 0
