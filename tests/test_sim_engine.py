"""Engine semantics: unit delay, capacities, FIFO, arbitration, wakeups."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest

from repro.sim import (
    CapacityError,
    EventTrace,
    Message,
    Node,
    ProtocolViolation,
    RoundLimitExceeded,
    SynchronousNetwork,
)
from repro.arrow import run_arrow
from repro.counting import (
    run_central_counting,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
    run_sweep_counting,
)
from repro.faults import (
    FaultPlan,
    run_arrow_ft,
    run_central_counting_ft,
    run_flood_counting_ft,
)
from repro.obs import MetricsRegistry
from repro.resilience import (
    ArrowInvariant,
    CountingInvariant,
    MonitorSet,
    PeriodicCheckpointer,
    Watchdog,
)
from repro.sim.trace import TraceEvent
from repro.topology import (
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    path_graph,
    path_spanning_tree,
    ring_graph,
    star_graph,
)


class Sender(Node):
    """Sends a fixed batch of messages at start, counts receipts."""

    def __init__(self, node_id, sends=()):
        super().__init__(node_id)
        self.sends = list(sends)
        self.received: list[Message] = []
        self.recv_rounds: list[int] = []

    def on_start(self, ctx):
        for dst, kind in self.sends:
            ctx.send(dst, kind)

    def on_receive(self, msg, ctx):
        self.received.append(msg)
        self.recv_rounds.append(ctx.now)


def line(n=2, **caps):
    g = path_graph(n)
    nodes = {v: Sender(v) for v in range(n)}
    return g, nodes


class TestBasics:
    def test_single_message_takes_one_round(self):
        g, nodes = line(2)
        nodes[0].sends = [(1, "x")]
        net = SynchronousNetwork(g, nodes)
        stats = net.run()
        assert stats.rounds == 1
        assert nodes[1].recv_rounds == [1]

    def test_message_fields_filled(self):
        g, nodes = line(2)
        nodes[0].sends = [(1, "x")]
        SynchronousNetwork(g, nodes).run()
        (msg,) = nodes[1].received
        assert (msg.src, msg.dst, msg.kind) == (0, 1, "x")
        assert msg.sent_at == 0 and msg.delivered_at == 1
        assert msg.link_wait() == 0

    def test_no_messages_means_zero_rounds(self):
        g, nodes = line(3)
        stats = SynchronousNetwork(g, nodes).run()
        assert stats.rounds == 0
        assert stats.messages_sent == 0

    def test_undelivered_message_link_wait_raises(self):
        msg = Message(src=0, dst=1, kind="x")
        with pytest.raises(ValueError):
            msg.link_wait()

    def test_run_twice_rejected(self):
        g, nodes = line(2)
        net = SynchronousNetwork(g, nodes)
        net.run()
        with pytest.raises(ProtocolViolation):
            net.run()

    def test_send_to_non_neighbor_rejected(self):
        g = path_graph(3)
        nodes = {v: Sender(v) for v in range(3)}
        nodes[0].sends = [(2, "x")]  # 0 and 2 are not adjacent
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, nodes).run()

    def test_missing_node_rejected(self):
        g = path_graph(3)
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, {0: Sender(0)})

    def test_extra_node_rejected(self):
        g = path_graph(3)
        nodes = {v: Sender(v) for v in range(4)}  # vertex 3 is not in the graph
        with pytest.raises(ProtocolViolation, match="not in the graph"):
            SynchronousNetwork(g, nodes)

    def test_non_contiguous_ids_rejected(self):
        adj = {0: [2], 2: [0, 5], 5: [2]}
        with pytest.raises(ProtocolViolation, match=r"ids must be 0\.\.2; id 1 is missing"):
            SynchronousNetwork(adj, {v: Sender(v) for v in adj})

    def test_empty_graph_runs_zero_rounds(self):
        net = SynchronousNetwork({}, {})
        assert net.run().rounds == 0
        assert net.node_ids == []

    def test_invalid_capacities_rejected(self):
        g, nodes = line(2)
        with pytest.raises(CapacityError):
            SynchronousNetwork(g, nodes, send_capacity=0)
        with pytest.raises(CapacityError):
            SynchronousNetwork(g, nodes, recv_capacity=-1)


class TestContention:
    def test_receive_capacity_serialises_star_hub(self):
        """k leaves send to the hub; hub receives exactly one per round."""
        n = 8
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        trace = EventTrace()
        net = SynchronousNetwork(g, nodes, trace=trace)
        stats = net.run()
        assert stats.rounds == n - 1
        assert nodes[0].recv_rounds == list(range(1, n))
        assert trace.max_deliveries_in_a_round() == 1

    def test_send_capacity_serialises_broadcast(self):
        """The hub sends to k leaves; one message leaves per round."""
        n = 6
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        nodes[0].sends = [(v, "x") for v in range(1, n)]
        trace = EventTrace()
        net = SynchronousNetwork(g, nodes, trace=trace)
        net.run()
        assert trace.max_sends_in_a_round() == 1
        # leaf v is the (v)-th message out: leaves round v-1, arrives v.
        for v in range(1, n):
            assert nodes[v].recv_rounds == [v]

    def test_recv_capacity_two_halves_the_time(self):
        n = 9
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        net = SynchronousNetwork(g, nodes, recv_capacity=2)
        stats = net.run()
        assert stats.rounds == (n - 1 + 1) // 2

    def test_fifo_per_link(self):
        """Messages on one link are delivered in send order."""
        g = path_graph(2)
        nodes = {0: Sender(0, [(1, f"m{i}") for i in range(5)]), 1: Sender(1)}
        SynchronousNetwork(g, nodes).run()
        assert [m.kind for m in nodes[1].received] == [f"m{i}" for i in range(5)]

    def test_arbitration_deterministic_by_send_time_then_seq(self):
        """Simultaneous arrivals are served oldest-first, then by creation."""
        g = star_graph(4)
        nodes = {v: Sender(v) for v in range(4)}
        for v in (3, 2, 1):  # creation order 3, 2, 1 by on_start node order 1,2,3
            nodes[v].sends = [(0, "x")]
        SynchronousNetwork(g, nodes).run()
        # on_start runs in node-id order, so seq order is 1, 2, 3.
        assert [m.src for m in nodes[0].received] == [1, 2, 3]

    def test_total_link_wait_accounts_contention(self):
        n = 5
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        net = SynchronousNetwork(g, nodes)
        stats = net.run()
        # waits are 0,1,2,3 for the four messages
        assert stats.total_link_wait == 0 + 1 + 2 + 3


class RelayNode(Node):
    """Forwards every received message along a fixed next pointer."""

    def __init__(self, node_id, nxt=None):
        super().__init__(node_id)
        self.nxt = nxt
        self.recv_rounds: list[int] = []

    def on_start(self, ctx):
        if self.node_id == 0 and self.nxt is not None:
            ctx.send(self.nxt, "hop")

    def on_receive(self, msg, ctx):
        self.recv_rounds.append(ctx.now)
        if self.nxt is not None:
            ctx.send(self.nxt, "hop")


class TestPipelines:
    def test_relay_chain_delay_equals_distance(self):
        n = 6
        g = path_graph(n)
        nodes = {v: RelayNode(v, nxt=v + 1 if v + 1 < n else None) for v in range(n)}
        stats = SynchronousNetwork(g, nodes).run()
        assert nodes[n - 1].recv_rounds == [n - 1]
        assert stats.rounds == n - 1

    def test_round_limit_exceeded(self):
        class PingPong(Node):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.send(1, "ping")

            def on_receive(self, msg, ctx):
                ctx.send(msg.src, "ping")

        g = path_graph(2)
        nodes = {0: PingPong(0), 1: PingPong(1)}
        with pytest.raises(RoundLimitExceeded) as exc:
            SynchronousNetwork(g, nodes).run(max_rounds=50)
        assert exc.value.max_rounds == 50
        assert exc.value.in_flight >= 1


class WakerNode(Node):
    def __init__(self, node_id, at=()):
        super().__init__(node_id)
        self.at = list(at)
        self.woke: list[int] = []

    def on_start(self, ctx):
        for t in self.at:
            ctx.schedule_wakeup(t)

    def on_wake(self, ctx):
        self.woke.append(ctx.now)


class TestWakeups:
    def test_wakeup_fires_at_scheduled_round(self):
        g = path_graph(2)
        nodes = {0: WakerNode(0, at=[3]), 1: WakerNode(1)}
        net = SynchronousNetwork(g, nodes)
        net.run()
        assert nodes[0].woke == [3]

    def test_idle_clock_jumps_to_next_wakeup(self):
        g = path_graph(2)
        nodes = {0: WakerNode(0, at=[1000]), 1: WakerNode(1)}
        net = SynchronousNetwork(g, nodes)
        stats = net.run(max_rounds=2000)
        assert nodes[0].woke == [1000]
        assert stats.rounds == 1000

    def test_past_wakeup_rejected(self):
        class BadWaker(Node):
            def on_start(self, ctx):
                ctx.schedule_wakeup(0)

        g = path_graph(2)
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, {0: BadWaker(0), 1: BadWaker(1)}).run()

    def test_multiple_nodes_wake_same_round(self):
        g = path_graph(3)
        nodes = {v: WakerNode(v, at=[2]) for v in range(3)}
        SynchronousNetwork(g, nodes).run()
        assert all(nodes[v].woke == [2] for v in range(3))

    def test_long_idle_schedule_executes_few_rounds(self):
        """A sparse wakeup schedule must cost work per *event*, not per round.

        The engine's next-event heap jumps the clock over idle stretches:
        wakeups at rounds 10^3, 10^6, 10^9 execute only a handful of
        rounds.  Asserting ``rounds_executed`` (not just the results)
        pins the jumping itself — a regression to linear scanning would
        still produce the right wake rounds, just astronomically slower.
        """
        marks = [1_000, 1_000_000, 1_000_000_000]
        g = path_graph(2)
        nodes = {0: WakerNode(0, at=marks), 1: WakerNode(1)}
        net = SynchronousNetwork(g, nodes)
        stats = net.run(max_rounds=2_000_000_000)
        assert nodes[0].woke == marks
        assert stats.rounds == marks[-1]
        # One executed round per wakeup event (the engine enters the loop
        # once per jump target), not one per clock tick.
        assert net.rounds_executed <= len(marks) + 1

    def test_wakeup_past_the_round_budget_never_runs(self):
        """The idle jump stops at ``max_rounds``: a run whose next wakeup
        lies beyond the budget raises instead of waking and finishing."""
        nodes = {0: WakerNode(0, at=[41]), 1: WakerNode(1)}
        with pytest.raises(RoundLimitExceeded):
            SynchronousNetwork(path_graph(2), nodes).run(max_rounds=40)
        assert nodes[0].woke == []

    def test_rounds_executed_counts_busy_rounds(self):
        n = 6
        g = path_graph(n)
        nodes = {v: RelayNode(v, nxt=v + 1 if v + 1 < n else None) for v in range(n)}
        net = SynchronousNetwork(g, nodes)
        stats = net.run()
        # A relay chain is busy every round: no jumps, executed == clock.
        assert net.rounds_executed == stats.rounds == n - 1


class CompletingNode(Node):
    def on_start(self, ctx):
        ctx.complete(("op", self.node_id), result=self.node_id * 10)


class TestCompletions:
    def test_completion_recorded_with_round_and_result(self):
        g = path_graph(2)
        net = SynchronousNetwork(g, {0: CompletingNode(0), 1: CompletingNode(1)})
        net.run()
        assert net.delays.delay_by_op() == {("op", 0): 0, ("op", 1): 0}
        assert net.delays.result_by_op() == {("op", 0): 0, ("op", 1): 10}

    def test_double_completion_rejected(self):
        class Doubler(Node):
            def on_start(self, ctx):
                ctx.complete("x")
                ctx.complete("x")

        g = path_graph(2)
        with pytest.raises(ProtocolViolation):
            SynchronousNetwork(g, {0: Doubler(0), 1: Doubler(1)}).run()


class TestGraphInputs:
    def test_accepts_adjacency_mapping(self):
        adj = {0: [1], 1: [0, 2], 2: [1]}
        nodes = {v: Sender(v) for v in range(3)}
        nodes[0].sends = [(1, "x")]
        net = SynchronousNetwork(adj, nodes)
        net.run()
        assert nodes[1].recv_rounds == [1]

    def test_accepts_edge_list(self):
        nodes = {v: Sender(v) for v in range(3)}
        nodes[2].sends = [(0, "x")]
        net = SynchronousNetwork([(0, 1), (1, 2), (0, 2)], nodes)
        net.run()
        assert nodes[0].recv_rounds == [1]

    def test_neighbors_sorted(self):
        net = SynchronousNetwork(
            complete_graph(4), {v: Sender(v) for v in range(4)}
        )
        assert net.neighbors(2) == (0, 1, 3)
        assert net.neighbor_set(0) == frozenset({1, 2, 3})
        assert net.node_ids == [0, 1, 2, 3]


class _MetricsWithoutSeries:
    """A registry look-alike missing ``series``."""

    def counter(self, name): ...
    def gauge(self, name): ...
    def histogram(self, name): ...


class TestHookTypes:
    @pytest.mark.parametrize(
        "hook, value, expected",
        [
            ("monitors", [ArrowInvariant()], "MonitorSet interface"),
            ("metrics", {}, "MetricsRegistry interface"),
            ("metrics", _MetricsWithoutSeries(), "lacks series"),
            ("trace", [], "EventTrace interface"),
            ("profiler", object(), "PhaseProfiler interface"),
        ],
        ids=["monitors-list", "metrics-dict", "metrics-no-series", "trace-list",
             "profiler-object"],
    )
    def test_wrong_typed_hook_rejected_before_round_0(self, hook, value, expected):
        """A hook lacking an attribute the engine uses fails in the
        constructor, naming the interface, before any node starts."""
        started = []

        class Starter(Node):
            def on_start(self, ctx):
                started.append(self.node_id)

        with pytest.raises(TypeError, match=expected):
            SynchronousNetwork(path_graph(3), {v: Starter(v) for v in range(3)},
                               **{hook: value})
        with pytest.raises(TypeError, match=f"^{hook}= expects"):
            run_flood_counting(path_graph(6), [1, 4], **{hook: value})
        assert started == []


class TestTraceSliceAndJson:
    """EventTrace windows and the JSON round-trip (resilience evidence)."""

    @staticmethod
    def _trace() -> EventTrace:
        from repro import run_central_counting
        from repro.topology import star_graph

        tr = EventTrace()
        run_central_counting(star_graph(8), range(8), trace=tr)
        return tr

    def test_slice_bounds_inclusive(self):
        tr = self._trace()
        window = tr.slice(2, 4)
        assert window.events
        assert all(2 <= e.round <= 4 for e in window.events)
        expected = [e for e in tr.events if 2 <= e.round <= 4]
        assert window.events == expected

    def test_slice_open_end(self):
        tr = self._trace()
        tail = tr.slice(3)
        assert tail.events == [e for e in tr.events if e.round >= 3]

    def test_slice_shares_frozen_events(self):
        tr = self._trace()
        window = tr.slice(0, tr.last_round())
        assert window.events == tr.events
        assert window.events[0] is tr.events[0]

    def test_json_roundtrip_restores_equality(self):
        tr = self._trace()
        back = EventTrace.from_json(tr.to_json())
        assert back.events == tr.events

    def test_json_roundtrip_preserves_tuples(self):
        from repro import path_spanning_tree, run_arrow
        from repro.topology import path_graph

        tr = EventTrace()
        run_arrow(path_spanning_tree(path_graph(6)), range(6), trace=tr)
        ops = [e.data["op"] for e in tr.of_kind("complete")]
        assert ops and all(isinstance(op, tuple) for op in ops)
        back = EventTrace.from_json(tr.to_json())
        assert [e.data["op"] for e in back.of_kind("complete")] == ops

    def test_json_roundtrip_nested_payloads(self):
        tr = EventTrace()
        tr.record("complete", 3, node=1, op=(("op", 2), [("op", 3), 4], {"k": (5, 6)}))
        back = EventTrace.from_json(tr.to_json())
        assert back.events == tr.events
        assert back.events[0].data["op"][0] == ("op", 2)


class TestFlatTraceLog:
    """EventTrace stores a flat log and builds TraceEvents on read."""

    @staticmethod
    def _record(tr: EventTrace, n: int, start: int = 0) -> None:
        for i in range(start, start + n):
            tr.record("deliver", i, src=i % 7, dst=(i + 1) % 7, kind="msg", wait=0)

    def test_atom_only_records_add_no_tracked_objects(self):
        import gc

        tr = EventTrace()
        self._record(tr, 10)  # the log list exists and has grown once
        gc.collect()
        before = len(gc.get_objects())
        self._record(tr, 10_000, start=10)
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert len(tr) == 10_010
        assert grown < 100, f"{grown} new GC-tracked objects for 10k events"

    def test_events_are_built_incrementally_and_keep_identity(self):
        tr = EventTrace()
        self._record(tr, 5)
        first = tr.events
        kept = list(first)
        self._record(tr, 3, start=5)
        again = tr.events
        assert [e.round for e in again] == list(range(8))
        assert all(a is b for a, b in zip(kept, again))
        assert again[0] == TraceEvent("deliver", 0, {"src": 0, "dst": 1, "kind": "msg", "wait": 0})

    def test_len_and_iteration(self):
        tr = EventTrace()
        assert len(tr) == 0 and list(tr) == []
        self._record(tr, 4)
        assert len(tr) == 4
        assert list(tr) == tr.events
        assert tr.last_round() == 3

    def test_slice_shares_events_built_on_read(self):
        tr = EventTrace()
        self._record(tr, 6)
        window = tr.slice(2, 3)
        assert len(window) == 2
        assert window.events[0] is tr.events[2]
        assert window.events[1] is tr.events[3]

    def test_json_round_trip_with_tuple_op_ids(self):
        tr = EventTrace()
        tr.record("complete", 4, node=1, op=("op", 1))
        tr.record("complete", 5, node=0, op=[("op", 2), 3])
        text = tr.to_json()
        back = EventTrace.from_json(text)
        assert back.events == tr.events
        assert back.events[0].data["op"] == ("op", 1)
        assert back.to_json() == text
        back.record("complete", 6, node=2, op=("op", 3))
        assert len(back) == 3 and back.events[-1].round == 6

    def test_events_setter_replaces_the_log(self):
        tr = EventTrace()
        self._record(tr, 3)
        events = [TraceEvent("crash", 9, {"node": 4})]
        tr.events = events
        assert len(tr) == 1
        assert tr.events[0] is events[0]
        assert tr.to_json() == '[["crash",9,{"node":4}]]'
        tr.record("recover", 12, node=4)
        assert [e.kind for e in tr] == ["crash", "recover"]

    def test_checkpoint_copies_a_partly_read_trace(self):
        """A trace read mid-run, deep-copied by a checkpoint, resumes to
        the uninterrupted run's JSON."""
        from repro import MonitorSet, PeriodicCheckpointer, run_central_counting
        from repro.resilience import InvariantMonitor

        class ReadsTrace(InvariantMonitor):
            def on_round(self, net):
                net.trace.events  # builds the cache the checkpoint copies

        full = EventTrace()
        run_central_counting(star_graph(8), range(8), trace=full)
        cpr = PeriodicCheckpointer(every=3, keep=20)
        tr = EventTrace()
        run_central_counting(
            star_graph(8), range(8), trace=tr,
            monitors=MonitorSet(invariants=(ReadsTrace(),), checkpointer=cpr),
        )
        assert tr.to_json() == full.to_json()
        assert len(cpr.checkpoints) > 2
        for cp in cpr.checkpoints:
            net = cp.restore()
            net.resume()
            assert net.trace.to_json() == full.to_json()
            assert net.trace.events == full.events



#: One record of every engine event type, with its fields as keywords in
#: the order EVENT_FIELDS gives them.
_ENGINE_RECORDS = [
    ("enqueue", 1, {"src": 0, "dst": 1, "kind": "req"}),
    ("send", 1, {"src": 0, "dst": 1, "kind": "req"}),
    ("duplicate", 1, {"src": 0, "dst": 1, "kind": "req"}),
    ("deliver", 2, {"src": 0, "dst": 1, "kind": "req", "wait": 0}),
    ("drop", 3, {"src": 1, "dst": 0, "kind": "ack", "reason": "outage"}),
    ("complete", 4, {"node": 1, "op": ("op", 1)}),
    ("deliver", 5, {"src": 2, "dst": 1, "kind": "queue", "wait": 3}),
    ("complete", 6, {"node": 2, "op": 7}),
]


class TestPositionalTraceRecords:
    """Positional engine records read exactly like keyword records."""

    @staticmethod
    def _traces(records=_ENGINE_RECORDS, positional=lambda i: True):
        pos, kw = EventTrace(), EventTrace()
        for i, (event, round_, data) in enumerate(records):
            if positional(i):
                pos.record(event, round_, *data.values())
            else:
                pos.record(event, round_, **data)
            kw.record(event, round_, **data)
        return pos, kw

    def test_events_and_json_match_keyword_records(self):
        pos, kw = self._traces()
        assert pos.events == kw.events
        assert [e.data for e in pos.events] == [d for _, _, d in _ENGINE_RECORDS]
        assert pos.to_json() == kw.to_json()
        assert len(pos) == len(kw) == len(_ENGINE_RECORDS)
        assert pos.last_round() == kw.last_round() == 6

    def test_json_round_trip(self):
        pos, kw = self._traces()
        text = pos.to_json()
        back = EventTrace.from_json(text)
        assert back.events == kw.events
        assert back.to_json() == text
        assert back.events[5].data["op"] == ("op", 1)

    def test_slices_match(self):
        pos, kw = self._traces()
        for start, end in [(0, None), (1, 1), (2, 4), (4, 6), (7, None)]:
            a, b = pos.slice(start, end), kw.slice(start, end)
            assert a.events == b.events
            assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_copy_of_a_partly_read_trace(self, clone):
        half = len(_ENGINE_RECORDS) // 2
        pos, _ = self._traces(_ENGINE_RECORDS[:half])
        read = list(pos.events)  # the cache now covers the first half
        twin = clone(pos)
        for t in (pos, twin):
            for event, round_, data in _ENGINE_RECORDS[half:]:
                t.record(event, round_, *data.values())
        _, kw = self._traces()
        assert twin.events == pos.events == kw.events
        assert twin.to_json() == pos.to_json() == kw.to_json()
        assert all(a is b for a, b in zip(read, pos.events))

    def test_mixed_log_reads_like_keyword_records(self):
        for parity in (0, 1):
            mixed, kw = self._traces(positional=lambda i: i % 2 == parity)
            mixed.record("crash", 7, node=3)
            kw.record("crash", 7, node=3)
            assert mixed.events == kw.events
            assert mixed.to_json() == kw.to_json()
            assert EventTrace.from_json(mixed.to_json()).events == kw.events

    def test_engine_run_matches_a_keyword_trace(self):
        """A traced lossy run, re-recorded with keywords, is the same trace."""
        tr = EventTrace()
        run_flood_counting_ft(ring_graph(8), range(8), _lossy_plan(2), trace=tr)
        kinds = {e.kind for e in tr.events}
        assert {"enqueue", "send", "duplicate", "deliver", "drop", "complete"} <= kinds
        kw = EventTrace()
        for e in tr.events:
            kw.record(e.kind, e.round, **e.data)
        assert kw.to_json() == tr.to_json()

    def test_positional_records_trigger_no_collection(self):
        """A record leaves no new GC object alive, so recording never
        starts a collection pass."""
        tr = EventTrace()
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        for i in range(10_000):
            tr.record("deliver", i, i % 7, (i + 1) % 7, "msg", 0)
        assert gc.get_stats()[0]["collections"] == before
        assert len(tr) == 10_000

    def test_positional_record_of_unknown_event_fails_loudly(self):
        tr = EventTrace()
        with pytest.raises(ValueError, match="'foo'"):
            tr.record("foo", 3, 1, 2)
        with pytest.raises(ValueError, match="'send' takes 3"):
            tr.record("send", 3, 1, 2)
        with pytest.raises(TypeError, match="mixes"):
            tr.record("send", 3, 1, 2, kind="x")
        with pytest.raises(ValueError, match="'foo'"):
            tr.record("foo", 3, a=1)
        with pytest.raises(ValueError, match="unknown \\['knd'\\]"):
            tr.record("send", 3, src=1, dst=2, knd="x")
        with pytest.raises(ValueError, match="missing \\['reason'\\]"):
            tr.record("drop", 3, src=1, dst=2, kind="x")
        with pytest.raises(ValueError, match="'foo'"):
            tr.events = [TraceEvent("foo", 3, {"a": 1})]
        assert len(tr) == 0
        tr.record("send", 3, kind="x", dst=2, src=1)  # keywords in any order
        assert tr.events == [TraceEvent("send", 3, {"src": 1, "dst": 2, "kind": "x"})]
        assert tr.to_json() == '[["send",3,{"src":1,"dst":2,"kind":"x"}]]'



def _lossy_plan(seed):
    return FaultPlan(seed=seed, drop_rate=0.05, duplicate_rate=0.02, max_consecutive_drops=2)


def _observed(invariant, k):
    """A registry, a trace and monitors (invariant plus watchdog) as kwargs."""
    return dict(
        metrics=MetricsRegistry(),
        trace=EventTrace(),
        monitors=MonitorSet(
            invariants=(invariant,),
            watchdog=Watchdog(stall_window=500, expected_completions=k),
        ),
    )


#: One finishing run per runner; the result is dropped on return.
RUNNERS = {
    "flood": lambda: run_flood_counting(path_graph(16), range(0, 16, 2)),
    "central": lambda: run_central_counting(star_graph(9), range(9)),
    "combining": lambda: run_combining_counting(
        bfs_spanning_tree(mesh_graph([3, 3])), range(9)
    ),
    "arrow": lambda: run_arrow(path_spanning_tree(path_graph(8)), range(8)),
    "counting_network": lambda: run_counting_network(complete_graph(8), range(8)),
    "periodic": lambda: run_periodic_counting(complete_graph(8), range(8)),
    "sweep": lambda: run_sweep_counting(path_graph(8), range(8)),
    "flood_ft": lambda: run_flood_counting_ft(
        ring_graph(16), range(0, 16, 2), _lossy_plan(1),
        **_observed(CountingInvariant(expected=8), 8),
    ),
    "central_ft": lambda: run_central_counting_ft(
        star_graph(12), range(12), _lossy_plan(2),
        **_observed(CountingInvariant(expected=12), 12),
    ),
    "arrow_ft": lambda: run_arrow_ft(
        path_spanning_tree(path_graph(16)), range(0, 16, 4), _lossy_plan(3),
        **_observed(ArrowInvariant(), 4),
    ),
}


class TestFinishedRunsFreed:
    """A finished run holds no reference cycle: reference counting frees
    its network (nodes, contexts, queues) as soon as the runner returns,
    without waiting for a cyclic-GC pass."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Weak references to every network constructed from here on."""
        refs = []
        init = SynchronousNetwork.__init__

        def tracking_init(net, *args, **kwargs):
            init(net, *args, **kwargs)
            refs.append(weakref.ref(net))

        monkeypatch.setattr(SynchronousNetwork, "__init__", tracking_init)
        return refs

    @staticmethod
    def _without_gc(fn):
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn()
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("runner", list(RUNNERS))
    def test_network_dead_after_runner_returns(self, built, runner):
        def check():
            RUNNERS[runner]()
            assert built, "the runner built no network"
            return [r() is None for r in built]

        assert all(self._without_gc(check))

    def test_restored_checkpoint_dead_after_resume(self):
        cpr = PeriodicCheckpointer(every=4, keep=2)
        run_flood_counting(path_graph(12), range(12), monitors=MonitorSet(checkpointer=cpr))
        cp = cpr.latest()

        def check():
            net = cp.restore()
            ref = weakref.ref(net)
            net.resume()
            del net
            return ref() is None

        assert self._without_gc(check)

    @pytest.mark.parametrize("ids", [range(3), (0, 2, 5)], ids=["dense", "generic"])
    def test_context_detached_at_quiescence(self, ids):
        a, b, c = ids
        nodes = {v: Sender(v) for v in ids}
        nodes[a].sends = [(b, "x")]
        adj = {a: [b], b: [a, c], c: [b]}
        if c != 2:  # ids other than 0..n-1 are rejected
            with pytest.raises(ProtocolViolation):
                SynchronousNetwork(adj, nodes)
            return
        net = SynchronousNetwork(adj, nodes)
        ctx = net.context(a)
        net.run()
        assert nodes[b].recv_rounds == [1]
        assert ctx._network is None

    def test_raised_run_keeps_its_contexts(self):
        nodes = {v: RelayNode(v, nxt=v + 1 if v + 1 < 6 else None) for v in range(6)}
        net = SynchronousNetwork(path_graph(6), nodes)
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=2)
        assert net.context(0)._network is net


class EchoNode(Node):
    """Bounces a hop counter along its path; keeps every sent message
    and a constructor-built twin made right after ``ctx.send`` returned."""

    def __init__(self, node_id, hops=0):
        super().__init__(node_id)
        self.hops = hops
        self.sent: list[tuple[Message, Message, dict]] = []
        self.received: list[Message] = []

    def _send(self, ctx, dst, payload):
        msg = ctx.send(dst, "echo", payload=payload)
        twin = Message(self.node_id, dst, "echo", payload, -1, -1, -1, msg.seq)
        slots = {name: getattr(msg, name) for name in Message.__slots__}
        self.sent.append((msg, twin, slots))

    def on_start(self, ctx):
        if self.hops:
            for dst in ctx.neighbors:
                self._send(ctx, dst, (self.node_id, self.hops))

    def on_receive(self, msg, ctx):
        self.received.append(msg)
        origin, hops = msg.payload
        if hops > 1:
            self._send(ctx, msg.src, (origin, hops - 1))


def _echo_net(trace=None, monitors=None):
    nodes = {v: EchoNode(v, hops=9 if v in (0, 3) else 0) for v in range(5)}
    net = SynchronousNetwork(path_graph(5), nodes, trace=trace, monitors=monitors)
    return net, nodes


class TestEngineBuiltMessages:
    """The engine's enqueue builds messages without the class call; they
    must be indistinguishable from constructor-built ones."""

    def test_equal_to_constructor_built_when_send_returns(self):
        net, nodes = _echo_net()
        net.run()
        sent = [entry for node in nodes.values() for entry in node.sent]
        assert sent
        for msg, twin, slots in sent:
            assert type(msg) is Message
            assert slots == {name: getattr(twin, name) for name in Message.__slots__}
            assert slots["sent_at"] == slots["ready_at"] == slots["delivered_at"] == -1
        # creation numbers are unique and dense
        assert sorted(msg.seq for msg, _, _ in sent) == list(range(len(sent)))

    def test_delivered_messages_behave_like_constructor_built(self):
        net, nodes = _echo_net()
        net.run()
        for node in nodes.values():
            for msg in node.received:
                twin = Message(msg.src, msg.dst, msg.kind, msg.payload,
                               msg.sent_at, msg.ready_at, msg.delivered_at, msg.seq)
                assert msg == twin and repr(msg) == repr(twin)
                assert msg.link_wait() == twin.link_wait() >= 0
                assert pickle.loads(pickle.dumps(msg)) == msg
                assert copy.deepcopy(msg) == msg
                assert repr(copy.deepcopy(msg)) == repr(msg)
        assert sum(len(n.received) for n in nodes.values()) == net.stats.messages_delivered

    def test_mid_run_checkpoint_restores_resumes_and_pickles(self):
        ref_trace = EventTrace()
        ref, _ = _echo_net(trace=ref_trace)
        ref_stats = ref.run()

        cpr = PeriodicCheckpointer(every=3, keep=10)
        trace = EventTrace()
        net, _ = _echo_net(trace=trace, monitors=MonitorSet(checkpointer=cpr))
        assert net.run() == ref_stats
        mid = [cp for cp in cpr.checkpoints if 0 < cp.round < ref_stats.rounds]
        assert mid, "no checkpoint was taken mid-run"
        for cp in mid:
            for copy_ in (cp, pickle.loads(pickle.dumps(cp))):
                restored = copy_.restore()
                assert restored._in_flight > 0
                assert restored.resume() == ref_stats
                assert restored.trace.to_json() == ref_trace.to_json()
