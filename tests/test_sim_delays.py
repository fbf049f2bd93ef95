"""Link-delay models and engine behaviour under asynchrony."""

from __future__ import annotations

import pytest

from repro.sim import (
    ConstantDelay,
    KindDelay,
    Node,
    SynchronousNetwork,
    TargetedDelay,
    UniformDelay,
)
from repro.sim.message import Message
from repro.topology import path_graph, star_graph


class Sender(Node):
    def __init__(self, node_id, sends=()):
        super().__init__(node_id)
        self.sends = list(sends)
        self.recv_rounds: list[int] = []
        self.recv_kinds: list[str] = []

    def on_start(self, ctx):
        for dst, kind in self.sends:
            ctx.send(dst, kind)

    def on_receive(self, msg, ctx):
        self.recv_rounds.append(ctx.now)
        self.recv_kinds.append(msg.kind)


class TestDelayModels:
    def test_constant_default_is_unit(self):
        assert ConstantDelay()(Message(0, 1, "x")) == 1

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantDelay(0)

    def test_uniform_range_and_determinism(self):
        model = UniformDelay(2, 5, seed=1)
        msgs = [Message(0, 1, "x", seq=i) for i in range(200)]
        ds = [model(m) for m in msgs]
        assert all(2 <= d <= 5 for d in ds)
        assert ds == [UniformDelay(2, 5, seed=1)(m) for m in msgs]
        assert len(set(ds)) > 1  # actually varies

    def test_uniform_seed_changes_draws(self):
        msgs = [Message(0, 1, "x", seq=i) for i in range(50)]
        a = [UniformDelay(1, 9, seed=0)(m) for m in msgs]
        b = [UniformDelay(1, 9, seed=1)(m) for m in msgs]
        assert a != b

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(0, 3)
        with pytest.raises(ValueError):
            UniformDelay(5, 3)

    def test_targeted(self):
        model = TargetedDelay(frozenset({(0, 1)}), slow=7)
        assert model(Message(0, 1, "x")) == 7
        assert model(Message(1, 0, "x")) == 1
        with pytest.raises(ValueError):
            TargetedDelay(frozenset(), slow=0)

    def test_kind_delay(self):
        model = KindDelay((("queue", 4),), default=2)
        assert model(Message(0, 1, "queue")) == 4
        assert model(Message(0, 1, "reply")) == 2


class TestEngineUnderDelays:
    def test_constant_delay_shifts_arrival(self):
        g = path_graph(2)
        nodes = {0: Sender(0, [(1, "x")]), 1: Sender(1)}
        net = SynchronousNetwork(g, nodes, delay_model=ConstantDelay(5))
        stats = net.run()
        assert nodes[1].recv_rounds == [5]
        assert stats.rounds == 5

    def test_clock_jumps_over_idle_stretch(self):
        g = path_graph(2)
        nodes = {0: Sender(0, [(1, "x")]), 1: Sender(1)}
        net = SynchronousNetwork(g, nodes, delay_model=ConstantDelay(1000))
        net.run(max_rounds=2000)
        assert nodes[1].recv_rounds == [1000]

    def test_fifo_preserved_under_variable_delays(self):
        """A fast message behind a slow one still arrives after it."""

        class TwoKinds(Sender):
            def on_start(self, ctx):
                ctx.send(1, "slow")
                ctx.send(1, "fast")

        g = path_graph(2)
        nodes = {0: TwoKinds(0), 1: Sender(1)}
        model = KindDelay((("slow", 9), ("fast", 1)))
        net = SynchronousNetwork(g, nodes, delay_model=model)
        net.run()
        assert nodes[1].recv_kinds == ["slow", "fast"]
        # slow sent at round 0 arrives at 9; fast (sent round 1, ready at 2)
        # waits behind it on the FIFO link.
        assert nodes[1].recv_rounds[0] == 9
        assert nodes[1].recv_rounds[1] == 10

    def test_contention_still_serialises_under_delays(self):
        n = 6
        g = star_graph(n)
        nodes = {v: Sender(v) for v in range(n)}
        for v in range(1, n):
            nodes[v].sends = [(0, "x")]
        net = SynchronousNetwork(g, nodes, delay_model=ConstantDelay(3))
        net.run()
        # all ready at round 3; hub receives one per round after that
        assert nodes[0].recv_rounds == [3, 4, 5, 6, 7]


class TestProtocolsUnderDelays:
    def test_arrow_correct_under_uniform_delays(self):
        from repro.arrow import run_arrow
        from repro.core.verify import verify_queuing
        from repro.topology.spanning import path_spanning_tree

        st = path_spanning_tree(path_graph(16))
        res = run_arrow(st, range(16), delay_model=UniformDelay(1, 4, seed=3))
        verify_queuing(range(16), res.predecessors, tail=0)

    def test_counting_correct_under_uniform_delays(self):
        from repro.counting import run_central_counting, run_flood_counting
        from repro.topology import complete_graph

        g = complete_graph(10)
        model = UniformDelay(1, 3, seed=5)
        for runner in (run_central_counting, run_flood_counting):
            r = runner(g, range(10), delay_model=model)
            assert sorted(r.counts.values()) == list(range(1, 11))

    def test_delays_scale_with_constant_slowdown(self):
        from repro.arrow import run_arrow
        from repro.topology.spanning import path_spanning_tree

        st = path_spanning_tree(path_graph(32))
        base = run_arrow(st, range(32))
        slow = run_arrow(st, range(32), delay_model=ConstantDelay(3))
        assert slow.total_delay == 3 * base.total_delay
