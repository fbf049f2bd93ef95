"""The resilience layer: invariant monitors, watchdog, checkpoint/restore.

The monitors are validated the only honest way — against *mutant*
protocols seeded with real bugs (duplicate ranks, a forked arrow queue,
a duplicated token) that the matching invariant must catch at the right
round, while the healthy protocols run monitored against the golden
fixtures untouched.  Checkpoints must restore to the byte-identical
remainder of the original trace under every delay model, and the
watchdog must turn hangs into diagnoses instead of round-limit errors.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import (
    ConstantDelay,
    MonitorSet,
    PeriodicCheckpointer,
    UniformDelay,
    Watchdog,
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    path_graph,
    path_spanning_tree,
    run_arrow,
    run_central_counting,
    run_flood_counting,
    run_object_directory,
    run_token_mutex,
    star_graph,
)
from repro.arrow.protocol import ArrowNode
from repro.faults import FaultPlan, NodeCrash
from repro.resilience import (
    ArrowInvariant,
    Checkpoint,
    CountingInvariant,
    InvariantMonitor,
    TokenInvariant,
)
from repro.sim import EventTrace, SynchronousNetwork
from repro.sim.errors import InvariantViolation, ProtocolViolation, StallDetected
from repro.topology import next_hops_toward

GOLDEN_DIR = Path(__file__).parent / "golden"


# ----------------------------------------------------- mutants trip invariants


class TestCountingInvariant:
    def test_duplicate_rank_mutant_caught(self, monkeypatch):
        """A counter that hands out rank 2 twice is caught on the second
        completion, naming both holders."""
        import repro.counting.central as central_mod

        class DupRank(central_mod._CentralNode):
            def _value(self, origin, increment):
                return min(super()._value(origin, increment), 2)  # ranks collide at 2

        monkeypatch.setattr(central_mod, "_CentralNode", DupRank)
        mon = MonitorSet(invariants=(CountingInvariant(expected=5),))
        with pytest.raises(InvariantViolation) as ei:
            run_central_counting(star_graph(5), range(5), monitors=mon)
        exc = ei.value
        assert exc.invariant == "counting.rank-uniqueness"
        assert len(exc.nodes) == 2
        assert "rank 2" in str(exc)

    def test_out_of_range_rank_caught(self, monkeypatch):
        import repro.counting.central as central_mod

        class Overflow(central_mod._CentralNode):
            def _value(self, origin, increment):
                return super()._value(origin, increment) + 100

        monkeypatch.setattr(central_mod, "_CentralNode", Overflow)
        mon = MonitorSet(invariants=(CountingInvariant(expected=4),))
        with pytest.raises(InvariantViolation, match="outside"):
            run_central_counting(star_graph(4), range(4), monitors=mon)

    def test_violation_carries_trace_slice(self, monkeypatch):
        import repro.counting.central as central_mod

        class DupRank(central_mod._CentralNode):
            def _value(self, origin, increment):
                return min(super()._value(origin, increment), 2)

        monkeypatch.setattr(central_mod, "_CentralNode", DupRank)
        tr = EventTrace()
        mon = MonitorSet(invariants=(CountingInvariant(expected=5),))
        with pytest.raises(InvariantViolation) as ei:
            run_central_counting(star_graph(5), range(5), trace=tr, monitors=mon)
        sl = ei.value.trace_slice
        assert sl is not None
        assert sl.events  # evidence window is non-empty
        assert all(e.round <= ei.value.round for e in sl.events)

    def test_density_checked_at_finish(self):
        """Too few completions is a missing-rank violation at quiescence."""
        mon = MonitorSet(invariants=(CountingInvariant(expected=7),))
        with pytest.raises(InvariantViolation, match="missing"):
            # only 4 of the promised 7 requesters exist
            run_central_counting(star_graph(7), range(4), monitors=mon)


class TestArrowInvariant:
    def _net(self, links: dict[int, int], n: int = 4) -> SynchronousNetwork:
        nodes = {
            v: ArrowNode(v, link=links.get(v, 0), issue_at=None)
            for v in range(n)
        }
        return SynchronousNetwork(
            path_graph(n),
            nodes,
            send_capacity=2,
            recv_capacity=2,
            monitors=MonitorSet(invariants=(ArrowInvariant(),)),
        )

    def test_two_sinks_caught_at_round_zero(self):
        # 0 and 3 both point at themselves: a forked queue from the start.
        with pytest.raises(InvariantViolation) as ei:
            self._net({0: 0, 1: 0, 2: 3, 3: 3}).run()
        assert ei.value.invariant == "arrow.single-sink"
        assert ei.value.round == 0
        assert ei.value.nodes == (0, 3)

    def test_pointer_off_tree_caught(self):
        # node 2 points at non-neighbor 0 (path edges are only {i, i+1}).
        with pytest.raises(InvariantViolation, match="non-neighbor"):
            self._net({0: 0, 1: 0, 2: 0, 3: 2}).run()

    def test_no_sink_caught(self):
        # a pointer cycle with no self-link: the queue tail vanished.
        with pytest.raises(InvariantViolation, match="tail is lost"):
            self._net({0: 1, 1: 0, 2: 1, 3: 2}).run()

    def test_healthy_arrow_passes(self):
        mon = MonitorSet(invariants=(ArrowInvariant(),))
        r = run_arrow(path_spanning_tree(path_graph(8)), range(8), monitors=mon)
        assert sorted(r.order()) == list(range(8))

    def test_rows_resolved_per_network(self):
        """A non-neighbor link planted in a restored checkpoint's network
        is caught by the invariant that already checked the original."""
        inv = ArrowInvariant()
        cpr = PeriodicCheckpointer(every=1, keep=50)
        run_arrow(
            path_spanning_tree(path_graph(8)), range(8),
            monitors=MonitorSet(invariants=(inv,), checkpointer=cpr),
        )
        restored = cpr.checkpoints[-1].restore()
        inv.on_round(restored)  # the captured state is healthy
        restored.node(5).link = 0  # path neighbors of 5 are 4 and 6
        with pytest.raises(InvariantViolation, match="non-neighbor 0"):
            inv.on_round(restored)

    def test_checkpoint_with_invariant_saves_and_resumes(self, tmp_path):
        """The invariant's weak network reference stays out of a saved
        checkpoint; the loaded copy re-resolves its rows and finishes."""
        cpr = PeriodicCheckpointer(every=4, keep=1)
        ref = run_arrow(
            path_spanning_tree(path_graph(16)), [15],
            monitors=MonitorSet(invariants=(ArrowInvariant(),), checkpointer=cpr),
        )
        assert cpr.latest().round > 0  # taken after the rows were resolved
        path = tmp_path / "arrow.ckpt"
        cpr.latest().save(path)
        net = Checkpoint.load(path).restore()
        net.resume()
        assert net.stats == ref.stats

    def test_nodes_without_link_are_skipped(self):
        from repro.sim import Node

        class Plain(Node):
            pass

        nodes = {0: ArrowNode(0, link=0, issue_at=None),
                 1: ArrowNode(1, link=0, issue_at=None),
                 2: Plain(2), 3: Plain(3)}
        inv = ArrowInvariant()
        net = SynchronousNetwork(path_graph(4), nodes, monitors=MonitorSet(invariants=(inv,)))
        net.run()
        nodes[1].link = None  # a link that is unset this round is skipped too
        inv.on_round(net)
        nodes[1].link = 3
        with pytest.raises(InvariantViolation, match="non-neighbor 3"):
            inv.on_round(net)


class _PlantLink(InvariantMonitor):
    """Sets ``node(v).link`` to ``link`` at the end of round ``at``."""

    def __init__(self, at: int, v: int, link: int) -> None:
        self.at, self.v, self.link = at, v, link

    def on_round(self, net):
        if net.now == self.at:
            node = net.node(self.v)
            getattr(node, "inner", node).link = self.link


class TestArrowInvariantMidRun:
    @pytest.mark.parametrize("faulty", [False, True], ids=["plain", "reliable"])
    def test_bad_link_planted_at_an_idle_node_is_caught(self, faulty):
        """The only request starts at 15 and walks toward the tail at 0,
        so at round 2 node 3 has neither sent nor received anything: the
        invariant scans it anyway and catches the planted link."""
        options = {}
        if faulty:
            from repro.faults import RetryPolicy

            options = {"faults": FaultPlan(seed=2, drop_rate=0.1),
                       "reliable": RetryPolicy()}
        trace = EventTrace()
        mon = MonitorSet(invariants=(_PlantLink(2, 3, 7), ArrowInvariant()))
        with pytest.raises(InvariantViolation, match="node 3's arrow points at non-neighbor 7") as ei:
            run_arrow(path_spanning_tree(path_graph(16)), [15], trace=trace,
                      monitors=mon, **options)
        assert ei.value.round == 2 and ei.value.nodes == (3,)
        acted = {v for e in trace.events if e.round == 2
                 for v in (e.data.get("src"), e.data.get("dst"))}
        assert 3 not in acted


class TestTokenInvariant:
    def test_duplicated_token_caught(self, monkeypatch):
        import repro.directory.protocol as directory_mod

        class KeepToken(directory_mod._TokenNode):
            def _send_token(self, dest, ctx):
                # BUG: has_token is set again when the token leaves -> the
                # old holder and the in-flight token coexist
                self.has_token = True
                super()._send_token(dest, ctx)

        monkeypatch.setattr(directory_mod, "_TokenNode", KeepToken)
        mon = MonitorSet(invariants=(TokenInvariant(),))
        with pytest.raises(InvariantViolation) as ei:
            run_token_mutex(bfs_spanning_tree(complete_graph(5)), range(5),
                            monitors=mon)
        assert ei.value.invariant == "mutex.token-uniqueness"
        assert "duplicated" in str(ei.value)

    def test_healthy_mutex_passes(self):
        mon = MonitorSet(invariants=(TokenInvariant(),))
        out = run_token_mutex(bfs_spanning_tree(complete_graph(6)), range(6),
                              monitors=mon)
        assert out.mutual_exclusion_holds()


# ------------------------------------------- monitors do not perturb the run


class TestTransparency:
    """Monitored healthy runs match the golden fixtures byte for byte."""

    @staticmethod
    def _golden(name: str):
        with open(GOLDEN_DIR / f"{name}.json") as fh:
            return json.load(fh)

    def test_monitored_arrow_matches_golden(self):
        tr = EventTrace()
        mon = MonitorSet(
            invariants=(ArrowInvariant(),), watchdog=Watchdog(expected_completions=8)
        )
        run_arrow(path_spanning_tree(path_graph(8)), range(8), trace=tr,
                  monitors=mon)
        golden = self._golden("arrow")["events"]
        got = json.loads(json.dumps(
            [[e.kind, e.round, e.data] for e in tr.events]))
        assert got == golden

    def test_monitored_flood_matches_golden(self):
        tr = EventTrace()
        mon = MonitorSet(
            invariants=(CountingInvariant(expected=9),),
            watchdog=Watchdog(expected_completions=9),
            checkpointer=PeriodicCheckpointer(every=5),
        )
        run_flood_counting(mesh_graph([3, 3]), range(9), trace=tr, monitors=mon)
        golden = self._golden("flood")["events"]
        got = json.loads(json.dumps(
            [[e.kind, e.round, e.data] for e in tr.events]))
        assert got == golden

    def test_monitors_metrics_counters(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        mon = MonitorSet(invariants=(CountingInvariant(expected=6),), metrics=reg)
        run_central_counting(star_graph(6), range(6), monitors=mon)
        doc = reg.to_dict()
        assert doc["counters"]["resilience.rounds_checked"] > 0
        assert "resilience.violations" not in doc["counters"]


# ------------------------------------------------------------------ watchdog


class TestWatchdog:
    def test_deadlock_diagnosed_with_stuck_nodes(self):
        """A permanent crash without retries quiesces or stalls; either way
        the diagnosis must name the dead relay, not just give up."""
        plan = FaultPlan(seed=1, crashes=(NodeCrash(node=1, start=0, end=None),))
        mon = MonitorSet(watchdog=Watchdog(stall_window=50, expected_completions=4))
        with pytest.raises(StallDetected) as ei:
            run_central_counting(path_graph(4), range(4), faults=plan, monitors=mon)
        exc = ei.value
        assert exc.kind in ("stall", "deadlock")
        assert 1 in exc.pending_nodes
        assert "node" in str(exc)

    def test_finite_crash_does_not_trip(self):
        """Scheduled downtime pauses the windows: a short crash with a
        small stall window still completes cleanly."""
        from repro.faults import run_central_counting_ft

        plan = FaultPlan(seed=2, crashes=(NodeCrash(node=1, start=2, end=6),))
        mon = MonitorSet(watchdog=Watchdog(stall_window=3, expected_completions=4))
        r = run_central_counting_ft(path_graph(4), range(4), plan, monitors=mon)
        assert sorted(r.counts.values()) == [1, 2, 3, 4]

    def test_oldest_undelivered_in_diagnosis(self):
        plan = FaultPlan(seed=1, crashes=(NodeCrash(node=1, start=0, end=None),))
        mon = MonitorSet(watchdog=Watchdog(stall_window=50, expected_completions=4))
        with pytest.raises(StallDetected) as ei:
            run_central_counting(path_graph(4), range(4), faults=plan, monitors=mon)
        assert ei.value.oldest is not None

    def test_windows_validated(self):
        with pytest.raises(ValueError):
            Watchdog(stall_window=0)


# ------------------------------------------------------- checkpoint / restore


class _FinalStats(InvariantMonitor):
    """Keeps a copy of the engine's stats at quiescence."""

    def on_finish(self, net):
        self.stats = copy.copy(net.stats)


class TestCheckpoint:
    @pytest.mark.parametrize(
        "delay_model",
        [None, ConstantDelay(2), UniformDelay(1, 4, seed=5)],
        ids=["unit", "constant", "uniform"],
    )
    def test_restore_resumes_byte_identically(self, delay_model):
        t_full = EventTrace()
        run_central_counting(star_graph(8), range(8), trace=t_full,
                             delay_model=delay_model)
        cpr = PeriodicCheckpointer(every=3, keep=20)
        t = EventTrace()
        run_central_counting(star_graph(8), range(8), trace=t,
                             delay_model=delay_model,
                             monitors=MonitorSet(checkpointer=cpr))
        assert t.events == t_full.events
        assert cpr.checkpoints
        for cp in cpr.checkpoints:
            restored = cp.restore()
            restored.resume()
            assert restored.trace.events == t_full.events, (
                f"resume from round {cp.round} diverged"
            )

    def test_warm_routing_cache_is_shared_not_copied(self, tmp_path):
        """The directory routes on tables cached on the graph.  A
        checkpoint shares that immutable graph instead of copying it,
        resumes exactly, and saves no routing table."""

        def run(graph, checkpointer=None):
            t, final = EventTrace(), _FinalStats()
            run_object_directory(
                graph, bfs_spanning_tree(graph), range(0, 12, 3), trace=t,
                monitors=MonitorSet(invariants=(final,), checkpointer=checkpointer),
            )
            return t.to_json(), final.stats

        ref_trace, ref_stats = run(mesh_graph([3, 4]))
        g = mesh_graph([3, 4])
        for dest in g.vertices():
            next_hops_toward(g, dest)
        cpr = PeriodicCheckpointer(every=2, keep=50)
        assert run(g, cpr) == (ref_trace, ref_stats)
        assert len(cpr.checkpoints) > 2
        for cp in cpr.checkpoints:
            net = cp.restore()
            assert net.node(0).graph is g
            assert net.resume() == ref_stats
            assert net.trace.to_json() == ref_trace

        cold = mesh_graph([3, 4])
        cpr = PeriodicCheckpointer(every=100, keep=1)
        run(cold, cpr)
        before = tmp_path / "before.ckpt"
        cpr.latest().save(before)
        for dest in cold.vertices():
            next_hops_toward(cold, dest)
        after = tmp_path / "after.ckpt"
        cpr.latest().save(after)
        assert after.stat().st_size == before.stat().st_size
        loaded = Checkpoint.load(after).restore()
        assert "_next_hops" not in vars(loaded.node(0).graph)

    def test_restore_twice_is_independent(self):
        cpr = PeriodicCheckpointer(every=4, keep=4)
        t = EventTrace()
        run_flood_counting(mesh_graph([2, 3]), range(6), trace=t,
                           monitors=MonitorSet(checkpointer=cpr))
        cp = cpr.latest()
        a, b = cp.restore(), cp.restore()
        a.resume()
        assert a.trace.events == t.events
        b.resume()  # second restore starts from the same snapshot
        assert b.trace.events == t.events

    def test_save_load_roundtrip(self, tmp_path):
        cpr = PeriodicCheckpointer(every=4, keep=4)
        run_central_counting(star_graph(6), range(6),
                             trace=EventTrace(),
                             monitors=MonitorSet(checkpointer=cpr))
        cp = cpr.latest()
        path = tmp_path / "snap.ckpt"
        cp.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.round == cp.round
        net = loaded.restore()
        net.resume()
        assert len(net.delays) == 6

    def test_load_rejects_wrong_payload(self, tmp_path):
        import pickle

        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(TypeError):
            Checkpoint.load(path)

    @pytest.mark.parametrize("pickled", [False, True], ids=["copy", "pickle"])
    def test_resumed_copy_writes_only_its_own_trace_and_registry(self, pickled):
        """A checkpoint of a traced, metered, faulty run resumes into its own
        trace and registry: the original's documents stay as they were, and
        the copy's equal those of the uninterrupted run."""
        import pickle

        from repro.faults import run_flood_counting_ft
        from repro.obs import MetricsRegistry

        plan = FaultPlan(seed=4, drop_rate=0.1, duplicate_rate=0.1,
                         crashes=(NodeCrash(2, 5, 12),))
        reg, trace = MetricsRegistry(), EventTrace()
        cpr = PeriodicCheckpointer(every=25, keep=20)
        run_flood_counting_ft(
            mesh_graph([2, 4]), range(8), plan, trace=trace, metrics=reg,
            monitors=MonitorSet(invariants=(CountingInvariant(expected=8),),
                                checkpointer=cpr, metrics=reg),
        )
        full_trace, full_metrics = trace.to_json(), reg.to_dict()
        mid = [cp for cp in cpr.checkpoints if cp.round > 0]
        assert mid
        for cp in mid:
            if pickled:
                cp = pickle.loads(pickle.dumps(cp))
            net = cp.restore()
            assert net.trace is not trace and net.metrics is not reg
            net.resume()
            assert trace.to_json() == full_trace, cp.round
            assert reg.to_dict() == full_metrics, cp.round
            assert net.trace.to_json() == full_trace, cp.round
            assert net.metrics.to_dict() == full_metrics, cp.round

    def test_no_bound_builtin_on_network_contexts_or_nodes(self):
        """copy.deepcopy shares a bound builtin method (say ``list.extend``)
        with the original, so none may live where a checkpoint copies."""
        import types

        from repro.faults import RetryPolicy
        from repro.obs import MetricsRegistry

        def values(obj):
            if hasattr(obj, "__dict__"):
                yield from vars(obj).values()
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        yield getattr(obj, slot)

        class Inspect(InvariantMonitor):
            seen = 0

            def on_round(self, net):
                objs = [net, *map(net.context, net.node_ids)]
                for v in net.node_ids:
                    node = net.node(v)
                    objs += [node, getattr(node, "inner", node)]
                for obj in objs:
                    for value in values(obj):
                        assert not isinstance(value, types.BuiltinMethodType), (obj, value)
                Inspect.seen += 1

        run_flood_counting(
            mesh_graph([2, 3]), range(6), trace=EventTrace(), metrics=MetricsRegistry(),
            faults=FaultPlan(seed=1, drop_rate=0.1), reliable=RetryPolicy(),
            monitors=MonitorSet(invariants=(Inspect(),)),
        )
        assert Inspect.seen > 3

    def test_keep_limit_is_fifo(self):
        cpr = PeriodicCheckpointer(every=2, keep=3)
        run_flood_counting(mesh_graph([3, 3]), range(9),
                           monitors=MonitorSet(checkpointer=cpr))
        assert len(cpr.checkpoints) == 3
        rounds = [c.round for c in cpr.checkpoints]
        assert rounds == sorted(rounds)

    def test_before_selects_newest_earlier_checkpoint(self):
        cpr = PeriodicCheckpointer(every=3, keep=10)
        mon = MonitorSet(checkpointer=cpr)
        run_central_counting(star_graph(8), range(8), monitors=mon)
        rounds = [c.round for c in cpr.checkpoints]
        target = rounds[-1]
        cp = mon.last_checkpoint_before(target)
        assert cp is not None and cp.round == rounds[-2]
        assert mon.last_checkpoint_before(rounds[0]) is None

    def test_checkpoints_do_not_nest(self):
        """A snapshot must not carry the checkpointer's earlier snapshots
        (deepcopy of stored history would snowball quadratically)."""
        cpr = PeriodicCheckpointer(every=2, keep=10)
        run_central_counting(star_graph(6), range(6),
                             monitors=MonitorSet(checkpointer=cpr))
        assert len(cpr.checkpoints) > 2
        inner = cpr.checkpoints[-1]._net.monitors.checkpointer
        assert inner.checkpoints == []

    def test_resume_requires_prior_run(self):
        net = SynchronousNetwork(
            path_graph(2),
            {v: ArrowNode(v, link=0, issue_at=None) for v in range(2)},
            send_capacity=1,
            recv_capacity=1,
        )
        with pytest.raises(ProtocolViolation, match="never run"):
            net.resume()

    def test_replay_from_checkpoint_reaches_same_violation(self, monkeypatch):
        """The headline workflow: violation -> restore last checkpoint ->
        resume -> the same violation at the same round."""
        import repro.counting.central as central_mod

        class DupRank(central_mod._CentralNode):
            def _value(self, origin, increment):
                return min(super()._value(origin, increment), 3)

        monkeypatch.setattr(central_mod, "_CentralNode", DupRank)
        cpr = PeriodicCheckpointer(every=2, keep=10)
        mon = MonitorSet(
            invariants=(CountingInvariant(expected=6),), checkpointer=cpr
        )
        with pytest.raises(InvariantViolation) as first:
            run_central_counting(star_graph(6), range(6), trace=EventTrace(),
                                 monitors=mon)
        cp = mon.last_checkpoint_before(first.value.round)
        assert cp is not None
        net = cp.restore()
        with pytest.raises(InvariantViolation) as again:
            net.resume()
        assert again.value.invariant == first.value.invariant
        assert again.value.round == first.value.round
        assert again.value.nodes == first.value.nodes
