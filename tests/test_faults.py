"""Unit battery for the fault-injection subsystem.

Covers the plan grammar and validation, injector determinism and verdict
semantics, crash/outage mechanics inside the engine, the enriched
:class:`RoundLimitExceeded` diagnostics, and the reliable wrapper's
dedup/retry behaviour including budget exhaustion.
"""

from __future__ import annotations

import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.reliable as reliable
from reliable_reference import LinearScanReliableNode
from repro import (
    FaultPlan,
    LinkOutage,
    MonitorSet,
    NodeCrash,
    PeriodicCheckpointer,
    RetryPolicy,
    path_graph,
    ring_graph,
    run_arrow,
    run_arrow_ft,
    run_central_counting,
    run_central_counting_ft,
    run_flood_counting,
    star_graph,
)
from repro.core.verify import VerificationError
from repro.faults import run_flood_counting_ft
from repro.faults.injector import DELIVER, DROP, DUPLICATE, OUTAGE, FaultInjector
from repro.faults.reliable import ReliableNode, RetryBudgetExceeded, unwrap
from repro.obs import MetricsRegistry
from repro.protocols import PROTOCOLS
from repro.resilience import InvariantMonitor
from repro.sim import EventTrace, Message, Node, RunStats, SynchronousNetwork
from repro.sim.errors import RoundLimitExceeded, SimulationError
from repro.topology.spanning import path_spanning_tree


def _msg(src: int, dst: int, sent_at: int = 0, seq: int = 0) -> Message:
    m = Message(src=src, dst=dst, kind="x", payload=None, seq=seq)
    m.sent_at = sent_at
    return m


# ------------------------------------------------------------------ the plan


class TestFaultPlan:
    def test_default_plan_is_empty_and_has_no_injector(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert plan.injector() is None
        assert plan.eventually_delivers()
        assert plan.describe() == "no faults"

    def test_nonempty_plan_builds_injector(self):
        plan = FaultPlan(drop_rate=0.1)
        assert not plan.is_empty()
        assert isinstance(plan.injector(), FaultInjector)

    @pytest.mark.parametrize("kwargs", [
        {"drop_rate": 1.0},
        {"drop_rate": -0.1},
        {"duplicate_rate": 1.5},
        {"max_consecutive_drops": 0},
    ])
    def test_invalid_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            LinkOutage(3, 3, 0, 5)  # self-loop
        with pytest.raises(ValueError):
            LinkOutage(0, 1, 5, 5)  # empty window
        assert LinkOutage(2, 1, 0, 5).edge == (1, 2)

    def test_crash_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(0, -1, 5)
        with pytest.raises(ValueError):
            NodeCrash(0, 5, 5)
        assert NodeCrash(0, 5, None).down(10**9)  # permanent

    def test_eventual_delivery_conditions(self):
        assert FaultPlan(drop_rate=0.5, max_consecutive_drops=3).eventually_delivers()
        assert not FaultPlan(
            drop_rate=0.5, max_consecutive_drops=None
        ).eventually_delivers()
        assert not FaultPlan(crashes=(NodeCrash(0, 0, None),)).eventually_delivers()
        assert FaultPlan(crashes=(NodeCrash(0, 0, 9),)).eventually_delivers()

    def test_parse_full_grammar(self):
        plan = FaultPlan.parse(
            "drop=0.1, dup=0.05, seed=7, runs=2",
            crashes=["3@10:20", "5@4:"],
            outages=["1-2@5:15"],
        )
        assert plan.drop_rate == 0.1
        assert plan.duplicate_rate == 0.05
        assert plan.seed == 7
        assert plan.max_consecutive_drops == 2
        assert plan.crashes == (NodeCrash(3, 10, 20), NodeCrash(5, 4, None))
        assert plan.outages == (LinkOutage(1, 2, 5, 15),)

    def test_parse_runs_inf(self):
        assert FaultPlan.parse("drop=0.2,runs=inf").max_consecutive_drops is None

    def test_parse_empty_spec_is_empty_plan(self):
        assert FaultPlan.parse("").is_empty()

    @pytest.mark.parametrize("bad", ["drop", "loss=0.1", "drop=x"])
    def test_parse_rejects_malformed_spec(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    @pytest.mark.parametrize("bad", ["x@1:2", "3@:", "3"])
    def test_parse_rejects_malformed_crash(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse("", crashes=[bad])

    def test_parse_rejects_malformed_outage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("", outages=["1@5:15"])

    def test_describe_mentions_every_component(self):
        text = FaultPlan(
            seed=9, drop_rate=0.25, duplicate_rate=0.1,
            outages=(LinkOutage(0, 1, 2, 4),), crashes=(NodeCrash(2, 3, None),),
        ).describe()
        for needle in ("drop=0.25", "dup=0.1", "outage 0-1@2:4", "crash 2@3:", "seed=9"):
            assert needle in text


# -------------------------------------------------------------- the injector


class TestFaultInjector:
    def test_same_seed_same_verdicts(self):
        plan = FaultPlan(seed=42, drop_rate=0.3, duplicate_rate=0.3)
        inj_a, inj_b = plan.injector(), plan.injector()
        a = [inj_a.on_link_entry(_msg(0, 1), t) for t in range(50)]
        b = [inj_b.on_link_entry(_msg(0, 1), t) for t in range(50)]
        assert a == b
        assert DROP in a and DUPLICATE in a  # at 30% over 50 draws

    def test_different_seeds_differ(self):
        verdicts = []
        for seed in (1, 2):
            inj = FaultPlan(seed=seed, drop_rate=0.4, duplicate_rate=0.3).injector()
            verdicts.append([inj.on_link_entry(_msg(0, 1), t) for t in range(60)])
        assert verdicts[0] != verdicts[1]

    def test_consecutive_drop_bound_per_link(self):
        inj = FaultPlan(seed=0, drop_rate=0.95, max_consecutive_drops=2).injector()
        streak = 0
        for t in range(300):
            v = inj.on_link_entry(_msg(0, 1, sent_at=t), t)
            streak = streak + 1 if v == DROP else 0
            assert streak <= 2

    def test_drop_runs_tracked_per_directed_link(self):
        # A near-certain drop rate: both directions should each hit the
        # bound independently rather than sharing one counter.
        inj = FaultPlan(seed=0, drop_rate=0.95, max_consecutive_drops=1).injector()
        seq = [inj.on_link_entry(_msg(0, 1), 0) for _ in range(10)]
        rev = [inj.on_link_entry(_msg(1, 0), 0) for _ in range(10)]
        for s in (seq, rev):
            assert all(
                not (a == DROP and b == DROP) for a, b in zip(s, s[1:])
            )

    def test_outage_window_beats_randomness(self):
        plan = FaultPlan(outages=(LinkOutage(0, 1, 5, 10),))
        inj = plan.injector()
        assert inj.on_link_entry(_msg(0, 1), 4) == DELIVER
        assert inj.on_link_entry(_msg(0, 1), 5) == OUTAGE
        assert inj.on_link_entry(_msg(1, 0), 7) == OUTAGE  # both directions
        assert inj.on_link_entry(_msg(0, 1), 10) == DELIVER
        assert inj.on_link_entry(_msg(0, 2), 7) == DELIVER  # other edges live

    def test_duplicate_verdict_occurs(self):
        inj = FaultPlan(seed=1, duplicate_rate=0.5).injector()
        verdicts = {inj.on_link_entry(_msg(0, 1), t) for t in range(40)}
        assert verdicts == {DELIVER, DUPLICATE}

    def test_crash_windows_and_recovery(self):
        inj = FaultPlan(crashes=(NodeCrash(3, 5, 9), NodeCrash(3, 20, None))).injector()
        assert inj.has_crashes()
        assert not inj.crashed(3, 4)
        assert inj.crashed(3, 5) and inj.crashed(3, 8)
        assert not inj.crashed(3, 9)
        assert inj.crashed(3, 10**6)  # second, permanent window
        assert inj.recovery_round(3, 6) == 9
        assert inj.recovery_round(3, 25) is None

    def test_down_but_recovering_pinned_cases(self):
        # Permanent window listed first: recovery_round() answers None
        # while both windows are down, so the node does not count.
        inj = FaultPlan(crashes=(NodeCrash(2, 5, None), NodeCrash(2, 3, 10))).injector()
        assert [inj.down_but_recovering(t, range(4)) for t in (2, 3, 4, 5, 12)] == [
            False, True, True, False, False,
        ]
        assert not inj.down_but_recovering(4, {0, 1})  # node 2 outside the graph
        assert not FaultPlan(drop_rate=0.1).injector().down_but_recovering(0, range(4))

    @settings(max_examples=150, deadline=None)
    @given(
        windows=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 12),
                st.one_of(st.none(), st.integers(1, 8)),
            ),
            min_size=1,
            max_size=6,
        ),
        n=st.integers(1, 6),
    )
    def test_down_but_recovering_equals_per_node_scan(self, windows, n):
        """Overlapping, permanent-plus-finite and out-of-graph windows: the
        query equals the watchdog's former scan over every node."""
        crashes = tuple(
            NodeCrash(v, start, None if length is None else start + length)
            for v, start, length in windows
        )
        inj = FaultPlan(crashes=crashes).injector()
        nodes = range(n)
        for t in range(0, 25):
            old = any(
                inj.crashed(v, t) and inj.recovery_round(v, t) is not None
                for v in nodes
            )
            assert inj.down_but_recovering(t, nodes) == old, (t, crashes)

    def test_tick_emits_boundaries_with_scheduled_round(self):
        inj = FaultPlan(crashes=(NodeCrash(1, 2, 6),)).injector()
        stats, trace = RunStats(), EventTrace()
        inj.tick(0, stats, trace)
        assert stats.node_crashes == 0 and len(trace) == 0
        inj.tick(10, stats, trace)  # engine jumped over rounds 2 and 6
        assert stats.node_crashes == 1
        assert [(e.kind, e.round) for e in trace] == [("crash", 2), ("recover", 6)]
        inj.tick(11, stats, trace)  # boundaries emit once
        assert len(trace) == 2


# ------------------------------------------------- engine-level fault effects


class TestEngineFaultEffects:
    def test_drop_and_duplicate_counters_and_trace(self):
        trace = EventTrace()
        plan = FaultPlan(seed=5, drop_rate=0.2, duplicate_rate=0.3)
        res = run_central_counting_ft(star_graph(8), range(8), plan, trace=trace)
        assert res.stats.messages_dropped == len(trace.of_kind("drop"))
        assert res.stats.messages_duplicated == len(trace.of_kind("duplicate"))
        assert res.stats.messages_dropped > 0
        assert res.stats.messages_duplicated > 0

    def test_crashed_node_freezes_and_resumes(self):
        # Crash the star hub mid-run: every request stalls, then completes.
        plan = FaultPlan(crashes=(NodeCrash(0, 2, 30),))
        trace = EventTrace()
        res = run_central_counting_ft(star_graph(8), range(8), plan, trace=trace)
        assert res.stats.node_crashes == 1
        assert sorted(res.counts.values()) == list(range(1, 9))
        assert res.stats.rounds >= 30  # the run had to outlive the outage
        assert len(trace.of_kind("crash")) == 1
        assert len(trace.of_kind("recover")) == 1

    def test_idle_wake_jump_emits_skipped_crash_boundaries(self):
        # Node 0 sleeps until round 100 and nothing is in flight, so the
        # wake phase jumps the clock from round 1 straight to 100, over
        # node 1's crash window [50, 60).  The jump must not lose the
        # window's boundaries: the run reports exactly what a run whose
        # traffic visits every round reports.
        class Sleeper(Node):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.schedule_wakeup(100)

        class Ticker(Node):
            def on_start(self, ctx):
                if self.node_id == 0:
                    ctx.schedule_wakeup(1)

            def on_wake(self, ctx):
                if ctx.now < 100:
                    ctx.schedule_wakeup(ctx.now + 1)

        def run(node_type):
            plan = FaultPlan(crashes=(NodeCrash(node=1, start=50, end=60),))
            trace = EventTrace()
            net = SynchronousNetwork(
                path_graph(3), {v: node_type(v) for v in range(3)},
                faults=plan, trace=trace,
            )
            stats = net.run()
            events = [
                (e.kind, e.round, e.data["node"])
                for e in trace.events if e.kind in ("crash", "recover")
            ]
            return stats, events, net.rounds_executed

        jumped, jumped_events, jumped_executed = run(Sleeper)
        visited, visited_events, visited_executed = run(Ticker)
        assert jumped_executed < visited_executed  # the jump did happen
        assert visited.rounds == jumped.rounds == 100
        assert visited.node_crashes == jumped.node_crashes == 1
        assert visited_events == jumped_events == [
            ("crash", 50, 1), ("recover", 60, 1),
        ]

    def test_round_limit_diagnostics_name_pending_nodes(self):
        with pytest.raises(RoundLimitExceeded) as exc:
            run_central_counting(star_graph(16), range(16), max_rounds=4)
        e = exc.value
        assert e.max_rounds == 4
        assert e.in_flight > 0
        assert e.pending_nodes and all(0 <= v < 16 for v in e.pending_nodes)
        assert e.pending_nodes == tuple(sorted(e.pending_nodes))
        kind, src, dst, sent_at = e.oldest
        assert kind == "req" and dst == 0
        assert "pending operations" in str(e)
        assert "oldest undelivered" in str(e)

    def test_round_limit_legacy_signature_still_works(self):
        e = RoundLimitExceeded(100, 3)
        assert e.max_rounds == 100 and e.in_flight == 3
        assert e.pending_nodes == () and e.oldest is None


# ----------------------------------------------------------- reliable wrapper


class TestReliableWrapper:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0)

    def test_backoff_curve_monotone_and_capped(self):
        p = RetryPolicy(timeout=4, backoff=2.0, max_interval=32)
        seq = [4]
        for _ in range(8):
            seq.append(p.next_interval(seq[-1]))
        assert seq == sorted(seq)
        assert seq[-1] == 32

    def test_unwrap_round_trips(self):
        from repro.sim import Node

        inner = Node(7)
        wrapped = ReliableNode(inner)
        assert unwrap(wrapped) is inner
        assert unwrap(inner) is inner
        assert wrapped.node_id == 7

    def test_wrapper_is_transparent_without_faults(self):
        sp = path_spanning_tree(path_graph(6))
        plain = run_arrow(sp, range(6))
        wrapped = run_arrow(sp, range(6), reliable=RetryPolicy())
        assert wrapped.order() == plain.order()
        assert wrapped.predecessors == plain.predecessors

    def test_retry_budget_exhausts_under_permanent_crash(self):
        plan = FaultPlan(crashes=(NodeCrash(0, 0, None),))  # hub never serves
        assert not plan.eventually_delivers()
        policy = RetryPolicy(timeout=2, max_retries=3)
        with pytest.raises(RetryBudgetExceeded) as exc:
            run_central_counting_ft(
                star_graph(4), range(1, 4), plan, reliable=policy, max_rounds=10_000
            )
        assert exc.value.attempts > policy.max_retries
        assert exc.value.dst == 0
        assert "gave up" in str(exc.value)
        assert "the fault plan starved the link" in str(exc.value)

    def test_retry_budget_without_faults_blames_queuing(self):
        """An empty plan cannot starve a link: the message says so."""
        with pytest.raises(RetryBudgetExceeded) as exc:
            run_central_counting_ft(
                star_graph(8), range(8), FaultPlan(),
                reliable=RetryPolicy(timeout=1, max_retries=1),
            )
        assert exc.value.round == 3
        msg = str(exc.value)
        assert "no faults were injected" in msg
        assert "queued" in msg
        assert "fault plan starved" not in msg

    def test_ft_run_is_deterministic(self):
        plan = FaultPlan(seed=13, drop_rate=0.2, duplicate_rate=0.1)
        sp = path_spanning_tree(path_graph(8))
        a = run_arrow_ft(sp, range(8), plan)
        b = run_arrow_ft(sp, range(8), plan)
        assert a.stats == b.stats
        assert a.delays == b.delays
        assert a.order() == b.order()


class TestCrashAwareRetry:
    """The retry budget pauses while the peer is known to be down."""

    def test_blocked_until_fixpoint_over_windows(self):
        plan = FaultPlan(
            crashes=(NodeCrash(2, 5, 10),),
            outages=(LinkOutage(1, 2, 9, 14),),
        )
        # crash holds until 10, which lands inside the outage -> 14
        assert plan.blocked_until(1, 2, 6) == 14
        assert plan.blocked_until(2, 1, 6) == 6  # nothing active yet at 6
        assert plan.blocked_until(2, 1, 10) == 14  # outage active at 10
        assert plan.blocked_until(1, 2, 14) == 14  # already clear
        assert plan.blocked_until(0, 3, 6) == 6  # untouched edge

    def test_blocked_until_permanent_crash_is_none(self):
        plan = FaultPlan(crashes=(NodeCrash(2, 5, None),))
        assert plan.blocked_until(1, 2, 7) is None
        assert plan.blocked_until(1, 2, 2) == 2  # before the crash starts

    def test_budget_survives_long_crash_window(self):
        """A crash window far longer than the retry budget must not
        exhaust it: retries are deferred, not burned."""
        plan = FaultPlan(crashes=(NodeCrash(0, 1, 120),))
        policy = RetryPolicy(timeout=2, max_retries=3)  # budget ~ a few rounds
        r = run_central_counting_ft(
            star_graph(4), range(1, 4), plan, reliable=policy, max_rounds=10_000
        )
        assert sorted(r.counts.values()) == [1, 2, 3]

    def test_budget_pause_metric_counted(self):
        from repro.obs import MetricsRegistry

        plan = FaultPlan(crashes=(NodeCrash(0, 1, 60),))
        reg = MetricsRegistry()
        run_central_counting_ft(
            star_graph(4), range(1, 4), plan,
            reliable=RetryPolicy(timeout=2, max_retries=4),
            metrics=reg, max_rounds=10_000,
        )
        assert reg.to_dict()["counters"]["reliable.budget_pauses"] > 0

    def test_permanent_crash_still_exhausts_budget(self):
        """blocked_until -> None means no pause: the budget is charged and
        gives up with the failing round attached."""
        plan = FaultPlan(crashes=(NodeCrash(0, 0, None),))
        with pytest.raises(RetryBudgetExceeded) as exc:
            run_central_counting_ft(
                star_graph(4), range(1, 4), plan,
                reliable=RetryPolicy(timeout=2, max_retries=3), max_rounds=10_000,
            )
        assert exc.value.round is not None
        assert exc.value.round > 0

    def test_crashes_during_flood_complete_without_pinning(self):
        """The historical flood_ft failure mode: crash windows that
        swallow the wrapped node's timer.  Now any seed works."""
        from repro.faults import run_flood_counting_ft
        from repro.topology import ring_graph

        for seed in range(4):
            plan = FaultPlan(
                seed=seed, drop_rate=0.1,
                crashes=(NodeCrash(seed % 6, 2, 9),),
            )
            r = run_flood_counting_ft(ring_graph(6), range(6), plan,
                                      max_rounds=50_000)
            assert sorted(r.counts.values()) == list(range(1, 7))


class TestReliableNodeState:
    def test_timer_state_drained_under_crash_windows(self):
        """A wakeup the engine deferred past a crash leaves no armed round
        behind: every wrapper ends with no armed round, pending envelope,
        inner wakeup or timer."""

        class Finished(InvariantMonitor):
            def on_finish(self, net):
                self.net = net

        finished = Finished()
        plan = FaultPlan(
            seed=1, drop_rate=0.05,
            crashes=(NodeCrash(3, 4, 40), NodeCrash(5, 10, 30)),
        )
        run_flood_counting(
            ring_graph(16), range(16), faults=plan, reliable=RetryPolicy(),
            monitors=MonitorSet(invariants=(finished,)),
        )
        for v in finished.net.node_ids:
            node = finished.net.node(v)
            state = (node.armed, node.pending, node.inner_wakes, node.timers)
            assert state == (set(), {}, set(), []), v

    def test_restored_checkpoint_counts_into_its_own_registry(self):
        """The counters a wrapper bound before a checkpoint are the restored
        registry's own: a resumed run ends with the original's document."""
        reg, cpr = MetricsRegistry(), PeriodicCheckpointer(every=20, keep=3)
        run_flood_counting_ft(
            ring_graph(8), range(8), FaultPlan(seed=4, drop_rate=0.1, duplicate_rate=0.1),
            metrics=reg, trace=EventTrace(), monitors=MonitorSet(checkpointer=cpr),
        )
        final = reg.to_dict()
        mid = [cp for cp in cpr.checkpoints if cp.round > 0]
        assert mid and final["counters"]["reliable.retransmits"] > 0
        for cp in mid:
            for copy_ in (cp, pickle.loads(pickle.dumps(cp))):
                net = copy_.restore()
                net.resume()
                assert net.metrics.to_dict() == final, cp.round


def _diff_outcome(wrapper, name, graph, plan, policy):
    """Run registry protocol ``name`` with ``wrapper`` as the reliable node.

    Returns the outcome (stats, or the raised error's fields), the trace
    JSON and the metrics document.
    """
    trace, registry = EventTrace(), MetricsRegistry()
    with mock.patch.object(reliable, "ReliableNode", wrapper):
        try:
            result = PROTOCOLS[name].run(
                graph, range(len(graph.adj)), faults=plan, reliable=policy,
                trace=trace, metrics=registry, max_rounds=20_000,
            )
            outcome: tuple = ("ok", result.stats)
        except RetryBudgetExceeded as exc:
            outcome = ("budget", exc.node_id, exc.dst, exc.kind, exc.attempts, exc.round)
        except (SimulationError, VerificationError) as exc:
            # A permanent crash can stop a run at quiescence with an
            # incomplete output, which the runner's own check rejects.
            outcome = (type(exc).__name__, str(exc))
    return outcome, trace.to_json(), registry.to_dict()


@st.composite
def _timer_cases(draw):
    name = draw(st.sampled_from(["arrow", "central", "flood"]))
    shape = draw(st.sampled_from(["path", "ring", "star"]))
    n = draw(st.integers(3, 12))
    graph = {"path": path_graph, "ring": ring_graph, "star": star_graph}[shape](n)
    edges = sorted((u, v) for u in graph.adj for v in graph.adj[u] if u < v)
    outages = tuple(
        LinkOutage(*edges[i % len(edges)], start, start + length)
        for i, start, length in draw(st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 30), st.integers(1, 40)),
            max_size=2,
        ))
    )
    crashes = tuple(
        NodeCrash(node, start, None if length is None else start + length)
        for node, start, length in draw(st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, 30),
                st.sampled_from([None, 1, 5, 15, 40]),
            ),
            max_size=2, unique_by=lambda c: c[0],
        ))
    )
    plan = FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        drop_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.05, 0.2])),
        outages=outages,
        crashes=crashes,
    )
    policy = RetryPolicy(
        timeout=draw(st.integers(1, 6)),
        max_retries=draw(st.sampled_from([1, 30, 30])),
    )
    return name, graph, plan, policy


class TestTimerHeapMatchesLinearScan:
    """The (due, seq) timer heap against the linear-scan reference."""

    @settings(max_examples=60, deadline=None)
    @given(_timer_cases())
    def test_same_trace_stats_and_metrics(self, case):
        heap = _diff_outcome(ReliableNode, *case)
        scan = _diff_outcome(LinearScanReliableNode, *case)
        assert heap == scan

    def test_same_retry_budget_failure(self):
        case = (
            "central", star_graph(6),
            FaultPlan(seed=3, drop_rate=0.2, crashes=(NodeCrash(0, 2, None),)),
            RetryPolicy(timeout=2, max_retries=2),
        )
        heap = _diff_outcome(ReliableNode, *case)
        assert heap[0][0] == "budget"
        assert heap == _diff_outcome(LinearScanReliableNode, *case)
