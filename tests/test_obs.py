"""Observability layer tests: registry, exporters, profiler, instrumentation.

Covers the ``repro.obs`` contract end to end: metric primitives and the
pinned histogram bucket edges, the Chrome/Perfetto and JSONL exporters,
the wall-clock phase profiler, the engine/fault/reliable instrumentation
sites, the zero-perturbation guarantee (attaching observers never changes
the execution), and the paper-facing payoff — flood's Theta(n^2) and
arrow's near-constant per-op delays land in visibly different histogram
buckets on the path graph.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    path_graph,
    path_spanning_tree,
    run_arrow,
    run_central_counting,
    run_flood_counting,
    star_graph,
)
from repro.obs import (
    DEFAULT_ROUND_BUCKETS,
    FAULT_EVENT_KINDS,
    Histogram,
    MetricsRegistry,
    PhaseProfiler,
    ROUND_US,
    chrome_trace,
    jsonl_lines,
    write_chrome_trace,
    write_jsonl,
)
from repro.sim import EventTrace


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        assert reg.counters["c"].value == 5
        reg.set_gauge("g", 7)
        reg.set_gauge("g", 3)
        assert reg.gauges["g"].value == 3
        assert reg.gauges["g"].high == 7
        reg.observe("h", 2)
        reg.observe("h", 2)
        assert reg.histograms["h"].count == 2
        reg.sample("s", 0, 10)
        reg.sample("s", 1, 20)
        assert reg.series["s"] == [(0, 10), (1, 20)]
        assert list(reg.names()) == ["c", "g", "h", "s"]

    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("x") is reg.gauge("x")
        assert reg.histogram("x") is reg.histogram("x")

    def test_histogram_bucket_conflict(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2, 4))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1, 2, 8))

    def test_to_dict_is_json_safe(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1)
        reg.observe("h", 3)
        reg.sample("s", 0, 1)
        doc = json.loads(json.dumps(reg.to_dict()))
        assert doc["counters"]["c"] == 1
        assert doc["gauges"]["g"] == {"value": 1, "high": 1}
        assert doc["histograms"]["h"]["count"] == 1
        assert doc["series"]["s"] == [[0, 1]]

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        assert json.loads(path.read_text())["counters"]["c"] == 2


class TestHistogram:
    def test_default_bucket_edges_pinned(self):
        # Part of the exported-metrics contract: 0, then 2^0 .. 2^20.
        assert DEFAULT_ROUND_BUCKETS == (
            0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
            8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576,
        )

    def test_bucketing(self):
        h = Histogram("h", buckets=(0, 2, 4))
        for v in (0, 1, 2, 3, 4, 5):
            h.observe(v)
        # v=0 -> edge 0; v in {1,2} -> edge 2; v in {3,4} -> edge 4; 5 overflows.
        assert h.counts == [1, 2, 2, 1]
        assert h.count == 6
        assert h.total == 15
        assert h.mean == 2.5
        assert (h.min, h.max) == (0, 5)

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2, 1))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1, 2))

    def test_percentile(self):
        h = Histogram("h", buckets=(1, 2, 4, 8))
        for v in (1, 1, 1, 1, 1, 1, 1, 1, 1, 7):
            h.observe(v)
        assert h.percentile(0.5) == 1
        assert h.percentile(1.0) == 8
        with pytest.raises(ValueError):
            h.percentile(0.0)
        assert Histogram("e").percentile(0.5) == 0

    def test_percentile_overflow_bucket(self):
        h = Histogram("h", buckets=(1, 2))
        h.observe(100)
        assert h.percentile(0.9) == 100  # overflow bucket reports the max

    def test_observe_count_equals_repeated_observes(self):
        once, each = Histogram("h"), Histogram("h")
        once.observe(3, 4)
        once.observe(0, 2)
        for v in (3, 3, 3, 3, 0, 0):
            each.observe(v)
        assert once.to_dict() == each.to_dict()
        reg = MetricsRegistry()
        reg.observe("w", 5, 3)
        reg.observe("w", 9)
        assert (reg.histograms["w"].count, reg.histograms["w"].total) == (4, 24)


def _arrow_trace(n: int = 6) -> EventTrace:
    tr = EventTrace()
    run_arrow(path_spanning_tree(path_graph(n)), range(n), trace=tr)
    return tr


class TestChromeTrace:
    def test_every_event_well_formed(self):
        doc = chrome_trace(_arrow_trace())
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        assert evs, "empty trace export"
        for e in evs:
            assert e["ph"] in ("X", "i", "M", "C")
            assert e["pid"] == 1
            if e["ph"] != "M":
                assert isinstance(e["ts"], int) and e["ts"] >= 0
            if e["ph"] == "X":
                assert e["dur"] >= 1

    def test_tracks_and_spans(self):
        doc = chrome_trace(_arrow_trace(), label="unit")
        evs = doc["traceEvents"]
        names = {e["name"] for e in evs}
        procs = [e for e in evs if e["name"] == "process_name"]
        assert procs[0]["args"]["name"] == "unit"
        threads = {e["tid"] for e in evs if e["name"] == "thread_name"}
        assert threads == set(range(6))  # one track per node
        assert any(n.startswith("op (") for n in names)  # op spans
        assert any("->" in n for n in names)  # message spans
        assert "messages/round" in names  # counter track

    def test_round_scale(self):
        doc = chrome_trace(_arrow_trace())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["ts"] % ROUND_US == 0 for e in spans)
        assert all(e["dur"] % ROUND_US == 0 for e in spans)

    def test_unmatched_send_flagged(self):
        tr = EventTrace()
        tr.record("send", 2, src=0, dst=1, kind="req")
        doc = chrome_trace(tr)
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert inst[0]["name"] == "unmatched send 0->1"
        assert inst[0]["args"]["unmatched"] is True

    def test_fault_instants(self):
        tr = EventTrace()
        tr.record("drop", 1, src=0, dst=1, kind="req", reason="outage")
        tr.record("duplicate", 2, src=1, dst=0, kind="ack")
        tr.record("crash", 3, node=2)
        tr.record("recover", 5, node=2)
        doc = chrome_trace(tr)
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "i"}
        assert by_name["drop 0-x>1"]["args"]["reason"] == "outage"
        assert "duplicate 1->0" in by_name
        assert by_name["crash"]["tid"] == 2
        assert by_name["recover"]["ts"] == 5 * ROUND_US
        assert set(FAULT_EVENT_KINDS) == {"drop", "duplicate", "crash", "recover"}

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "t.perfetto.json"
        write_chrome_trace(_arrow_trace(), str(path))
        doc = json.loads(path.read_text())
        assert all("ph" in e and "pid" in e for e in doc["traceEvents"])


class TestJsonl:
    def test_round_trips_through_json_loads(self, tmp_path):
        tr = _arrow_trace()
        lines = list(jsonl_lines(tr))
        assert len(lines) == len(tr)
        for line, ev in zip(lines, tr.events):
            doc = json.loads(line)
            assert doc["event"] == ev.kind
            assert doc["round"] == ev.round
        path = tmp_path / "t.jsonl"
        assert write_jsonl(tr, str(path)) == len(tr)
        assert path.read_text().count("\n") == len(tr)

    def test_non_json_values_reprd(self):
        tr = EventTrace()
        tr.record("complete", 4, node=0, op=("op", 0))
        doc = json.loads(next(jsonl_lines(tr)))
        assert doc["op"] == repr(("op", 0))


class TestEngineInstrumentation:
    def test_run_stats_view_matches_engine_stats(self):
        reg = MetricsRegistry()
        res = run_flood_counting(path_graph(8), range(8), metrics=reg)
        assert reg.run_stats_view() == res.stats

    def test_observers_do_not_perturb_execution(self):
        base = EventTrace()
        run_arrow(path_spanning_tree(path_graph(8)), range(8), trace=base)
        observed = EventTrace()
        run_arrow(
            path_spanning_tree(path_graph(8)), range(8), trace=observed,
            metrics=MetricsRegistry(), profiler=PhaseProfiler(),
        )
        assert [(e.kind, e.round, e.data) for e in base.events] == [
            (e.kind, e.round, e.data) for e in observed.events
        ]

    def test_delay_histogram_and_series(self):
        reg = MetricsRegistry()
        res = run_flood_counting(star_graph(6), range(6), metrics=reg)
        h = reg.histograms["op.delay"]
        assert h.count == 6
        assert h.total == sum(res.delays.values())
        assert reg.histograms["msg.link_wait"].count > 0
        assert reg.series["engine.in_flight"]  # one sample per executed round

    def test_fault_metrics(self):
        from repro.faults import FaultPlan, NodeCrash, run_central_counting_ft

        reg = MetricsRegistry()
        plan = FaultPlan(
            seed=3, drop_rate=0.2, max_consecutive_drops=2,
            crashes=(NodeCrash(0, 2, 12),),  # the star hub goes dark
        )
        res = run_central_counting_ft(star_graph(8), range(8), plan, metrics=reg)
        c = reg.counters
        assert c["faults.node_crashes"].value == 1
        assert c["faults.node_recoveries"].value == 1
        assert c["engine.messages_dropped"].value > 0
        assert c["reliable.app_sends"].value > 0
        assert c["reliable.acks_sent"].value > 0
        assert c["reliable.retransmits"].value > 0
        assert reg.series["faults.crash"] == [(2, 0)]
        assert reg.run_stats_view() == res.stats


class TestPerPhasePublishing:
    """The engine publishes its tallies when the run returns or raises."""

    def test_counters_exact_after_a_raised_run(self, monkeypatch):
        """A monitor raising inside ``on_receive`` leaves ``stats`` and the
        registry equal, both counting every ``on_receive`` call made."""
        import repro.counting.central as central_mod
        from repro.resilience import CountingInvariant, InvariantMonitor, MonitorSet
        from repro.sim.errors import InvariantViolation

        received = []

        class DupRank(central_mod._CentralNode):
            def on_receive(self, msg, ctx):
                received.append(msg)
                super().on_receive(msg, ctx)

            def _value(self, origin, increment):
                return min(super()._value(origin, increment), 2)  # ranks collide at 2

        class Grab(InvariantMonitor):
            def on_round(self, net):
                self.net = net

        monkeypatch.setattr(central_mod, "_CentralNode", DupRank)
        grab, reg = Grab(), MetricsRegistry()
        mon = MonitorSet(invariants=(grab, CountingInvariant(expected=5)))
        with pytest.raises(InvariantViolation):
            run_central_counting(star_graph(5), range(5), monitors=mon, metrics=reg)
        stats = grab.net.stats
        assert stats.messages_delivered == len(received) > 0
        assert stats.total_link_wait == sum(m.link_wait() for m in received) > 0
        assert reg.run_stats_view() == stats
        assert reg.histograms["msg.link_wait"].count == len(received)

    def test_send_backlog_published_when_start_raises(self):
        from repro.sim import Node, SynchronousNetwork

        class Burst(Node):
            def on_start(self, ctx):
                if self.node_id == 1:
                    for _ in range(3):
                        ctx.send(0, "x")
                    raise RuntimeError("boom")

        reg = MetricsRegistry()
        net = SynchronousNetwork(
            path_graph(2), {v: Burst(v) for v in range(2)}, metrics=reg
        )
        with pytest.raises(RuntimeError):
            net.run()
        assert net.stats.max_send_backlog == 3
        assert reg.gauges["engine.send_backlog"].to_dict() == {"value": 3, "high": 3}
        assert reg.run_stats_view() == net.stats

    @pytest.mark.parametrize("crash", [False, True])
    def test_faulty_run_registry_matches_stats(self, crash):
        """Under drops, duplicates and a crash window the registry still
        reproduces ``RunStats``."""
        from repro.faults import FaultPlan, NodeCrash, run_flood_counting_ft
        from repro.topology import ring_graph

        plan = FaultPlan(
            seed=4, drop_rate=0.1, duplicate_rate=0.1, max_consecutive_drops=2,
            crashes=(NodeCrash(3, 2, 9),) if crash else (),
        )
        reg = MetricsRegistry()
        res = run_flood_counting_ft(ring_graph(10), range(0, 10, 2), plan, metrics=reg)
        assert reg.run_stats_view() == res.stats
        assert reg.to_dict()["counters"]["engine.messages_duplicated"] > 0

    def test_two_runs_into_one_registry_add_up(self):
        """A registry shared by consecutive runs sums their ``RunStats``
        and holds every completion of both."""
        from repro.faults import FaultPlan, run_flood_counting_ft
        from repro.topology import ring_graph

        reg = MetricsRegistry()
        runs = [
            run_flood_counting_ft(
                ring_graph(10), range(0, 10, 2),
                FaultPlan(seed=4, drop_rate=0.1, duplicate_rate=0.1), metrics=reg,
            ),
            run_central_counting(star_graph(6), range(6), metrics=reg),
        ]
        c = reg.counters
        for field in ("messages_sent", "messages_delivered", "messages_dropped",
                      "messages_duplicated"):
            assert c[f"engine.{field}"].value == sum(getattr(r.stats, field) for r in runs)
        assert c["engine.link_wait_total"].value == sum(r.stats.total_link_wait for r in runs)
        completions = sum(len(r.delays) for r in runs)
        assert reg.histograms["op.delay"].count == c["engine.completions"].value == completions
        assert reg.histograms["op.delay"].total == sum(sum(r.delays.values()) for r in runs)
        for field, name in (("max_send_backlog", "send_backlog"),
                            ("max_recv_backlog", "recv_backlog")):
            assert reg.gauges[f"engine.{name}"].high == max(getattr(r.stats, field) for r in runs)
        assert reg.gauges["engine.rounds"].value == runs[-1].stats.rounds


class TestProfiler:
    def test_phases_recorded(self):
        prof = PhaseProfiler()
        run_flood_counting(path_graph(8), range(8), profiler=prof)
        names = {r["phase"] for r in prof.phases()}
        assert {"send", "receive", "wake", "node.on_receive"} <= names
        assert prof.rounds > 0
        assert prof.wall > 0.0
        assert prof.hottest() in names

    def test_nested_share_accounting(self):
        prof = PhaseProfiler()
        prof.add("send", 0.3)
        prof.add("receive", 0.7)
        prof.add("node.on_receive", 0.5)  # nested: excluded from the base
        rows = {r["phase"]: r for r in prof.phases()}
        assert rows["receive"]["share"] == pytest.approx(0.7)
        assert rows["node.on_receive"]["share"] == pytest.approx(0.5)
        assert rows["node.on_receive"]["nested"] is True

    def test_render_and_to_dict(self):
        prof = PhaseProfiler()
        assert prof.render() == "(no phases recorded)"
        prof.add("send", 0.001)
        prof.tick_round()
        text = prof.render()
        assert "send" in text and "rounds executed: 1" in text
        doc = json.loads(json.dumps(prof.to_dict()))
        assert doc["rounds"] == 1
        assert doc["phases"][0]["phase"] == "send"


class TestSeparation:
    def test_flood_vs_arrow_delay_histograms_on_path(self):
        """The paper's gap, read straight off the exported histograms.

        On the path graph flood counting needs Theta(n) rounds per
        operation (Theta(n^2) total — every requester waits on news from
        the far end), while the arrow protocol's queuing completes each
        operation in O(1) on the pre-oriented path.  The fixed bucket
        edges make the two runs directly comparable.
        """
        means = {}
        for n in (16, 24):
            flood, arrow = MetricsRegistry(), MetricsRegistry()
            run_flood_counting(path_graph(n), range(n), metrics=flood)
            run_arrow(
                path_spanning_tree(path_graph(n)), range(n), metrics=arrow
            )
            hf = flood.histograms["op.delay"]
            ha = arrow.histograms["op.delay"]
            assert hf.buckets == ha.buckets == DEFAULT_ROUND_BUCKETS
            assert hf.mean > 8 * ha.mean
            assert hf.percentile(0.9) >= 16 * ha.percentile(0.9)
            means[n] = (hf.mean, ha.mean)
        # Flood's per-op delay grows with n (quadratic total); arrow's
        # per-op delay does not.
        assert means[24][0] > 1.3 * means[16][0]
        assert means[24][1] <= 2 * means[16][1]


class TestSimMetricsHelpers:
    def test_trace_helpers(self):
        tr = EventTrace()
        tr.record("send", 2, src=0, dst=1, kind="x")
        tr.record("drop", 5, src=0, dst=1, kind="x", reason="drop")
        assert [e.kind for e in tr.fault_events()] == ["drop"]
        assert tr.last_round() == 5
        assert EventTrace().last_round() == 0
