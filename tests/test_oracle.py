"""``SynchronousNetwork`` against the naive reference engine in ``oracle.py``.

The tests diff full executions (event trace, ``RunStats``, and each
completion's round and result) of Hypothesis-driven scripted traffic:
random, star and complete graphs, capacities 1-3, every delay model,
drops, duplicates, outages and crash windows inside idle stretches, and
tight round budgets.  The oracle also reproduces the eight protocol
goldens and real protocols under non-unit delays and reliable delivery.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from typing import Any, Callable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import ReferenceNetwork
from test_golden_traces import CASES as GOLDEN_CASES
from test_golden_traces import GOLDEN_DIR

from repro import complete_graph, path_graph, run_central_counting, run_flood_counting, star_graph
from repro.faults import FaultPlan, LinkOutage, NodeCrash, run_flood_counting_ft
from repro.sim import (
    ConstantDelay,
    EventTrace,
    KindDelay,
    Node,
    RoundLimitExceeded,
    SynchronousNetwork,
    TargetedDelay,
    UniformDelay,
)
from repro.topology.base import Graph

KINDS = ("a", "b", "q")


class Scripted(Node):
    """Acts only on its script and on the messages it receives, so two
    engines that agree on the model drive fresh copies identically.

    A script is ``(start burst, wake rounds, wake bursts)``; a burst is a
    list of ``(neighbor index, ttl)`` sends.  A received message with ttl
    0 completes an operation; otherwise it is forwarded with ttl - 1, and
    an even ttl also bounces a copy back and schedules a later wakeup.
    """

    def __init__(self, node_id: int, script: tuple) -> None:
        super().__init__(node_id)
        self.start_burst, self.wake_rounds, bursts = script
        self.bursts = list(bursts)
        self.ops = 0

    def _send(self, ctx, k: int, ttl: int) -> None:
        nbrs = ctx.neighbors
        ctx.send(nbrs[k % len(nbrs)], KINDS[ttl % len(KINDS)], ttl)

    def _complete(self, ctx, result: Any) -> None:
        self.ops += 1
        ctx.complete((self.node_id, self.ops), result)

    def on_start(self, ctx):
        for r in self.wake_rounds:
            ctx.schedule_wakeup(r)
        for k, ttl in self.start_burst:
            self._send(ctx, k, ttl)
        if not self.start_burst:
            self._complete(ctx, "idle")

    def on_wake(self, ctx):
        for k, ttl in self.bursts.pop(0) if self.bursts else ():
            self._send(ctx, k, ttl)
        self._complete(ctx, ("woke", ctx.now))

    def on_receive(self, msg, ctx):
        ttl = msg.payload
        if ttl == 0:
            self._complete(ctx, (msg.src, msg.seq, msg.sent_at, ctx.now))
            return
        self._send(ctx, msg.seq + ttl, ttl - 1)
        if ttl % 2 == 0:
            ctx.send(msg.src, KINDS[0], ttl - 1)
            ctx.schedule_wakeup(ctx.now + 3 * ttl)


@st.composite
def graphs(draw) -> Graph:
    shape = draw(st.sampled_from(["random", "star", "complete"]))
    n = draw(st.integers(2, 8))
    if shape == "star":
        return star_graph(n)
    if shape == "complete":
        return complete_graph(n)
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a random tree
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges), name="random")


def delay_models(links: list[tuple[int, int]]) -> st.SearchStrategy:
    return st.one_of(
        st.none(),  # the paper's unit delay
        st.builds(ConstantDelay, st.integers(2, 4)),
        st.builds(UniformDelay, st.just(1), st.integers(1, 6), st.integers(0, 99)),
        st.builds(TargetedDelay, st.frozensets(st.sampled_from(links), max_size=4),
                  st.integers(2, 9)),
        st.builds(KindDelay, st.tuples(st.tuples(st.sampled_from(KINDS), st.integers(2, 6))),
                  st.integers(1, 2)),
    )


bursts = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3)), max_size=3)


@st.composite
def scripts(draw) -> tuple:
    """Wakeups are spaced far apart, so traffic dies out between them and
    the engine crosses long idle stretches by clock jumps."""
    wakes = sorted(draw(st.sets(st.integers(1, 120), max_size=3)))
    return draw(bursts), wakes, [draw(bursts) for _ in wakes]


@st.composite
def fault_plans(draw, n: int, links: list[tuple[int, int]], wakes: list[int]) -> FaultPlan:
    crashes = []
    for _ in range(draw(st.integers(0, 3))):
        # Often end a window just before a wakeup, inside the idle stretch.
        start = draw(st.integers(0, 120) | st.sampled_from([max(w - 30, 0) for w in wakes] or [0]))
        span = draw(st.integers(0, 40))  # 0: the node never recovers
        end = start + span if span else None
        crashes.append(NodeCrash(draw(st.integers(0, n - 1)), start, end))
    outages = []
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.sampled_from(links))
        start = draw(st.integers(0, 60))
        outages.append(LinkOutage(u, v, start, start + draw(st.integers(1, 20))))
    return FaultPlan(
        seed=draw(st.integers(0, 10**6)),
        drop_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        duplicate_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
        max_consecutive_drops=draw(st.sampled_from([None, 1, 3])),
        outages=tuple(outages),
        crashes=tuple(crashes),
    )


@st.composite
def scenarios(draw) -> tuple:
    """(graph, node scripts, engine kwargs, round budget)."""
    g = draw(graphs())
    links = [(u, v) for u in g.adj for v in g.adj[u]]
    node_scripts = {v: draw(scripts()) for v in g.adj}
    wakes = sorted({r for _, rounds, _ in node_scripts.values() for r in rounds})
    kwargs = {
        "send_capacity": draw(st.integers(1, 3)),
        "recv_capacity": draw(st.integers(1, 3)),
        "delay_model": draw(delay_models(links)),
        "faults": draw(st.none() | fault_plans(len(g.adj), links, wakes)),
    }
    # A tight budget often ends the run mid-schedule.
    return g, node_scripts, kwargs, draw(st.sampled_from([40, 400]))


def _run_scripted(engine: type, sc: tuple) -> dict[str, Any]:
    graph, node_scripts, kwargs, max_rounds = sc
    trace = EventTrace()
    nodes = {v: Scripted(v, script) for v, script in node_scripts.items()}
    net = engine(graph, nodes, trace=trace, **kwargs)
    try:
        net.run(max_rounds=max_rounds)
        error = None
    except RoundLimitExceeded as exc:  # a tight budget, or a node that never recovers
        error = f"round limit {exc.max_rounds}"
    return {
        "events": [(e.kind, e.round, e.data) for e in trace.events],
        "stats": asdict(net.stats),
        "completions": [(r.op_id, r.round, r.result, r.at_node) for r in net.delays.records()],
        "error": error,
    }


@given(sc=scenarios())
@settings(max_examples=200, deadline=None)
def test_engine_matches_oracle(sc: tuple) -> None:
    expected = _run_scripted(ReferenceNetwork, sc)
    actual = _run_scripted(SynchronousNetwork, sc)
    assert actual["events"] == expected["events"]
    assert actual == expected


@contextmanager
def runners_on_oracle() -> Iterator[None]:
    """Make every ``repro`` module that builds the engine build the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "SynchronousNetwork", None) is SynchronousNetwork):
                mp.setattr(module, "SynchronousNetwork", ReferenceNetwork)
        yield


PROTOCOL_GOLDENS = ["arrow", "central_counting", "central_queuing", "cnet",
                    "combining", "flood", "periodic", "sweep"]


@pytest.mark.parametrize("name", PROTOCOL_GOLDENS)
def test_oracle_reproduces_golden(name: str) -> None:
    with runners_on_oracle():
        doc = GOLDEN_CASES[name]()
    assert doc == json.loads((GOLDEN_DIR / f"{name}.json").read_text())


REGIMES: dict[str, Callable[[EventTrace], Any]] = {
    "uniform_delay": lambda tr: run_flood_counting(
        path_graph(6), range(6), delay_model=UniformDelay(1, 5, seed=11), trace=tr
    ),
    "targeted_delay": lambda tr: run_central_counting(
        star_graph(6), range(6),
        delay_model=TargetedDelay(slow_links=frozenset({(1, 0)}), slow=7), trace=tr,
    ),
    "faults": lambda tr: run_flood_counting_ft(
        path_graph(5), range(5),
        FaultPlan(seed=0, drop_rate=0.2, duplicate_rate=0.1, max_consecutive_drops=2,
                  crashes=(NodeCrash(node=2, start=3, end=7),)),
        trace=tr,
    ),
}


def _traced(run: Callable[[EventTrace], Any]) -> tuple[list, dict]:
    tr = EventTrace()
    stats = run(tr).stats
    return [(e.kind, e.round, e.data) for e in tr.events], asdict(stats)


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_extra_regimes_match_oracle(name: str) -> None:
    """Real protocols under non-unit delays and reliable delivery."""
    with runners_on_oracle():
        expected = _traced(REGIMES[name])
    assert _traced(REGIMES[name]) == expected


class Burst(Node):
    """Leaf 1 sends ``a0, a1`` and leaf 2 sends ``b`` to hub 0 in round 0."""

    def on_start(self, ctx):
        for kind in {1: ("a0", "a1"), 2: ("b",)}.get(self.node_id, ()):
            ctx.send(0, kind)


@pytest.mark.parametrize("engine", [SynchronousNetwork, ReferenceNetwork],
                         ids=["engine", "oracle"])
def test_link_head_waits_for_its_previous_delivery(engine: type) -> None:
    """MODEL.md's arbitration rule: ``a1`` is on its link from round 1,
    but its link delivered ``a0`` in round 1, so ``a1`` is eligible only
    from round 2, behind ``b`` (eligible since round 1)."""
    trace = EventTrace()
    engine(star_graph(3), {v: Burst(v) for v in range(3)}, send_capacity=2, trace=trace).run()
    assert [(e.data["kind"], e.round) for e in trace.of_kind("deliver")] == [
        ("a0", 1), ("b", 2), ("a1", 3),
    ]
