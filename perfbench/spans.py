"""Outside-in timing of the program's layers for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each timed function at every name a ``repro`` module binds it
under, so ``repro.counting.central.bfs_distances`` and
``repro.topology.properties.bfs_distances`` both report, and calls made
through local imports resolve to the timed version too.  It also defaults
every ``SynchronousNetwork`` to one shared ``PhaseProfiler`` through the
engine's existing ``profiler=`` hook.  :meth:`Tracer.hook_types` returns
timing subclasses of the metrics registry, event trace and monitor set,
for workloads that attach those hooks themselves.

A span is timed at its outermost call only: a builder that calls another
builder, or a runner that calls another runner, is counted once.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

#: (home module, functions, span).  Every protocol runner is one
#: ``runner`` span: the repro.counting, repro.arrow and repro.faults
#: runners, plus the application runners the experiments call.
TARGETS: tuple[tuple[str, tuple[str, ...], str], ...] = (
    (
        "repro.topology.graphs",
        (
            "path_graph", "ring_graph", "complete_graph", "star_graph",
            "mesh_graph", "torus_graph", "hypercube_graph",
            "perfect_mary_tree", "binary_tree_graph", "caterpillar_graph",
            "lollipop_graph", "random_regular_graph",
        ),
        "topology.build",
    ),
    (
        "repro.topology.spanning",
        (
            "bfs_spanning_tree", "dfs_spanning_tree", "path_spanning_tree",
            "star_spanning_tree", "embedded_mary_tree", "embedded_binary_tree",
        ),
        "topology.build",
    ),
    ("repro.tree.tree", ("random_tree",), "topology.build"),
    ("repro.topology.properties", ("bfs_distances",), "topology.bfs"),
    (
        "repro.core.verify",
        ("verify_counting", "verify_queuing", "verify_total_order_consistency"),
        "verify",
    ),
    ("repro.tsp.nearest_neighbor", ("nearest_neighbor_tour",), "tsp.nn_tour"),
    ("repro.counting.central", ("run_central_counting", "run_central_queuing"), "runner"),
    ("repro.counting.combining", ("run_combining_counting",), "runner"),
    ("repro.counting.flood", ("run_flood_counting",), "runner"),
    ("repro.counting.network", ("run_counting_network",), "runner"),
    ("repro.counting.periodic", ("run_periodic_counting",), "runner"),
    ("repro.counting.sweep", ("run_sweep_counting", "run_sweep_queuing"), "runner"),
    ("repro.arrow.runner", ("run_arrow",), "runner"),
    ("repro.arrow.longlived", ("run_arrow_longlived",), "runner"),
    (
        "repro.faults.runners",
        ("run_arrow_ft", "run_central_counting_ft", "run_flood_counting_ft"),
        "runner",
    ),
    ("repro.adding.central", ("run_central_addition",), "runner"),
    ("repro.adding.combining", ("run_combining_addition",), "runner"),
    ("repro.directory.protocol", ("run_object_directory",), "runner"),
    ("repro.mutex.raymond", ("run_token_mutex",), "runner"),
    (
        "repro.multicast.ordered",
        ("run_counting_multicast", "run_queuing_multicast"),
        "runner",
    ),
)

#: Spans whose time inside a runner call is also kept as ``runner>span``;
#: ``sim.loop`` is read from the profiler's wall time.  This is what
#: splits a runner call into engine loop + glue + verification.  BFS run
#: lazily by a protocol inside the engine loop (``sim.run>topology.bfs``)
#: is loop time, not glue.
RUNNER_PARTS = (
    "sim.loop", "verify", "topology.bfs", "sim.init", "sim.run>topology.bfs",
)


class Tracer:
    """Span totals and call counts, plus the wrappers that feed them."""

    def __init__(self) -> None:
        from repro.obs import PhaseProfiler

        self.profiler = PhaseProfiler()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self._open: set[str] = set()

    def total(self, span: str) -> float:
        """Seconds recorded so far under ``span``."""
        return self.profiler.wall if span == "sim.loop" else self.seconds[span]

    def span(self, name: str, fn: Callable, parts: tuple[str, ...] = ()) -> Callable:
        """``fn`` timed as span ``name``.

        ``parts`` name other spans whose time inside this one is kept
        as ``name>part``.
        """
        open_spans = self._open
        seconds = self.seconds
        calls = self.calls
        total = self.total

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if name in open_spans:
                return fn(*args, **kwargs)
            open_spans.add(name)
            before = [total(p) for p in parts]
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
                calls[name] += 1
                for part, b in zip(parts, before):
                    seconds[f"{name}>{part}"] += total(part) - b
                open_spans.discard(name)

        return timed

    def install(self) -> None:
        """Time every target at every ``repro`` name that binds it."""
        wrappers: dict[int, Callable] = {}
        for home, names, span in TARGETS:
            module = importlib.import_module(home)
            parts = RUNNER_PARTS if span == "runner" else ()
            for attr in names:
                fn = getattr(module, attr)
                wrappers[id(fn)] = self.span(span, fn, parts)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

        from repro.sim.network import SynchronousNetwork

        init = SynchronousNetwork.__init__
        profiler = self.profiler

        def init_profiled(net: Any, *args: Any, **kwargs: Any) -> None:
            if kwargs.get("profiler") is None:
                kwargs["profiler"] = profiler
            init(net, *args, **kwargs)

        SynchronousNetwork.__init__ = self.span("sim.init", init_profiled)
        SynchronousNetwork.run = self.span(
            "sim.run", SynchronousNetwork.run, ("topology.bfs",)
        )

    def hook_types(self) -> tuple[type, type, type]:
        """Timing subclasses of ``MetricsRegistry``, ``EventTrace`` and ``MonitorSet``."""
        from repro.obs import MetricsRegistry
        from repro.resilience import MonitorSet
        from repro.sim import EventTrace

        span = self.span

        class TimedRegistry(MetricsRegistry):
            inc = span("hooks.metrics", MetricsRegistry.inc)
            set_gauge = span("hooks.metrics", MetricsRegistry.set_gauge)
            observe = span("hooks.metrics", MetricsRegistry.observe)
            sample = span("hooks.metrics", MetricsRegistry.sample)

        class TimedTrace(EventTrace):
            record = span("hooks.trace", EventTrace.record)

        class TimedMonitors(MonitorSet):
            on_round = span("hooks.monitors", MonitorSet.on_round)
            on_complete = span("hooks.monitors", MonitorSet.on_complete)
            on_finish = span("hooks.monitors", MonitorSet.on_finish)

        return TimedRegistry, TimedTrace, TimedMonitors

    def runner_split(self, seconds: dict[str, float] | None = None) -> dict[str, float]:
        """Runner time split into loop, glue and verify.

        ``seconds`` defaults to the totals so far; pass the growth of
        :attr:`seconds` over one item for that item's split.  ``glue_s`` is the call
        minus loop and verify; ``unattributed_s`` is the part of the glue
        outside BFS routing and network construction.
        """
        s = self.seconds if seconds is None else seconds
        glue = s.get("runner", 0.0) - s.get("runner>sim.loop", 0.0) - s.get("runner>verify", 0.0)
        bfs = s.get("runner>topology.bfs", 0.0) - s.get("runner>sim.run>topology.bfs", 0.0)
        return {
            "call_s": s.get("runner", 0.0),
            "loop_s": s.get("runner>sim.loop", 0.0),
            "glue_s": glue,
            "verify_s": s.get("runner>verify", 0.0),
            "bfs_s": bfs,
            "net_init_s": s.get("runner>sim.init", 0.0),
            "unattributed_s": glue - bfs - s.get("runner>sim.init", 0.0),
        }

    def layer_metrics(self, delivered: int) -> dict[str, float]:
        """The per-layer metrics this tracer measures directly."""
        phases = {row["phase"]: row for row in self.profiler.phases()}

        def phase(name: str, key: str = "total_s") -> float:
            return phases[name][key] if name in phases else 0

        s = self.seconds
        loop = self.profiler.wall
        split = self.runner_split()
        return {
            "topology.build_s": s["topology.build"],
            "topology.bfs_s": s["topology.bfs"],
            "topology.bfs_calls": self.calls["topology.bfs"],
            "runner.call_s": split["call_s"],
            "runner.glue_s": split["glue_s"],
            "runner.unattributed_s": split["unattributed_s"],
            "sim.init_s": s["sim.init"],
            "sim.loop_s": loop,
            "sim.send_s": phase("send"),
            "sim.receive_s": phase("receive") - phase("node.on_receive"),
            "sim.wake_s": phase("wake"),
            "sim.rounds_executed": self.profiler.rounds,
            "sim.msgs_delivered": delivered,
            "sim.ns_per_msg": loop / delivered * 1e9 if delivered else 0.0,
            "proto.on_receive_s": phase("node.on_receive"),
            "proto.on_receive_calls": phase("node.on_receive", "calls"),
            "verify.s": s["verify"],
            "hooks.metrics_s": s["hooks.metrics"],
            "hooks.metrics_calls": self.calls["hooks.metrics"],
            "hooks.trace_s": s["hooks.trace"],
            "hooks.trace_events": self.calls["hooks.trace"],
            "hooks.monitors_s": s["hooks.monitors"],
            "faults.tick_s": phase("faults.tick"),
            "tsp.nn_tour_s": s["tsp.nn_tour"],
        }
