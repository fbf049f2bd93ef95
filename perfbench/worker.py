"""One benchmark process: set up one workload, run it, check it, report.

``run.py`` starts this from the repository root with ``PYTHONPATH=src``::

    python3 perfbench/worker.py <workload> <seed> <plain|traced|hooks> <budget_s>

The last stdout line is one JSON object.  ``ready_at`` is the
``CLOCK_MONOTONIC`` reading taken once ``import repro`` has finished and
the workload's inputs exist; the parent subtracts its own reading from
just before the spawn to get ``setup_s``.  A ``plain`` worker then runs
the workload again and again until ``budget_s`` has passed (at least
once), checking every repetition's outputs between the timed runs.  A
``traced`` worker runs it once with the layers timed from outside (see
``spans.py``); ``hooks`` only times the hook-cost rows.
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import statistics
import sys
import time
from math import isqrt
from pathlib import Path
from time import perf_counter
from typing import Any

# Part of the measured set-up: setup_s starts before these imports.
from repro.core.verify import verify_counting, verify_queuing
from repro.obs import MetricsRegistry, PhaseProfiler
from repro.resilience import ArrowInvariant, CountingInvariant, MonitorSet, Watchdog
from repro.sim import EventTrace

HERE = Path(__file__).resolve().parent

#: protocol -> (module, runner, first argument: the graph or a spanning tree of it).
#: Runners are looked up at call time, so the traced run sees its wrappers.
RUNNERS = {
    "flood": ("repro.counting", "run_flood_counting", "graph"),
    "central": ("repro.counting", "run_central_counting", "graph"),
    "combining": ("repro.counting", "run_combining_counting", "tree"),
    "arrow": ("repro.arrow", "run_arrow", "tree"),
    "flood_ft": ("repro.faults", "run_flood_counting_ft", "graph"),
    "central_ft": ("repro.faults", "run_central_counting_ft", "graph"),
    "arrow_ft": ("repro.faults", "run_arrow_ft", "tree"),
}


def monotonic() -> float:
    """A clock every process on the host shares (Linux ``CLOCK_MONOTONIC``)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs Python now.

    The loop touches no ``repro`` code, so no change to the program moves
    it; ``run.py`` divides measured times by it (see ``PROBE_REF_S``).
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    buf: list[int] = []
    acc = 0
    for i in range(150_000):
        table[i & 1023] = i
        acc += table.get(i & 511, 0) & 7
        buf.append(i)
        if len(buf) > 64:
            buf.clear()
    return perf_counter() - t0


def count_engine_runs() -> dict[str, int]:
    """Sum the stats of every engine run from here on (one wrapper call per run)."""
    from repro.sim.network import SynchronousNetwork

    totals = {"delivered": 0, "dropped": 0, "duplicated": 0}
    run = SynchronousNetwork.run

    def counted(net: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return run(net, *args, **kwargs)
        finally:
            totals["delivered"] += net.stats.messages_delivered
            totals["dropped"] += net.stats.messages_dropped
            totals["duplicated"] += net.stats.messages_duplicated

    SynchronousNetwork.run = counted
    return totals


class Instance:
    """One runner call of a ``runs`` or ``ft-observed`` workload, with its inputs.

    The seed draws the request subset and the fault plan's seed; the
    program only ever sees the generated inputs.
    """

    def __init__(self, workload: dict, item: dict, seed: int) -> None:
        self.name = item["name"]
        self.protocol = item["protocol"]
        module, runner, first = RUNNERS[self.protocol]
        self.runner = (module, runner)
        rng = random.Random(f"{workload['name']}/{self.name}/{seed}")
        topology = importlib.import_module("repro.topology")
        n = item["n"]
        if item["topology"] == "mesh":
            side = isqrt(n)
            graph = topology.mesh_graph([side, side])
        else:
            graph = getattr(topology, f"{item['topology']}_graph")(n)
        self.arg = (
            getattr(topology, f"{item['tree']}_spanning_tree")(graph)
            if first == "tree"
            else graph
        )
        k = max(1, round(item["request_frac"] * n))
        self.requests = sorted(rng.sample(range(n), k))
        self.params: dict[str, Any] = {**item, "requests": k}
        self.plan = None
        if "faults" in workload:
            from repro.faults import FaultPlan

            self.params["plan_seed"] = rng.randrange(2**31)
            self.plan = FaultPlan(seed=self.params["plan_seed"], **workload["faults"])

    def run(self, hook_types: tuple[type, type, type]) -> tuple[Any, Any]:
        """Call the runner; return ``(result, registry)``.

        Fault-tolerant items run with a fresh metrics registry, event
        trace and monitor set (invariant plus watchdog) attached.
        """
        module, name = self.runner
        runner = getattr(importlib.import_module(module), name)
        if self.plan is None:
            return runner(self.arg, self.requests), None
        registry_type, trace_type, monitors_type = hook_types
        k = len(self.requests)
        invariant = (
            ArrowInvariant() if self.protocol == "arrow_ft" else CountingInvariant(expected=k)
        )
        registry = registry_type()
        monitors = monitors_type(
            invariants=(invariant,),
            watchdog=Watchdog(
                stall_window=500, livelock_window=5_000, expected_completions=k
            ),
        )
        result = runner(
            self.arg, self.requests, self.plan,
            metrics=registry, trace=trace_type(), monitors=monitors,
        )
        return result, registry

    def check(self, result: Any) -> None:
        """Re-verify the output from outside the runner; raises if it is wrong."""
        if hasattr(result, "counts"):
            verify_counting(self.requests, result.counts)
        else:
            verify_queuing(self.requests, result.predecessors, tail=result.tail)
            result.order()


def counter(registry: Any, name: str) -> int:
    """A counter the reliable layer published, or 0 without a registry."""
    if registry is None or name not in registry.counters:
        return 0
    return registry.counters[name].value


class ItemsJob:
    """The ``runs`` and ``ft-observed`` workloads: a list of runner calls."""

    def __init__(self, workload: dict, seed: int, hook_types: tuple, tracer: Any) -> None:
        self.instances = [Instance(workload, item, seed) for item in workload["items"]]
        self.hook_types = hook_types
        self.tracer = tracer

    def run_once(self) -> list[tuple]:
        """Run every item once: ``(instance, result, registry, error, seconds, split)``."""
        tracer = self.tracer
        outcomes = []
        for inst in self.instances:
            before = dict(tracer.seconds) if tracer else {}
            t0 = perf_counter()
            try:
                (result, registry), error = inst.run(self.hook_types), None
            except Exception as exc:  # noqa: BLE001 - every runner failure is one failed operation
                result, registry, error = None, None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            split = None
            if tracer is not None:
                split = tracer.runner_split(
                    {k: v - before.get(k, 0.0) for k, v in tracer.seconds.items()}
                )
            outcomes.append((inst, result, registry, error, elapsed, split))
        return outcomes

    def check(self, outcomes: list[tuple], pins: dict | None) -> dict:
        ops, items = [], []
        app = retransmits = 0
        for inst, result, registry, error, elapsed, split in outcomes:
            stats = None
            if result is not None:
                stats = [result.stats.rounds, result.stats.messages_sent, result.total_delay]
                try:
                    inst.check(result)
                except (AssertionError, ValueError) as exc:
                    error = f"re-verification: {exc}"
            if error is None and pins is not None and pins.get(inst.name) != stats:
                error = f"drift: pinned {pins.get(inst.name)}, got {stats}"
            ops.append((inst.name, error))
            row = {"name": inst.name, "params": inst.params, "stats": stats, "elapsed_s": elapsed}
            if split is not None:
                row["split"] = split
            items.append(row)
            app += counter(registry, "reliable.app_sends")
            retransmits += counter(registry, "reliable.retransmits")
        return {
            "ops": ops,
            "items": items,
            "signature": {row["name"]: row["stats"] for row in items},
            "reliable": {"app_sends": app, "retransmits": retransmits},
        }


class SuiteJob:
    """The ``suite`` workload: every experiment at bench scale, as the CLI runs it."""

    def __init__(self) -> None:
        from repro.experiments.executor import run_cell
        from repro.experiments.suite import ALL_EXPERIMENTS

        self.run_cell = run_cell
        self.exp_ids = list(ALL_EXPERIMENTS)

    def run_once(self) -> dict[str, Any]:
        """Experiment id -> ``(result, seconds)``, or the exception it raised."""
        results: dict[str, Any] = {}
        for exp_id in self.exp_ids:
            try:
                results[exp_id] = self.run_cell(exp_id, "bench")
            except Exception as exc:  # noqa: BLE001 - a crashed experiment fails its checks
                results[exp_id] = exc
        return results

    def check(self, results: dict[str, Any], pins: dict | None) -> dict:
        ops, signature, experiments = [], {}, {}
        for exp_id, outcome in results.items():
            pinned = None if pins is None else pins.get(exp_id, [])
            if isinstance(outcome, Exception):
                error = f"{type(outcome).__name__}: {outcome}"
                ops += [(exp_id, error)] * max(1, len(pinned or ()))
                signature[exp_id] = None
                continue
            result, elapsed = outcome
            experiments[exp_id] = elapsed
            verdicts = [[c.name, c.passed] for c in result.checks]
            signature[exp_id] = verdicts
            for i in range(max(len(verdicts), len(pinned or ()))):
                got = verdicts[i] if i < len(verdicts) else None
                want = pinned[i] if pinned is not None and i < len(pinned) else None
                label = f"{exp_id}: {(got or want)[0]}"
                if got is None:
                    ops.append((label, "check missing"))
                elif not got[1]:
                    ops.append((label, "check failed"))
                elif pinned is not None and got != want:
                    ops.append((label, f"drift: pinned {want}"))
                else:
                    ops.append((label, None))
        return {
            "ops": ops,
            "signature": signature,
            "experiments": experiments,
            "reliable": {"app_sends": 0, "retransmits": 0},
        }


def run_workload(workload: dict, seed: int, traced: bool, budget: float, pins: dict | None) -> dict:
    totals = count_engine_runs()
    tracer = None
    hook_types: tuple = (MetricsRegistry, EventTrace, MonitorSet)
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        hook_types = tracer.hook_types()
    if workload["name"] == "suite":
        job: Any = SuiteJob()
    else:
        job = ItemsJob(workload, seed, hook_types, tracer)
    ready_at = monotonic()

    reps = []
    start = perf_counter()
    while not reps or (not traced and perf_counter() - start < budget):
        delivered = totals["delivered"]
        probe_before = probe()
        t0 = perf_counter()
        outcome = job.run_once()
        wall = perf_counter() - t0
        rep = {
            "wall_s": wall,
            "probe_s": (probe_before + probe()) / 2,
            "delivered": totals["delivered"] - delivered,
        }
        rep.update(job.check(outcome, pins))
        del outcome  # so peak memory is that of one repetition, not two
        if reps and rep["signature"] != reps[0]["signature"]:
            rep["ops"].append(("repetition", "results differ from the first repetition's"))
        reps.append(rep)

    report: dict[str, Any] = {"ready_at": ready_at, "reps": reps}
    if tracer is not None:
        reliable = reps[0]["reliable"]
        sent = reliable["app_sends"] + reliable["retransmits"]
        report["layers"] = {
            **tracer.layer_metrics(totals["delivered"]),
            "faults.dropped": totals["dropped"],
            "faults.duplicated": totals["duplicated"],
            "reliable.retransmits": reliable["retransmits"],
            "reliable.goodput": reliable["app_sends"] / sent if sent else 0.0,
        }
    for rep in reps:
        ops = rep.pop("ops")
        rep["failures"] = [f"{label}: {err}" for label, err in ops if err]
        rep["attempted"] = len(ops)
        rep["failed"] = len(rep["failures"])
        del rep["reliable"]
    return report


def hook_costs(spec: dict) -> dict:
    """Time one flood run bare and with each hook attached alone.

    Each hooked run is paired with a bare run next to it, so the ratio
    of a pair sees the same machine load; the reported ratio is the
    median over the pairs.
    """
    from repro.counting import run_flood_counting
    from repro.topology import path_graph

    n = spec["n"]
    graph = path_graph(n)
    hooks = {
        "metrics": lambda: {"metrics": MetricsRegistry()},
        "trace": lambda: {"trace": EventTrace()},
        "profiler": lambda: {"profiler": PhaseProfiler()},
        "monitors": lambda: {
            "monitors": MonitorSet(
                invariants=(CountingInvariant(expected=n),),
                watchdog=Watchdog(expected_completions=n),
            )
        },
    }
    ready_at = monotonic()
    run_flood_counting(graph, range(n))  # warm-up, untimed

    def timed(kwargs: dict) -> float:
        t0 = perf_counter()
        run_flood_counting(graph, range(n), **kwargs)
        return perf_counter() - t0

    pairs: dict[str, list[list[float]]] = {name: [] for name in hooks}
    for rep in range(spec["repeats"]):
        for name, make in hooks.items():
            # Alternate which side of the pair runs first.
            if rep % 2:
                hooked, bare = timed(make()), timed({})
            else:
                bare, hooked = timed({}), timed(make())
            pairs[name].append([bare, hooked])
    return {
        "ready_at": ready_at,
        "pairs": pairs,
        "ratios": {
            f"hook.{name}.ratio": statistics.median(h / b for b, h in runs)
            for name, runs in pairs.items()
        },
    }


def main(argv: list[str]) -> int:
    workload_name, seed, mode, budget = argv[1], int(argv[2]), argv[3], float(argv[4])
    manifest = json.loads((HERE / "manifest.json").read_text())
    if mode == "hooks":
        report = hook_costs(manifest["hook_cost"])
    else:
        workload = next(w for w in manifest["workloads"] if w["name"] == workload_name)
        pins_path = HERE / "pins.json"
        pins = None
        if pins_path.is_file() and (
            workload_name == "suite" or seed == manifest["default_seed"]
        ):
            pins = json.loads(pins_path.read_text()).get(workload_name, {})
        report = run_workload(workload, seed, mode == "traced", budget, pins)
    report["mode"] = mode
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
