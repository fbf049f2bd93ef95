"""The protocol registry and the run options every runner shares.

Every :data:`repro.protocols.PROTOCOLS` entry must take the same run
options (see :func:`repro.sim.run_protocol`) and honour each of them:
an attached trace, metrics registry, profiler or monitor set must see
the run, and faults with reliable delivery must still yield a verified
output.  The CLI and the chaos harness dispatch through the registry, so
they reach every entry too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.adding import run_central_addition, run_combining_addition
from repro.arrow import run_arrow_longlived
from repro.cli import main
from repro.core.verify import verify_counting, verify_queuing
from repro.directory import run_object_directory
from repro.faults import FaultPlan, RetryPolicy
from repro.multicast import run_counting_multicast, run_queuing_multicast
from repro.mutex import run_token_mutex
from repro.obs import MetricsRegistry, PhaseProfiler
from repro.protocols import PROTOCOLS
from repro.resilience import (
    ArrowInvariant,
    ChaosCell,
    CountingInvariant,
    MonitorSet,
    QueuingInvariant,
    TokenInvariant,
    Watchdog,
    run_cell,
)
from repro.resilience.chaos import DEFAULT_CELLS
from repro.sim import EventTrace
from repro.topology import bfs_spanning_tree, ring_graph

NAMES = sorted(PROTOCOLS)
COUNTING = sorted(name for name, spec in PROTOCOLS.items() if spec.problem == "counting")
QUEUING = sorted(name for name, spec in PROTOCOLS.items() if spec.problem == "queuing")
REQUESTS = (0, 2, 3, 5, 7)
K = len(REQUESTS)


def _run(name: str, **options):
    """Run ``name`` on an 8-node ring and check its output from outside."""
    spec = PROTOCOLS[name]
    res = spec.run(ring_graph(8), REQUESTS, **options)
    if spec.problem == "counting":
        verify_counting(REQUESTS, res.counts)
    else:
        verify_queuing(REQUESTS, res.predecessors, tail=res.tail)
        assert sorted(res.order()) == list(REQUESTS)
    return res


@pytest.mark.parametrize("name", NAMES)
class TestEveryProtocolTakesEveryOption:
    def test_trace(self, name):
        trace = EventTrace()
        res = _run(name, trace=trace)
        assert sum(e.kind == "deliver" for e in trace) == res.stats.messages_delivered

    def test_metrics(self, name):
        reg = MetricsRegistry()
        res = _run(name, metrics=reg)
        assert reg.run_stats_view() == res.stats

    def test_profiler(self, name):
        prof = PhaseProfiler()
        res = _run(name, profiler=prof)
        assert prof.rounds >= 1 and prof.wall > 0
        assert prof.rounds <= res.stats.rounds + 1

    def test_monitors(self, name):
        spec = PROTOCOLS[name]
        checked = MetricsRegistry()
        monitors = MonitorSet(invariants=(spec.invariant(K),), metrics=checked)
        _run(name, monitors=monitors)
        assert checked.counters["resilience.rounds_checked"].value >= 1

    def test_faults_with_reliable_delivery(self, name):
        reg = MetricsRegistry()
        res = _run(
            name, faults=FaultPlan(drop_rate=0.1, seed=0), reliable=RetryPolicy(),
            metrics=reg,
        )
        # Every application message travelled in an envelope that was
        # acked at least once, and the plan did drop some traffic.
        sends = reg.counters["reliable.app_sends"].value
        assert reg.counters["reliable.acks_sent"].value >= sends > 0
        assert res.stats.messages_dropped > 0

    def test_unknown_option_raises_type_error(self, name):
        with pytest.raises(TypeError):
            PROTOCOLS[name].run(ring_graph(8), REQUESTS, no_such_option=1)

    def test_capacity_is_the_runner_s_not_an_option(self, name):
        # Fixed-capacity runners keep the strict model's unit budgets; the
        # others take ``capacity`` as a protocol parameter.
        with pytest.raises(TypeError):
            PROTOCOLS[name].run(ring_graph(8), REQUESTS, send_capacity=2)

    def test_strict_with_reliable_raises_value_error(self, name):
        with pytest.raises(ValueError, match="strict"):
            PROTOCOLS[name].run(
                ring_graph(8), REQUESTS, strict=True, reliable=RetryPolicy()
            )


def test_invariants_match_the_problem():
    assert sorted(COUNTING + QUEUING) == NAMES
    for name, spec in PROTOCOLS.items():
        inv = spec.invariant(K)
        if spec.problem == "counting":
            assert isinstance(inv, CountingInvariant) and inv.expected == K, name
        elif name == "arrow":
            assert isinstance(inv, ArrowInvariant)
        else:
            assert isinstance(inv, QueuingInvariant) and inv.expected == K, name


@pytest.mark.parametrize("lossy", [False, True], ids=["plain", "lossy"])
@pytest.mark.parametrize("name", QUEUING)
def test_queuing_invariant_is_silent_on_every_queuing_entry(name, lossy):
    """Completions alone check any queuing protocol, arrow included."""
    inv = QueuingInvariant(expected=K)
    options = (
        {"faults": FaultPlan(seed=0, drop_rate=0.1), "reliable": RetryPolicy()}
        if lossy else {}
    )
    _run(name, monitors=MonitorSet(invariants=(inv,)), **options)
    assert len(inv.completed) == len(inv.claimed) == K


@pytest.mark.parametrize("name", COUNTING)
def test_cli_count_with_faults(name, capsys):
    assert main(["count", "--algorithm", name, "--n", "8",
                 "--faults", "drop=0.1"]) == 0
    assert "fault plan  : drop=0.1" in capsys.readouterr().out


@pytest.mark.parametrize("faults", [[], ["--faults", "drop=0.1,seed=3"]])
@pytest.mark.parametrize("name", NAMES)
def test_cli_profile_and_trace_every_protocol(name, faults, tmp_path, capsys):
    assert main(["profile", name, "--graph", "path", "--n", "8", *faults]) == 0
    out = tmp_path / f"{name}.perfetto.json"
    assert main(["trace", name, "--graph", "path", "--n", "8",
                 "-o", str(out), *faults]) == 0
    assert out.exists()


def test_cli_strict_with_faults_exits_with_the_runner_message(capsys):
    with pytest.raises(SystemExit, match="strict mode is incompatible"):
        main(["count", "--algorithm", "central", "--n", "8", "--strict",
              "--faults", "drop=0.1"])


# Runners outside the registry take the same run options.  Each entry:
# name -> (run(**options), the safety invariants its run must keep).  The
# multicast runners attach the options to phase 1, the coordination run.
RING = ring_graph(8)
TREE = bfs_spanning_tree(RING)
INCREMENTS = {v: v + 1 for v in REQUESTS}
OTHER_RUNNERS = {
    "longlived": (
        lambda **o: run_arrow_longlived(TREE, {v: v % 3 for v in REQUESTS}, **o),
        (ArrowInvariant,),
    ),
    "directory": (
        lambda **o: run_object_directory(RING, TREE, REQUESTS, **o),
        (ArrowInvariant, lambda: TokenInvariant(name="directory.object")),
    ),
    "mutex": (
        lambda **o: run_token_mutex(TREE, REQUESTS, **o),
        (ArrowInvariant, TokenInvariant),
    ),
    "multicast-counting": (
        lambda **o: run_counting_multicast(RING, TREE, REQUESTS, **o),
        (lambda: CountingInvariant(expected=K),),
    ),
    "multicast-queuing": (
        lambda **o: run_queuing_multicast(RING, TREE, REQUESTS, **o),
        (ArrowInvariant,),
    ),
    "central-addition": (
        lambda **o: run_central_addition(RING, INCREMENTS, **o),
        (),
    ),
    "combining-addition": (
        lambda **o: run_combining_addition(TREE, INCREMENTS, **o),
        (),
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_RUNNERS))
class TestOtherRunnersTakeTheRunOptions:
    def test_monitors(self, name):
        run, invariants = OTHER_RUNNERS[name]
        checked = MetricsRegistry()
        monitors = MonitorSet(
            invariants=tuple(make() for make in invariants),
            watchdog=Watchdog(stall_window=500, livelock_window=5_000),
            metrics=checked,
        )
        run(monitors=monitors)
        assert checked.counters["resilience.rounds_checked"].value >= 1

    def test_faults_with_reliable_delivery(self, name):
        run, _ = OTHER_RUNNERS[name]
        reg = MetricsRegistry()
        # Each runner verifies its own output and raises if it is wrong.
        run(faults=FaultPlan(drop_rate=0.1, seed=0), reliable=RetryPolicy(), metrics=reg)
        sends = reg.counters["reliable.app_sends"].value
        assert reg.counters["reliable.acks_sent"].value >= sends > 0
        assert reg.counters["reliable.retransmits"].value > 0


@pytest.mark.parametrize("name", NAMES)
def test_chaos_reaches_every_protocol(name):
    cell = ChaosCell.parse(f"{name}_ft:path:6")
    assert run_cell(cell, FaultPlan(seed=1, drop_rate=0.1)) == {"status": "ok"}


def test_chaos_rejects_a_sweep_cell_without_a_hamilton_path():
    with pytest.raises(ValueError, match="needs a Hamilton path"):
        ChaosCell.parse("sweep_ft:star:8")


def test_chaos_default_cells_cover_every_protocol(capsys):
    protocols = {ChaosCell.parse(spec).protocol for spec in DEFAULT_CELLS}
    assert protocols == {f"{name}_ft" for name in PROTOCOLS}
    assert main(["chaos", "--seeds", "1", "--ci"]) == 0
    assert f"over {len(DEFAULT_CELLS)} cells" in capsys.readouterr().out


#: Public ``run_*`` functions that are not protocol runners, by module.
#: The experiment drivers (``run_e<k>_*`` in ``repro.experiments.suite``)
#: are matched by name instead.
NOT_PROTOCOL_RUNNERS = {
    "repro.sim.network": {"run_protocol"},  # the engine call every runner makes
    "repro.experiments.executor": {"run_cell", "run_suite"},
    "repro.resilience.chaos": {"run_cell"},
    "repro.tsp.runs": {"run_decomposition"},  # splits a tour into runs
    # ``faults=`` plus ``reliable=`` shorthands, imported by perfbench/
    "repro.faults.runners": {"run_arrow_ft", "run_central_counting_ft", "run_flood_counting_ft"},
}
EXPERIMENT_DRIVER = re.compile(r"run_e\d+_\w+")


def _public_runs() -> list[tuple[str, str]]:
    """``(module, name)`` of every top-level public ``run_*`` function in src."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("run_"):
                found.append((module, stmt.name))
    return found


def _runner_names(fn) -> set[str]:
    """The runner ``fn`` is, or the runners an adapter or lambda calls."""
    if fn.__name__.startswith("run_"):
        return {fn.__name__}
    return {name for name in fn.__code__.co_names if name.startswith("run_")}


def test_every_public_runner_is_registered_or_exercised():
    """Each public runner is a registry entry, an ``OTHER_RUNNERS`` entry
    (so it takes the run options) or a named non-protocol."""
    covered = set().union(
        *(_runner_names(spec.run) for spec in PROTOCOLS.values()),
        *(_runner_names(run) for run, _ in OTHER_RUNNERS.values()),
    )
    runs = _public_runs()
    unlisted = [
        f"{module}.{name}" for module, name in runs
        if name not in covered
        and name not in NOT_PROTOCOL_RUNNERS.get(module, ())
        and not (module == "repro.experiments.suite" and EXPERIMENT_DRIVER.fullmatch(name))
    ]
    assert unlisted == []
    stale = {(m, n) for m, names in NOT_PROTOCOL_RUNNERS.items() for n in names} - set(runs)
    assert stale == set()
