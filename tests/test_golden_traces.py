"""Golden-trace regression tests.

Every protocol runs on a fixed small instance with tracing on; the full
event trace, engine stats, and protocol outputs are compared against a
canonical JSON fixture under ``tests/golden/``.  Any change to engine
scheduling, arbitration order, message routing, or protocol logic — no
matter how subtle — shows up here as a diff against the golden file.

Regenerate the fixtures (after an *intentional* semantics change) with::

    PYTHONPATH=src python -m pytest tests/test_golden_traces.py --regen

and review the resulting diff like any other code change.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any

import pytest

from repro import (
    bfs_spanning_tree,
    complete_graph,
    mesh_graph,
    path_graph,
    path_spanning_tree,
    run_arrow,
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
    star_graph,
)
from repro.counting import run_sweep_counting
from repro.sim import EventTrace

GOLDEN_DIR = Path(__file__).parent / "golden"


def _canonical(obj: Any) -> Any:
    """JSON round-trip: tuples -> lists, int keys -> strings, sorted keys."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _doc(trace: EventTrace, stats, **extra: Any) -> Any:
    return _canonical(
        {
            "events": [[e.kind, e.round, e.data] for e in trace.events],
            "stats": asdict(stats),
            **extra,
        }
    )


def _op_map(d: dict) -> list:
    """Tuple-keyed mapping as a sorted pair list (JSON-safe)."""
    return [[list(k) if isinstance(k, tuple) else k, v] for k, v in sorted(d.items())]


def _case_arrow() -> Any:
    tr = EventTrace()
    r = run_arrow(path_spanning_tree(path_graph(8)), range(8), trace=tr)
    return _doc(
        tr, r.stats,
        order=r.order(), total_delay=r.total_delay, delays=_op_map(r.delays),
    )


def _case_central_counting() -> Any:
    tr = EventTrace()
    r = run_central_counting(star_graph(6), range(6), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_central_queuing() -> Any:
    tr = EventTrace()
    r = run_central_queuing(star_graph(6), range(6), trace=tr)
    return _doc(
        tr, r.stats,
        predecessors=_op_map(
            {k: list(v) if isinstance(v, tuple) else v for k, v in r.predecessors.items()}
        ),
        delays=_op_map(r.delays),
    )


def _case_combining() -> Any:
    tr = EventTrace()
    r = run_combining_counting(bfs_spanning_tree(complete_graph(8)), range(8), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_flood() -> Any:
    tr = EventTrace()
    r = run_flood_counting(mesh_graph([3, 3]), range(9), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_cnet() -> Any:
    tr = EventTrace()
    r = run_counting_network(complete_graph(6), range(6), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_periodic() -> Any:
    tr = EventTrace()
    r = run_periodic_counting(complete_graph(8), range(8), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_sweep() -> Any:
    tr = EventTrace()
    r = run_sweep_counting(path_graph(8), range(8), trace=tr)
    return _doc(tr, r.stats, counts=sorted(r.counts.items()), delays=sorted(r.delays.items()))


def _case_arrow_perfetto() -> Any:
    """The Chrome trace-event export of the arrow case, pinned exactly.

    Guards the exporter's whole output contract — span pairing via FIFO
    link order, timestamps (1 round = 1000 us), track metadata, counter
    samples, and the deterministic event sort.
    """
    from repro.obs import chrome_trace

    tr = EventTrace()
    run_arrow(path_spanning_tree(path_graph(8)), range(8), trace=tr)
    return _canonical(chrome_trace(tr, label="arrow path-8"))


def _observed_metrics(run: Any, expected: int, invariant: Any) -> Any:
    """``registry.to_dict()`` of one run with every hook attached.

    The run gets a registry, an event trace and a monitor set (the
    invariant plus a watchdog publishing into the same registry), as
    ``repro trace`` and ``repro chaos`` attach them.  Pins the metric
    names, values, gauge highs, histogram buckets and per-round series.
    """
    from repro.obs import MetricsRegistry
    from repro.resilience import MonitorSet, Watchdog

    reg = MetricsRegistry()
    monitors = MonitorSet(
        invariants=(invariant,),
        watchdog=Watchdog(expected_completions=expected),
        metrics=reg,
    )
    run(metrics=reg, trace=EventTrace(), monitors=monitors)
    return _canonical(reg.to_dict())


def _case_metrics_flood_path() -> Any:
    from repro.resilience import CountingInvariant

    g = path_graph(16)
    return _observed_metrics(
        lambda **hooks: run_flood_counting(g, range(16), **hooks),
        16, CountingInvariant(expected=16),
    )


def _case_metrics_flood_ft_ring() -> Any:
    from repro.faults import FaultPlan, NodeCrash, run_flood_counting_ft
    from repro.resilience import CountingInvariant
    from repro.topology import ring_graph

    plan = FaultPlan(
        seed=11, drop_rate=0.1, duplicate_rate=0.05, max_consecutive_drops=2,
        crashes=(NodeCrash(node=5, start=3, end=12),),
    )
    g = ring_graph(16)
    reqs = [0, 2, 3, 5, 8, 9, 12, 15]
    return _observed_metrics(
        lambda **hooks: run_flood_counting_ft(g, reqs, plan, **hooks),
        len(reqs), CountingInvariant(expected=len(reqs)),
    )


def _case_metrics_arrow_ft_path() -> Any:
    from repro.faults import FaultPlan, run_arrow_ft
    from repro.resilience import ArrowInvariant

    plan = FaultPlan(
        seed=7, drop_rate=0.08, duplicate_rate=0.04, max_consecutive_drops=2
    )
    tree = path_spanning_tree(path_graph(64))
    reqs = list(range(0, 64, 3))
    return _observed_metrics(
        lambda **hooks: run_arrow_ft(tree, reqs, plan, **hooks),
        len(reqs), ArrowInvariant(),
    )


CASES = {
    "arrow": _case_arrow,
    "central_counting": _case_central_counting,
    "central_queuing": _case_central_queuing,
    "combining": _case_combining,
    "flood": _case_flood,
    "cnet": _case_cnet,
    "periodic": _case_periodic,
    "sweep": _case_sweep,
    "arrow_perfetto": _case_arrow_perfetto,
    "metrics_flood_path": _case_metrics_flood_path,
    "metrics_flood_ft_ring": _case_metrics_flood_ft_ring,
    "metrics_arrow_ft_path": _case_metrics_arrow_ft_path,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_trace(name: str, request: pytest.FixtureRequest) -> None:
    doc = CASES[name]()
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--regen"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path.name}; run with --regen to create it"
    )
    golden = json.loads(path.read_text())
    assert doc == golden, (
        f"{name}: execution diverged from the golden fixture. If the change "
        f"is intentional, regenerate with `pytest {__file__} --regen` and "
        f"review the fixture diff."
    )


def test_golden_dir_matches_cases() -> None:
    """Every fixture has a case and vice versa (no stale goldens)."""
    have = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert have == set(CASES)
