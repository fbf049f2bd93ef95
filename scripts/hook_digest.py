#!/usr/bin/env python
"""Digest every registered protocol's observed outputs, to diff two revisions.

Runs every ``repro.protocols.PROTOCOLS`` entry on small path, ring, star
and complete graphs (every vertex requesting), once without a fault plan
and once under a lossy plan (drops, duplicates, one link outage and one
crash window) with ``reliable=RetryPolicy()``.  Every run has a metrics
registry, an event trace, a phase profiler and a monitor set (the
protocol's invariant plus a watchdog, both publishing into the registry)
attached.  One line per cell prints the SHA-256 digests of the run's
``RunStats``, its completions (delays and results), ``trace.to_json()``
and ``registry.to_dict()``; a run that raises prints the error's digest
instead.  Profiler timings are not digested: they are wall-clock times.

Two revisions produce the same lines exactly when every hook saw the same
run, so one command compares them::

    diff <(python scripts/hook_digest.py --src /path/to/old/src) \\
         <(python scripts/hook_digest.py)

``--src`` (default: this checkout's ``src``) is the source tree to import
``repro`` from; it uses only APIs both revisions share.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Iterator

SRC = Path(__file__).resolve().parents[1] / "src"

#: Graph families (``repro.topology`` generator names) and their size.
GRAPHS = ("path", "ring", "star", "complete")
N = 8
PLANS = ("none", "lossy")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cells() -> Iterator[tuple[str, str, str]]:
    """Every ``(protocol, graph, plan)`` cell the protocol can run on."""
    from repro.protocols import PROTOCOLS

    for name, spec in PROTOCOLS.items():
        for graph in GRAPHS:
            if spec.needs_path and graph == "star":
                continue  # the star has no Hamilton path
            for plan in PLANS:
                yield name, graph, plan


def lossy_plan(n: int) -> Any:
    """Drops and duplicates, plus one outage and one crash window."""
    from repro.faults import FaultPlan, LinkOutage, NodeCrash

    return FaultPlan(
        seed=3, drop_rate=0.1, duplicate_rate=0.05, max_consecutive_drops=2,
        outages=(LinkOutage(0, 1, start=2, end=6),),
        crashes=(NodeCrash(node=n - 1, start=3, end=9),),
    )


def digest(protocol: str, graph_name: str, plan: str) -> dict[str, str]:
    """The four digests of one cell (or ``error`` when the run raises)."""
    import repro.topology as topology
    from repro.faults import RetryPolicy
    from repro.obs import MetricsRegistry, PhaseProfiler
    from repro.protocols import PROTOCOLS
    from repro.resilience import MonitorSet, Watchdog
    from repro.sim import EventTrace

    spec = PROTOCOLS[protocol]
    graph = getattr(topology, f"{graph_name}_graph")(N)
    registry, trace = MetricsRegistry(), EventTrace()
    options: dict[str, Any] = {
        "metrics": registry,
        "trace": trace,
        "profiler": PhaseProfiler(),
        "monitors": MonitorSet(
            invariants=(spec.invariant(N),),
            watchdog=Watchdog(expected_completions=N),
            metrics=registry,
        ),
    }
    if plan == "lossy":
        options.update(faults=lossy_plan(N), reliable=RetryPolicy())
    try:
        result = spec.run(graph, range(N), **options)
    except Exception as exc:  # noqa: BLE001 - a raising run is an output too
        return {"error": _sha(f"{type(exc).__name__}: {exc}")}
    answers = getattr(result, "counts", None)
    if answers is None:
        answers = result.predecessors
    completions = [
        sorted(map(repr, result.delays.items())),
        sorted(map(repr, answers.items())),
    ]
    return {
        "stats": _sha(json.dumps(dataclasses.asdict(result.stats), sort_keys=True)),
        "completions": _sha(json.dumps(completions)),
        "trace": _sha(trace.to_json()),
        "metrics": _sha(json.dumps(registry.to_dict(), sort_keys=True)),
    }


def line(cell: tuple[str, str, str]) -> str:
    """One output line: the cell, then ``key=digest`` pairs."""
    fields = " ".join(f"{k}={v}" for k, v in digest(*cell).items())
    return f"{'/'.join(cell)} {fields}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(SRC), help="source tree to import repro from")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    for cell in cells():
        print(line(cell), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
