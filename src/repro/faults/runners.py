"""Fault-tolerant protocol entry points.

Each ``run_*_ft`` function runs the corresponding base protocol under a
:class:`~repro.faults.plan.FaultPlan`, with every node wrapped in the
reliable-delivery adapter (:mod:`repro.faults.reliable`).  They are
shorthands: any runner does the same given ``faults=plan`` and
``reliable=RetryPolicy()`` (see :func:`repro.sim.run_protocol`); pass
``reliable=`` to use another retry policy.  Each base runner returns a
:class:`~repro.core.problem.CountingResult` or
:class:`~repro.core.problem.QueuingResult`, which checks its problem's
condition when built, faults or not, so a returned result is a
*correct* one — under an
eventually-delivering plan the run completes and verifies despite drops,
duplicates, outages, and (finite) crashes.

Round budgets: faults stretch executions, so callers should size
``max_rounds`` for the retry envelope, roughly ``fault_free_rounds +
retries * timeout`` per lost hop (see ``docs/FAULTS.md``).  The default
is generous.  Strict mode is unavailable: acks and retransmits
legitimately exceed the per-round budgets, which the engine absorbs as
queuing delay.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.arrow.runner import run_arrow
from repro.core.problem import CountingResult, QueuingResult
from repro.counting.central import run_central_counting
from repro.counting.flood import run_flood_counting
from repro.faults.plan import FaultPlan
from repro.faults.reliable import RetryPolicy
from repro.topology.base import Graph
from repro.topology.spanning import SpanningTree


def run_arrow_ft(
    spanning: SpanningTree,
    requests: Iterable[int],
    plan: FaultPlan,
    **options: Any,
) -> QueuingResult:
    """Arrow queuing under ``plan`` with reliable delivery.

    Same contract as :func:`repro.arrow.run_arrow`: the returned
    predecessor chain is verified to be one queue over all requests.
    """
    options.setdefault("reliable", RetryPolicy())
    return run_arrow(spanning, requests, faults=plan, **options)


def run_central_counting_ft(
    graph: Graph,
    requests: Iterable[int],
    plan: FaultPlan,
    **options: Any,
) -> CountingResult:
    """Central-counter counting under ``plan`` with reliable delivery."""
    options.setdefault("reliable", RetryPolicy())
    return run_central_counting(graph, requests, faults=plan, **options)


def run_flood_counting_ft(
    graph: Graph,
    requests: Iterable[int],
    plan: FaultPlan,
    **options: Any,
) -> CountingResult:
    """Flood-and-rank counting under ``plan`` with reliable delivery."""
    options.setdefault("reliable", RetryPolicy())
    return run_flood_counting(graph, requests, faults=plan, **options)


__all__ = [
    "run_arrow_ft",
    "run_central_counting_ft",
    "run_flood_counting_ft",
]
