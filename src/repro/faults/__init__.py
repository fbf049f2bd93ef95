"""Deterministic fault injection for the synchronous engine.

The package splits into four layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, the pure seeded
  description of drops, duplications, link outages, and node crashes;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the per-run
  runtime state the engine consults (built via :meth:`FaultPlan.injector`);
* :mod:`repro.faults.reliable` — :class:`ReliableNode`, the ack/retry
  adapter that makes any protocol node survive an eventually-delivering
  plan, and :class:`ReliableRun`, the state its wrappers of one run share;
* :mod:`repro.faults.runners` — ``run_*_ft`` entry points wiring wrapped
  protocols and plans through the existing runners and verifiers.

See ``docs/FAULTS.md`` for the fault model and guarantees.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkOutage, NodeCrash
from repro.faults.reliable import (
    ReliableNode,
    ReliableRun,
    RetryBudgetExceeded,
    RetryPolicy,
)
from repro.faults.runners import (
    run_arrow_ft,
    run_central_counting_ft,
    run_flood_counting_ft,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "LinkOutage",
    "NodeCrash",
    "ReliableNode",
    "ReliableRun",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "run_arrow_ft",
    "run_central_counting_ft",
    "run_flood_counting_ft",
]
