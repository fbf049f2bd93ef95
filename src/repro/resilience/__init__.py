"""Runtime resilience: invariant monitors, watchdog, checkpoints, chaos.

The paper's guarantees are exact safety properties — counting must issue
the ranks ``{1..|R|}`` exactly once each, queuing must weave one total
order through predecessor links, a mutex token must exist exactly once —
yet post-hoc verification only reports *that* a run went wrong, not
*when* or *where*.  This package makes fault runs provably safe while
they execute and reproducible when they fail:

* :mod:`repro.resilience.invariants` — round-granular safety monitors
  plugged into the engine's ``monitors=`` hook (the same
  zero-cost-when-disabled pattern as :mod:`repro.obs`), raising a
  structured :class:`~repro.sim.errors.InvariantViolation` at the end of
  the offending round;
* :mod:`repro.resilience.watchdog` — liveness diagnosis: deadlock,
  livelock, and stalled-progress detection with the evidence attached
  (:class:`~repro.sim.errors.StallDetected`);
* :mod:`repro.resilience.checkpoint` — full engine+node+fault-RNG
  snapshots at round boundaries; a restored network resumes
  byte-identically, enabling deterministic replay from the last
  checkpoint before a violation;
* :mod:`repro.resilience.chaos` — a seeded chaos-search harness
  (``repro chaos``) sweeping fault plans over protocol x topology cells,
  shrinking failures to minimal reproducers, and emitting replayable
  JSON artifacts.

The chaos harness sweeps the protocol registry (:mod:`repro.protocols`),
which itself builds each protocol's invariant from this package, so its
names are imported on first access (PEP 562): importing the monitors
never loads the harness or the registry.

See ``docs/RESILIENCE.md`` for the workflow.
"""

import importlib

from repro.resilience.checkpoint import Checkpoint, PeriodicCheckpointer
from repro.resilience.invariants import (
    ArrowInvariant,
    CountingInvariant,
    InvariantMonitor,
    MonitorSet,
    QueuingInvariant,
    TokenInvariant,
)
from repro.resilience.watchdog import Watchdog

_CHAOS = frozenset({
    "ChaosCell",
    "ChaosFinding",
    "ChaosReport",
    "chaos_search",
    "load_artifact",
    "random_plan",
    "replay_artifact",
    "run_cell",
    "save_artifact",
    "shrink_plan",
})

__all__ = [
    "ArrowInvariant",
    "ChaosCell",
    "ChaosFinding",
    "ChaosReport",
    "Checkpoint",
    "CountingInvariant",
    "InvariantMonitor",
    "MonitorSet",
    "PeriodicCheckpointer",
    "QueuingInvariant",
    "TokenInvariant",
    "Watchdog",
    "chaos_search",
    "load_artifact",
    "random_plan",
    "replay_artifact",
    "run_cell",
    "save_artifact",
    "shrink_plan",
]


def __getattr__(name: str):
    """Resolve a chaos-harness name by importing :mod:`repro.resilience.chaos`."""
    if name not in _CHAOS:
        raise AttributeError(f"module 'repro.resilience' has no attribute {name!r}")
    return getattr(importlib.import_module("repro.resilience.chaos"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_CHAOS})
