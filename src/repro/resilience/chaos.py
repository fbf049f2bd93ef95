"""Chaos search: sweep seeded fault plans, shrink failures, replay them.

The harness behind ``repro chaos``.  It sweeps deterministically seeded
:class:`~repro.faults.FaultPlan`\\ s over *cells* — (protocol, topology,
size) triples — running each cell under full monitoring (safety
invariants + watchdog), classifies every failure, *shrinks* failing
plans to minimal reproducers by greedy delta-debugging, and emits them
as replayable JSON artifacts.

Everything is deterministic: a cell x plan pair always produces the same
outcome, so a saved artifact replays to the same failure kind at the
same round on any machine — that equality is what ``repro chaos
--replay`` asserts.

Guarantee being searched: under an *eventually-delivering* plan every
monitored protocol must complete and verify.  A failure on such a plan
is a bug (CI runs in exactly this mode); failures on plans with
permanent crashes are expected diagnoses (retry exhaustion) and are
useful as shrink/replay fixtures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faults.plan import FaultPlan, LinkOutage, NodeCrash
from repro.faults.reliable import RetryBudgetExceeded, RetryPolicy
from repro.protocols import PROTOCOLS
from repro.resilience.invariants import MonitorSet
from repro.resilience.watchdog import Watchdog
from repro.sim.errors import (
    InvariantViolation,
    RoundLimitExceeded,
    StallDetected,
)
from repro.topology.base import TopologyError
from repro.topology.graphs import complete_graph, path_graph, ring_graph, star_graph
from repro.topology.hamilton import hamilton_path_of

#: Artifact schema tag (bump on incompatible layout changes).
ARTIFACT_SCHEMA = "repro.chaos/1"

#: Default cap on model rounds per chaos run — chaos must terminate fast.
DEFAULT_MAX_ROUNDS = 20_000

#: The cells ``repro chaos`` sweeps by default: one per registered protocol.
DEFAULT_CELLS = (
    "flood_ft:ring:8", "central_ft:star:8", "arrow_ft:path:8",
    "combining_ft:star:8", "cnet_ft:complete:8", "periodic_ft:ring:8",
    "sweep_ft:path:8", "central_queuing_ft:star:8", "sweep_queuing_ft:path:8",
)

#: topology name -> graph builder.
TOPOLOGIES: dict[str, Callable[[int], Any]] = {
    "path": path_graph,
    "ring": ring_graph,
    "star": star_graph,
    "complete": complete_graph,
}


@dataclass(frozen=True)
class ChaosCell:
    """One protocol x topology x size cell of the chaos matrix.

    ``protocol`` is a :data:`repro.protocols.PROTOCOLS` name with an
    ``_ft`` suffix: the protocol runs under each plan with reliable
    delivery.
    """

    protocol: str
    topology: str
    n: int

    def key(self) -> str:
        """The CLI spelling, ``protocol:topology:n``."""
        return f"{self.protocol}:{self.topology}:{self.n}"

    @classmethod
    def parse(cls, spec: str) -> "ChaosCell":
        """Parse ``protocol:topology:n`` (the ``--cells`` grammar)."""
        try:
            protocol, topology, n_s = spec.split(":")
            cell = cls(protocol, topology, int(n_s))
        except ValueError:
            raise ValueError(
                f"malformed cell spec {spec!r}; want protocol:topology:n"
            ) from None
        known = sorted(f"{name}_ft" for name in PROTOCOLS)
        if cell.protocol not in known:
            raise ValueError(f"unknown protocol {cell.protocol!r}; known: {known}")
        if cell.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {cell.topology!r}; "
                f"known: {sorted(TOPOLOGIES)}"
            )
        if cell.n < 2:
            raise ValueError(f"cell size must be >= 2, got {cell.n}")
        if PROTOCOLS[protocol.removesuffix("_ft")].needs_path:
            try:
                hamilton_path_of(cell.graph())
            except TopologyError:
                raise ValueError(
                    f"{protocol} needs a Hamilton path; {cell.key()} has none"
                ) from None
        return cell

    def graph(self):
        """Build this cell's communication graph."""
        return TOPOLOGIES[self.topology](self.n)


# --------------------------------------------------------------- running


def _classify(exc: Exception) -> tuple[str, int | None]:
    """(failure kind, round) for one caught run failure."""
    if isinstance(exc, InvariantViolation):
        return f"invariant:{exc.invariant}", exc.round
    if isinstance(exc, StallDetected):
        return f"stall:{exc.kind}", exc.round
    if isinstance(exc, RetryBudgetExceeded):
        return "retry-exhausted", getattr(exc, "round", None)
    if isinstance(exc, RoundLimitExceeded):
        return "round-limit", exc.max_rounds
    if isinstance(exc, (AssertionError, ValueError)):
        return "verify", None
    raise exc  # not a modeled failure: propagate (it is a harness bug)


def run_cell(
    cell: ChaosCell, plan: FaultPlan, *, max_rounds: int = DEFAULT_MAX_ROUNDS
) -> dict[str, Any]:
    """Run one cell under one plan with full monitoring.

    Returns ``{"status": "ok"}`` or ``{"status": "fail", "kind": ...,
    "round": ..., "error": ...}``.  Deterministic: the same (cell, plan)
    always yields the same outcome.
    """
    spec = PROTOCOLS[cell.protocol.removesuffix("_ft")]
    monitors = MonitorSet(
        invariants=(spec.invariant(cell.n),),
        watchdog=Watchdog(
            stall_window=500, livelock_window=5_000, expected_completions=cell.n
        ),
    )
    try:
        # Every registered runner verifies its own output.
        spec.run(
            cell.graph(), range(cell.n), faults=plan, reliable=RetryPolicy(),
            max_rounds=max_rounds, monitors=monitors,
        )
    except Exception as exc:  # noqa: BLE001 - classified, unknowns re-raised
        kind, round_ = _classify(exc)
        return {
            "status": "fail",
            "kind": kind,
            "round": round_,
            "error": str(exc),
        }
    return {"status": "ok"}


def random_plan(
    rng: random.Random, cell: ChaosCell, *, allow_permanent: bool = False
) -> FaultPlan:
    """One seeded random fault plan sized to ``cell``.

    Draws drop/duplicate rates, a consecutive-drop bound, and up to two
    crash windows and two link outages over the cell's real edges.  With
    ``allow_permanent=False`` (the CI default) every window is finite, so
    the plan is eventually delivering and any failure is a bug.
    """
    n = cell.n
    drop = rng.choice([0.0, 0.1, 0.2, 0.3])
    dup = rng.choice([0.0, 0.05, 0.1])
    runs = rng.randint(1, 3)
    crashes = []
    for _ in range(rng.randint(0, 2)):
        start = rng.randrange(0, 25)
        end: int | None = start + rng.randint(1, 12)
        if allow_permanent and rng.random() < 0.25:
            end = None
        crashes.append(NodeCrash(node=rng.randrange(n), start=start, end=end))
    edges = sorted(
        {(min(u, v), max(u, v)) for u, nbrs in cell.graph().adj.items() for v in nbrs}
    )
    outages = []
    for _ in range(rng.randint(0, 2)):
        u, v = edges[rng.randrange(len(edges))]
        start = rng.randrange(0, 25)
        outages.append(LinkOutage(u=u, v=v, start=start, end=start + rng.randint(1, 10)))
    plan = FaultPlan(
        seed=rng.randrange(2**31),
        drop_rate=drop,
        duplicate_rate=dup,
        max_consecutive_drops=runs,
        outages=tuple(outages),
        crashes=tuple(crashes),
    )
    if plan.is_empty():
        plan = FaultPlan(seed=plan.seed, drop_rate=0.1, max_consecutive_drops=runs)
    return plan


# -------------------------------------------------------------- shrinking


def shrink_plan(
    cell: ChaosCell,
    plan: FaultPlan,
    kind: str,
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> FaultPlan:
    """Greedy delta-debugging: the smallest plan still failing like ``kind``.

    Tries, to fixpoint: dropping each crash and each outage, zeroing the
    duplicate then the drop rate, and halving crash/outage windows.  A
    candidate is accepted when the cell still fails with the *same
    failure kind* (the round may move while shrinking; the final plan's
    round is re-pinned by the caller's artifact).
    """

    def still_fails(candidate: FaultPlan) -> bool:
        out = run_cell(cell, candidate, max_rounds=max_rounds)
        return out["status"] == "fail" and out["kind"] == kind

    current = plan
    changed = True
    while changed:
        changed = False
        for i in range(len(current.crashes)):
            candidate = _replace(
                current,
                crashes=current.crashes[:i] + current.crashes[i + 1 :],
            )
            if still_fails(candidate):
                current, changed = candidate, True
                break
        if changed:
            continue
        for i in range(len(current.outages)):
            candidate = _replace(
                current,
                outages=current.outages[:i] + current.outages[i + 1 :],
            )
            if still_fails(candidate):
                current, changed = candidate, True
                break
        if changed:
            continue
        if current.duplicate_rate > 0.0:
            candidate = _replace(current, duplicate_rate=0.0)
            if still_fails(candidate):
                current, changed = candidate, True
                continue
        if current.drop_rate > 0.0:
            candidate = _replace(current, drop_rate=0.0)
            if still_fails(candidate):
                current, changed = candidate, True
                continue
        for i, c in enumerate(current.crashes):
            if c.end is None or c.end - c.start <= 1:
                continue
            shorter = NodeCrash(c.node, c.start, c.start + (c.end - c.start) // 2)
            candidate = _replace(
                current,
                crashes=current.crashes[:i] + (shorter,) + current.crashes[i + 1 :],
            )
            if still_fails(candidate):
                current, changed = candidate, True
                break
        if changed:
            continue
        for i, o in enumerate(current.outages):
            if o.end - o.start <= 1:
                continue
            shorter = LinkOutage(o.u, o.v, o.start, o.start + (o.end - o.start) // 2)
            candidate = _replace(
                current,
                outages=current.outages[:i] + (shorter,) + current.outages[i + 1 :],
            )
            if still_fails(candidate):
                current, changed = candidate, True
                break
    return current


def _replace(plan: FaultPlan, **kwargs: Any) -> FaultPlan:
    from dataclasses import replace

    return replace(plan, **kwargs)


# -------------------------------------------------------------- artifacts


def save_artifact(
    path: str, cell: ChaosCell, plan: FaultPlan, failure: dict[str, Any]
) -> None:
    """Write one replayable reproducer artifact as JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema": ARTIFACT_SCHEMA,
                "cell": {
                    "protocol": cell.protocol,
                    "topology": cell.topology,
                    "n": cell.n,
                },
                "plan": plan.to_dict(),
                "failure": failure,
            },
            fh,
            indent=2,
        )
        fh.write("\n")


def load_artifact(path: str) -> tuple[ChaosCell, FaultPlan, dict[str, Any]]:
    """Read an artifact written by :func:`save_artifact`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != ARTIFACT_SCHEMA:
        raise ValueError(
            f"unsupported artifact schema {data.get('schema')!r} in {path}"
        )
    cell = ChaosCell(**data["cell"])
    return cell, FaultPlan.from_dict(data["plan"]), data["failure"]


def replay_artifact(
    cell: ChaosCell,
    plan: FaultPlan,
    failure: dict[str, Any],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> tuple[bool, dict[str, Any]]:
    """Re-run an artifact and check it fails identically.

    Returns ``(reproduced, observed_outcome)`` where ``reproduced`` means
    the same failure kind at the same round as recorded.
    """
    observed = run_cell(cell, plan, max_rounds=max_rounds)
    reproduced = (
        observed["status"] == "fail"
        and observed["kind"] == failure["kind"]
        and observed.get("round") == failure.get("round")
    )
    return reproduced, observed


# ----------------------------------------------------------------- search


@dataclass
class ChaosFinding:
    """One failing (cell, plan) discovered by :func:`chaos_search`."""

    cell: ChaosCell
    plan: FaultPlan
    failure: dict[str, Any]
    shrunk_plan: FaultPlan | None = None
    shrunk_failure: dict[str, Any] | None = None

    @property
    def final_plan(self) -> FaultPlan:
        """The minimal reproducer when shrunk, the original otherwise."""
        return self.shrunk_plan if self.shrunk_plan is not None else self.plan

    @property
    def final_failure(self) -> dict[str, Any]:
        return (
            self.shrunk_failure
            if self.shrunk_failure is not None
            else self.failure
        )


@dataclass
class ChaosReport:
    """Aggregate outcome of one :func:`chaos_search` sweep."""

    runs: int = 0
    findings: list[ChaosFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def chaos_search(
    cells: list[ChaosCell],
    seeds: range,
    *,
    allow_permanent: bool = False,
    shrink: bool = True,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Sweep seeded plans over ``cells``; shrink and report failures.

    One plan is derived per (cell, seed) from a string-seeded RNG, so a
    sweep is reproducible independent of ``PYTHONHASHSEED``.  Each
    failure is optionally shrunk to a minimal reproducer and re-run once
    to pin its final (kind, round) into the finding.
    """
    report = ChaosReport()
    for cell in cells:
        for seed in seeds:
            rng = random.Random(f"chaos:{cell.key()}:{seed}")
            plan = random_plan(rng, cell, allow_permanent=allow_permanent)
            outcome = run_cell(cell, plan, max_rounds=max_rounds)
            report.runs += 1
            if outcome["status"] == "ok":
                continue
            if progress is not None:
                progress(
                    f"{cell.key()} seed {seed}: {outcome['kind']} "
                    f"({plan.describe()})"
                )
            finding = ChaosFinding(cell=cell, plan=plan, failure=outcome)
            if shrink:
                shrunk = shrink_plan(
                    cell, plan, outcome["kind"], max_rounds=max_rounds
                )
                finding.shrunk_plan = shrunk
                finding.shrunk_failure = run_cell(
                    cell, shrunk, max_rounds=max_rounds
                )
                if progress is not None:
                    progress(
                        f"  shrunk to: {shrunk.describe()} -> "
                        f"{finding.shrunk_failure.get('kind')}"
                    )
            report.findings.append(finding)
    return report


__all__ = [
    "ARTIFACT_SCHEMA",
    "ChaosCell",
    "ChaosFinding",
    "ChaosReport",
    "DEFAULT_CELLS",
    "DEFAULT_MAX_ROUNDS",
    "TOPOLOGIES",
    "chaos_search",
    "load_artifact",
    "random_plan",
    "replay_artifact",
    "run_cell",
    "save_artifact",
    "shrink_plan",
]
