"""Runtime fault state for one simulation run.

A :class:`FaultInjector` is built from a :class:`~repro.faults.plan.FaultPlan`
by the engine (via :meth:`FaultPlan.injector`) and consulted from the
engine's three phases:

* :meth:`tick` — once per visited round, emits crash/recover trace
  events whose scheduled round has been reached (rounds may be skipped by
  the engine's idle jumps, so boundaries are emitted "at or before" their
  round with the *scheduled* round recorded);
* :meth:`crashed` — whether a node is down this round (send phase skips
  crashed senders, receive phase skips crashed receivers, wake phase
  defers their wakeups);
* :meth:`on_link_entry` — the verdict for a message leaving an outbox:
  deliver, drop (loss, outage), or deliver-plus-duplicate.

All randomness comes from two ``random.Random`` streams seeded from the
plan, drawn in the engine's deterministic send order, so a run under a
plan is exactly reproducible.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Container

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.message import Message

#: Verdicts returned by :meth:`FaultInjector.on_link_entry`.
DELIVER = "deliver"
DUPLICATE = "duplicate"
DROP = "drop"
OUTAGE = "outage"


class FaultInjector:
    """Seeded per-run fault state (see module docstring)."""

    __slots__ = (
        "plan",
        "_rng_drop",
        "_rng_dup",
        "_drop_runs",
        "_crashes_by_node",
        "_outages_by_edge",
        "_boundaries",
    )

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        # String seeds hash via SHA-512, so the streams are independent of
        # PYTHONHASHSEED — replays are stable across interpreters.
        self._rng_drop = random.Random(f"drop:{plan.seed}")
        self._rng_dup = random.Random(f"dup:{plan.seed}")
        #: directed link -> current run of consecutive random drops.
        self._drop_runs: dict[tuple[int, int], int] = {}
        self._crashes_by_node: dict[int, list] = {}
        for c in plan.crashes:
            self._crashes_by_node.setdefault(c.node, []).append(c)
        self._outages_by_edge: dict[tuple[int, int], list] = {}
        for o in plan.outages:
            self._outages_by_edge.setdefault(o.edge, []).append(o)
        #: (round, event, node) crash/recover boundaries not yet emitted,
        #: sorted so :meth:`tick` can emit them in schedule order.
        self._boundaries: list[tuple[int, str, int]] = sorted(
            [(c.start, "crash", c.node) for c in plan.crashes]
            + [(c.end, "recover", c.node) for c in plan.crashes if c.end is not None]
        )

    # ------------------------------------------------------------- crashes

    def has_crashes(self) -> bool:
        """Whether the plan schedules any node crash."""
        return bool(self._crashes_by_node)

    def crashed(self, node: int, round_: int) -> bool:
        """Whether ``node`` is down in ``round_``."""
        crashes = self._crashes_by_node.get(node)
        if not crashes:
            return False
        return any(c.down(round_) for c in crashes)

    def recovery_round(self, node: int, round_: int) -> int | None:
        """First round after ``round_`` in which ``node`` is live again.

        Returns ``None`` when the node never recovers.  Used by the wake
        phase to defer a crashed node's wakeups.
        """
        for c in self._crashes_by_node.get(node, ()):
            if c.down(round_):
                return c.end
        return round_ + 1  # pragma: no cover - callers check crashed() first

    def down_but_recovering(self, round_: int, nodes: Container[int]) -> bool:
        """Whether some node in ``nodes`` is down in ``round_`` and will recover.

        Equal to ``any(crashed(v, round_) and recovery_round(v, round_) is
        not None for v in nodes)``, but it looks only at the nodes that
        have crash windows, so a crash-free plan answers at once.  The
        watchdog asks this every round to pause its windows.
        """
        for node, crashes in self._crashes_by_node.items():
            if node not in nodes:
                continue
            for c in crashes:
                if c.down(round_):
                    # recovery_round() answers from the first down window.
                    if c.end is not None:
                        return True
                    break
        return False

    def tick(self, round_: int, stats, trace, metrics=None) -> None:
        """Emit crash/recover boundaries scheduled at or before ``round_``.

        ``stats`` gains one ``node_crashes`` increment per crash window
        entered; ``trace`` (when not ``None``) records the boundary with
        its *scheduled* round, even if the engine's idle jumps skipped
        that round; ``metrics`` (when not ``None``) gains
        ``faults.node_crashes``/``faults.node_recoveries`` counters and a
        per-boundary sample so crash windows line up with the per-round
        gauges.
        """
        while self._boundaries and self._boundaries[0][0] <= round_:
            at, event, node = self._boundaries.pop(0)
            if event == "crash":
                stats.node_crashes += 1
            if metrics is not None:
                metrics.inc(
                    "faults.node_crashes" if event == "crash"
                    else "faults.node_recoveries"
                )
                metrics.sample(f"faults.{event}", at, node)
            if trace is not None:
                trace.record(event, at, node=node)

    # ------------------------------------------------------- link verdicts

    def on_link_entry(self, msg: "Message", round_: int) -> str:
        """Fate of ``msg`` as it moves from the outbox onto its link.

        Returns one of :data:`OUTAGE` (link down this round), :data:`DROP`
        (random loss), :data:`DUPLICATE` (deliver plus one copy), or
        :data:`DELIVER`.  Consecutive random drops per directed link are
        capped at the plan's ``max_consecutive_drops``; the RNG streams
        are drawn unconditionally so verdicts never depend on earlier
        forced deliveries.
        """
        plan = self.plan
        outages = self._outages_by_edge
        if outages:
            src, dst = msg.src, msg.dst
            edge = (src, dst) if src < dst else (dst, src)
            for o in outages.get(edge, ()):
                if o.down(round_):
                    return OUTAGE
        if plan.drop_rate > 0.0:
            lossy = self._rng_drop.random() < plan.drop_rate
            key = (msg.src, msg.dst)
            run = self._drop_runs.get(key, 0)
            if lossy and (
                plan.max_consecutive_drops is None
                or run < plan.max_consecutive_drops
            ):
                self._drop_runs[key] = run + 1
                return DROP
            self._drop_runs[key] = 0
        if plan.duplicate_rate > 0.0 and self._rng_dup.random() < plan.duplicate_rate:
            return DUPLICATE
        return DELIVER
