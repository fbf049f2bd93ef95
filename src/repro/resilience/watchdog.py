"""Liveness diagnosis: deadlock, livelock, and stalled-progress detection.

A bare :class:`~repro.sim.errors.RoundLimitExceeded` says a run did not
finish; it does not say *why*.  The :class:`Watchdog` watches the
engine's progress signals at the end of every executed round and raises
a :class:`~repro.sim.errors.StallDetected` carrying a diagnosis instead:

* **stall** — messages are in flight or wakeups are pending, but nothing
  was delivered for a full window of executed rounds;
* **livelock** — messages keep moving (retransmits, gossip churn) but no
  operation completed for a much longer window;
* **deadlock** — the network quiesced (nothing in flight, no wakeups)
  with requesters still incomplete.  Detected instantly at quiescence,
  not after a round budget expires.

The watchdog is crash-aware: rounds in which the fault plan has a node
down do not count against the windows — scheduled unavailability is not
a hang.  Retry-budget state is scanned off the reliable-delivery
wrappers (the nodes whose ``shared`` is a
:class:`~repro.faults.reliable.ReliableRun`) and attached to the
diagnosis.
"""

from __future__ import annotations

from typing import Any

from repro.sim.errors import StallDetected


class Watchdog:
    """Progress monitor for one run (attach via :class:`MonitorSet`).

    Args:
        stall_window: executed rounds without any delivery before a
            ``"stall"`` diagnosis.
        livelock_window: executed rounds without any completion (while
            messages still move) before a ``"livelock"`` diagnosis.
            Contention-bound protocols legitimately go Theta(n^2) rounds
            between completions — size this from the instance, not from
            impatience.
        expected_completions: total operations the run must complete;
            enables the instant deadlock diagnosis at quiescence.
            ``None`` disables it (quiescence is then trusted).
    """

    def __init__(
        self,
        stall_window: int = 1_000,
        livelock_window: int = 50_000,
        expected_completions: int | None = None,
    ) -> None:
        if stall_window < 1 or livelock_window < 1:
            raise ValueError("watchdog windows must be >= 1 round")
        self.stall_window = stall_window
        self.livelock_window = livelock_window
        self.expected_completions = expected_completions
        self._last_delivery_mark = 0
        self._last_completion_mark = 0
        self._seen_delivered = -1
        self._seen_completed = -1
        #: executed-round counter mirrored from the engine (idle jumps
        #: skip model rounds; the watchdog counts rounds actually run).
        self._checked = 0

    # ------------------------------------------------------- engine hooks

    def on_round(self, net: Any) -> None:
        self._checked += 1
        inj = net._injector
        if inj is not None and inj.down_but_recovering(net.now, net._graph.adj):
            # A node is down by schedule but will recover: progress cannot
            # be demanded of this round.  Push both marks so the windows
            # restart at recovery.  Permanent crashes deliberately do NOT
            # pause the clock — a run hung on a node that never comes back
            # is exactly what the watchdog exists to diagnose.
            self._last_delivery_mark = self._checked
            self._last_completion_mark = self._checked
            return
        delivered = net.stats.messages_delivered
        completed = len(net.delays)
        if delivered != self._seen_delivered:
            self._seen_delivered = delivered
            self._last_delivery_mark = self._checked
        if completed != self._seen_completed:
            self._seen_completed = completed
            self._last_completion_mark = self._checked
        done = (
            self.expected_completions is not None
            and completed >= self.expected_completions
        )
        if done:
            return  # all operations answered; the tail is just drainage
        if self._checked - self._last_delivery_mark >= self.stall_window:
            self._diagnose(net, "stall", self._checked - self._last_delivery_mark)
        if self._checked - self._last_completion_mark >= self.livelock_window:
            self._diagnose(
                net, "livelock", self._checked - self._last_completion_mark
            )

    def on_finish(self, net: Any) -> None:
        """Quiescence reached: diagnose a deadlock if requesters remain."""
        if self.expected_completions is None:
            return
        completed = len(net.delays)
        if completed < self.expected_completions:
            self._diagnose(net, "deadlock", 0)

    # ---------------------------------------------------------- diagnosis

    def _diagnose(self, net: Any, kind: str, window: int) -> None:
        raise StallDetected(
            kind,
            net.now,
            window,
            pending_nodes=net._pending_nodes(),
            oldest=net._oldest_undelivered(),
            retry_state=self._retry_state(net),
            in_flight=net._in_flight,
            wakeups_pending=sum(len(due) for due in net._wakeups.values()),
        )

    @staticmethod
    def _retry_state(net: Any) -> dict[int, tuple[int, int]]:
        """Per-node ``(pending_envelopes, max_attempts)`` retry summaries,
        for the reliable-delivery wrappers with unacked envelopes."""
        from repro.faults.reliable import ReliableRun  # loading resilience loads no faults

        state: dict[int, tuple[int, int]] = {}
        for v in net.node_ids:
            node = net.node(v)
            if not isinstance(getattr(node, "shared", None), ReliableRun):
                continue
            pending = node.pending  # None until the wrapper's first send
            if pending:
                state[v] = (
                    len(pending),
                    max(p.attempts for p in pending.values()),
                )
        return state


__all__ = ["Watchdog"]
