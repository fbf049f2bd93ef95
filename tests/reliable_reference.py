"""The reliable wrapper's retry timer as a linear scan, for reference.

:class:`LinearScanReliableNode` replaces the two timer methods of
:class:`repro.faults.reliable.ReliableNode` with the plain loops the
timer heap replaced: ``_arm_timer`` takes ``min()`` over every pending
envelope, and ``on_wake`` walks ``sorted(pending)`` and retransmits
whatever is due.  Sending, acking and dedup are inherited unchanged.
``tests/test_faults.py`` runs protocols under both and diffs them.
"""

from __future__ import annotations

from repro.faults.reliable import ReliableNode, RetryBudgetExceeded


class LinearScanReliableNode(ReliableNode):
    __slots__ = ()

    def _arm_timer(self, ctx, now):
        if not self.pending:
            return
        due = max(min(p.due for p in self.pending.values()), now + 1)
        if self.armed is None:
            self.armed = set()
        if due not in self.armed:
            self.armed.add(due)
            ctx.schedule_wakeup(due)

    def on_wake(self, ctx):
        shared = self.shared
        t = ctx.now
        self.armed.discard(t)
        due_inner = [r for r in sorted(self.inner_wakes or ()) if r <= t]
        if due_inner:
            self.inner_wakes.difference_update(due_inner)
            self.inner.on_wake(self)
        for seq in sorted(self.pending or ()):
            p = self.pending[seq]
            if p.due > t:
                continue
            if shared.plan is not None:
                clear = shared.plan.blocked_until(self.node_id, p.dst, t)
                if clear is not None and clear > t:
                    p.due = clear
                    if shared.metrics is not None:
                        shared.metrics.inc("reliable.budget_pauses")
                    continue
            if p.attempts > shared.policy.max_retries:
                raise RetryBudgetExceeded(
                    self.node_id, p.dst, p.kind, p.attempts, round_=t,
                    faulty=shared.plan is not None and not shared.plan.is_empty(),
                )
            p.attempts += 1
            p.interval = shared.policy.next_interval(p.interval)
            p.due = t + p.interval
            if shared.metrics is not None:
                shared.metrics.inc("reliable.retransmits")
            ctx.send(p.dst, "rel", payload=(seq, p.kind, p.payload))
        self._arm_timer(ctx, t)
