"""Delay accounting: the paper's concurrent delay complexity metric.

The metric of the paper (Section 2.2) is the *total delay*: the sum over
all requesters of the round in which their operation completed, maximized
over request sets.  :class:`DelayRecorder` collects per-operation
completion rounds during a run; the result a runner builds from them
(:mod:`repro.core.problem`) totals them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable

from repro.sim.errors import ProtocolViolation


@dataclass(slots=True, frozen=True)
class OperationRecord:
    """Completion record for one operation.

    Attributes:
        op_id: the operation identifier passed to ``ctx.complete``.
        round: the round in which the response condition held.
        result: protocol-defined response (a count for counting, a
            predecessor identifier for queuing).
        at_node: node at which the completion was recorded.
    """

    op_id: Hashable
    round: int
    result: Any
    at_node: int


class DelayRecorder:
    """Collects operation completions during a simulation run."""

    def __init__(self) -> None:
        self._records: dict[Hashable, OperationRecord] = {}

    def record(self, op_id: Hashable, round_: int, *, result: Any, at_node: int) -> None:
        """Record the completion of ``op_id`` at round ``round_``.

        Raises:
            ProtocolViolation: if the operation already completed.
        """
        if op_id in self._records:
            raise ProtocolViolation(f"operation {op_id!r} completed twice")
        self._records[op_id] = OperationRecord(op_id, round_, result, at_node)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, op_id: Hashable) -> bool:
        return op_id in self._records

    def delay_by_op(self) -> dict[Hashable, int]:
        """Mapping operation id -> completion round."""
        return {op: rec.round for op, rec in self._records.items()}

    def result_by_op(self) -> dict[Hashable, Any]:
        """Mapping operation id -> protocol result value."""
        return {op: rec.result for op, rec in self._records.items()}

    def records(self) -> list[OperationRecord]:
        """All completion records, sorted by (round, op id repr)."""
        return sorted(self._records.values(), key=lambda r: (r.round, repr(r.op_id)))
