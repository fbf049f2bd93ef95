"""Result types for counting and queuing runs, and the queuing op ids."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.sim import RunStats


def init_op(tail: int) -> tuple[str, int]:
    """The dummy operation parked at the initial queue tail ``tail``."""
    return ("init", tail)


def op_of(v: int) -> tuple[str, int]:
    """The identifier of the queuing operation issued by node ``v``."""
    return ("op", v)


@dataclass(frozen=True)
class CountingResult:
    """Outcome of a one-shot concurrent counting execution.

    Attributes:
        algorithm: short name of the counting algorithm.
        requests: the requesting vertices, sorted.
        counts: vertex -> rank received (must be exactly ``1..len(requests)``).
        delays: vertex -> round in which the rank arrived back at the
            requester — the paper's counting delay ``l_C``.
        stats: engine accounting for the run.
    """

    algorithm: str
    requests: tuple[int, ...]
    counts: dict[int, int]
    delays: dict[int, int]
    stats: RunStats

    @property
    def total_delay(self) -> int:
        """The paper's cost: sum of per-operation delays."""
        return sum(self.delays.values())

    @property
    def max_delay(self) -> int:
        """Largest single operation delay."""
        return max(self.delays.values(), default=0)


@dataclass(frozen=True)
class QueuingResult:
    """Outcome of a one-shot concurrent queuing execution.

    Attributes:
        algorithm: short name of the queuing algorithm.
        requests: the requesting vertices, sorted.
        predecessors: operation id (:func:`op_of`) -> predecessor
            operation id; the first real operation's predecessor is the
            initial dummy operation :func:`init_op` of ``tail``.
        delays: operation id -> round in which the operation learned its
            predecessor — the paper's queuing delay ``l_Q``.
        tail: the vertex holding the initial queue tail.
        stats: engine accounting for the run.
    """

    algorithm: str
    requests: tuple[int, ...]
    predecessors: dict[Hashable, Hashable]
    delays: dict[Hashable, int]
    tail: int
    stats: RunStats

    @property
    def total_delay(self) -> int:
        """The paper's cost: sum of per-operation delays."""
        return sum(self.delays.values())

    @property
    def max_delay(self) -> int:
        """Largest single operation delay."""
        return max(self.delays.values(), default=0)

    def order(self) -> list[int]:
        """The requesting vertices in queue order (empty if none requested).

        Raises:
            VerificationError: if the predecessor links do not form one
                chain over all requests.
        """
        from repro.core.verify import verify_queuing  # verify imports this module

        if not self.requests:
            return []
        return [op[1] for op in verify_queuing(self.requests, self.predecessors, self.tail)]
