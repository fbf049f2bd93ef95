"""Result types for counting and queuing runs, and the queuing op ids.

A result is its own certificate: building a :class:`CountingResult` or a
:class:`QueuingResult` checks its problem's correctness condition
(Section 2.2), so a runner cannot return a wrong answer.  The validators
are imported where they are called: :mod:`repro.core.verify` imports
this module, and a caller that swaps a validator on that module (a
timing harness, a test) reaches every result this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.sim import RunStats, SynchronousNetwork


def init_op(tail: int) -> tuple[str, int]:
    """The dummy operation parked at the initial queue tail ``tail``."""
    return ("init", tail)


def op_of(v: int) -> tuple[str, int]:
    """The identifier of the queuing operation issued by node ``v``."""
    return ("op", v)


@dataclass(frozen=True)
class CountingResult:
    """Outcome of a one-shot concurrent counting execution, verified when built.

    Attributes:
        algorithm: short name of the counting algorithm.
        requests: the requesting vertices, sorted.
        counts: vertex -> rank received (must be exactly ``1..len(requests)``).
        delays: vertex -> round in which the rank arrived back at the
            requester — the paper's counting delay ``l_C``.
        stats: engine accounting for the run.

    Raises:
        VerificationError: if ``counts`` is not exactly ``1..|R|`` over
            the requesters.
    """

    algorithm: str
    requests: tuple[int, ...]
    counts: dict[int, int]
    delays: dict[int, int]
    stats: RunStats

    def __post_init__(self) -> None:
        from repro.core.verify import verify_counting  # verify imports this module

        verify_counting(self.requests, self.counts)

    @classmethod
    def of(
        cls, algorithm: str, requests: tuple[int, ...], net: SynchronousNetwork
    ) -> CountingResult:
        """The result of a finished counting run on ``net``, whose ops
        complete under their requester's vertex with its rank."""
        delays = net.delays
        counts = {v: int(c) for v, c in delays.result_by_op().items()}
        return cls(algorithm, requests, counts, delays.delay_by_op(), net.stats)

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
    """Outcome of a concurrent queuing execution, verified when built.

    Attributes:
        algorithm: short name of the queuing algorithm.
        requests: the requesting vertices, sorted.
        predecessors: operation id (:func:`op_of`) -> predecessor
            operation id; the first real operation's predecessor is the
            initial dummy operation :func:`init_op` of ``tail``.
        delays: operation id -> rounds from the operation's issue to the
            round it learned its predecessor — the paper's queuing delay
            ``l_Q`` (every operation is issued in round 0 except in
            long-lived arrow).
        tail: the vertex holding the initial queue tail.
        stats: engine accounting for the run.

    Raises:
        VerificationError: if the predecessor links do not form one
            chain over a non-empty request set.  A result with no
            requests has no chain to check.
    """

    algorithm: str
    requests: tuple[int, ...]
    predecessors: dict[Hashable, Hashable]
    delays: dict[Hashable, int]
    tail: int
    stats: RunStats

    def __post_init__(self) -> None:
        self.order()

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
