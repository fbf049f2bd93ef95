"""Combining-tree fetch-and-add, and the fetch-and-add result type.

Runs the combining tree of :mod:`repro.counting.combining` with arbitrary
integer increments: the up phase aggregates subtree sums and the down
phase distributes prefix sums.  A requester receives its inclusive prefix
and the runner subtracts its own increment to report the prior sum.  The
message pattern — hence the delay profile — is the one combining-tree
counting sends, demonstrating that addition is at least as expensive as
counting on the same tree (and strictly harder to shortcut: the result
depends on every predecessor's value, not just their number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.counting.combining import _run_combining
from repro.sim import RunStats
from repro.topology.spanning import SpanningTree


@dataclass(frozen=True)
class AdditionResult:
    """Outcome of a one-shot fetch-and-add execution, verified when built.

    Attributes:
        algorithm: short name of the adding algorithm.
        increments: vertex -> its contributed increment.
        prior_sums: vertex -> the accumulator value *before* its own
            increment took effect (fetch-and-add's return value).
        order: the induced total order of the requesters.
        delays: vertex -> round the prior sum arrived back.
        stats: engine accounting.

    Raises:
        AssertionError: if the result breaks the fetch-and-add
            specification: ``order`` must be a permutation of the
            participants (the keys of ``increments``), ``prior_sums`` must
            hold exactly those keys, and along ``order`` every prior sum
            must equal the prefix sum of the increments ordered before it.
    """

    algorithm: str
    increments: dict[int, int]
    prior_sums: dict[int, int]
    order: tuple[int, ...]
    delays: dict[int, int]
    stats: RunStats

    def __post_init__(self) -> None:
        participants = sorted(self.increments)
        if sorted(self.order) != participants or sorted(self.prior_sums) != participants:
            raise AssertionError(
                f"order {list(self.order)} and prior sums {sorted(self.prior_sums)} must "
                f"each hold the participants {participants} once"
            )
        running = 0
        for v in self.order:
            if self.prior_sums[v] != running:
                raise AssertionError(
                    f"vertex {v}: prior sum {self.prior_sums[v]} != prefix {running}"
                )
            running += self.increments[v]

    @property
    def total_delay(self) -> int:
        """The paper's cost metric: sum of per-operation delays."""
        return sum(self.delays.values())

    @property
    def max_delay(self) -> int:
        """Largest single operation delay."""
        return max(self.delays.values(), default=0)


def run_combining_addition(
    spanning: SpanningTree,
    increments: Mapping[int, int],
    *,
    capacity: int = 1,
    **options: Any,
) -> AdditionResult:
    """Run combining-tree fetch-and-add; the result is verified.

    Args:
        spanning: the spanning tree to combine along.
        increments: mapping vertex -> integer increment (vertices absent
            from the mapping do not participate).
        capacity: per-round message budget (1 = strict model).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.
    """
    nodes, net = _run_combining(spanning, increments, capacity, options)
    prior = {
        v: int(s) - increments[v] for v, s in net.delays.result_by_op().items()
    }
    # The induced order is the DFS order of requesters: recover it by
    # walking the tree exactly as _distribute did (iteratively — spanning
    # trees can be path-shaped and deeper than the recursion limit).
    order: list[int] = []
    stack = [spanning.root]
    while stack:
        v = stack.pop()
        if v in increments:
            order.append(v)
        stack.extend(
            c for c in reversed(spanning.tree.children[v]) if nodes[c].requesters
        )
    return AdditionResult(
        algorithm=f"combining-add[{spanning.label}]",
        increments=dict(increments),
        prior_sums=prior,
        order=tuple(order),
        delays=net.delays.delay_by_op(),
        stats=net.stats,
    )
