"""Validators for the two problems' correctness conditions.

Every experiment run is passed through these before its delays are
trusted: a protocol bug that produced wrong ranks or a broken predecessor
chain would otherwise silently corrupt the delay comparison.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.problem import init_op, op_of


class VerificationError(AssertionError):
    """A counting or queuing output violated the problem specification."""


def verify_counting(requests: Iterable[int], counts: Mapping[int, int]) -> None:
    """Check Section 2.2's counting condition.

    The counts received by the requesters must be exactly
    ``{1, 2, ..., |R|}`` and non-requesters must not receive one.

    Raises:
        VerificationError: on any violation, including an empty request
            set (the problem is defined for ``|R| >= 1``; an empty set
            reaching a validator means the harness built a degenerate
            instance).
    """
    req = set(requests)
    if not req:
        raise VerificationError("empty request set: nothing to count")
    got = set(counts)
    if got != req:
        extra = sorted(got - req)[:5]
        missing = sorted(req - got)[:5]
        raise VerificationError(
            f"count recipients != requesters (extra={extra}, missing={missing})"
        )
    values = sorted(counts.values())
    if values != list(range(1, len(req) + 1)):
        raise VerificationError(
            f"counts are not exactly 1..{len(req)}: got {values[:10]}..."
        )


def verify_queuing(
    requests: Iterable[int],
    predecessors: Mapping[Hashable, Hashable],
    tail: int,
) -> list[Hashable]:
    """Check Section 2.2's queuing condition and return the total order.

    The predecessor pointers must form one chain that starts at the
    initial dummy operation ``init_op(tail)`` and covers every
    requester's operation ``op_of(v)`` exactly once.

    Returns:
        The operations in queue order (excluding the dummy).

    Raises:
        VerificationError: on an empty request set, a missing operation,
            a fork (two operations with the same predecessor), or a
            cycle.
    """
    req = set(requests)
    if not req:
        raise VerificationError("empty request set: nothing to queue")
    ops = {op_of(v) for v in req}
    if set(predecessors) != ops:
        raise VerificationError(
            f"predecessor map covers {len(predecessors)} ops, expected {len(ops)}"
        )
    succ: dict[Hashable, Hashable] = {}
    for op, pred in predecessors.items():
        if pred in succ:
            raise VerificationError(f"fork: {pred!r} precedes two operations")
        succ[pred] = op
    chain: list[Hashable] = []
    cur: Hashable = init_op(tail)
    seen = set()
    while cur in succ:
        cur = succ[cur]
        if cur in seen:
            raise VerificationError(f"cycle through {cur!r}")
        seen.add(cur)
        chain.append(cur)
    if len(chain) != len(ops):
        raise VerificationError(
            f"chain from the initial tail covers {len(chain)} of {len(ops)} ops"
        )
    return chain


def verify_total_order_consistency(
    orders: Sequence[Sequence[Hashable]],
) -> None:
    """Check that several reconstructed orders are identical.

    Used by the ordered-multicast application: every receiver must deliver
    the same sequence.

    Raises:
        VerificationError: if any two orders differ.
    """
    if not orders:
        return
    first = list(orders[0])
    for i, other in enumerate(orders[1:], start=1):
        if list(other) != first:
            raise VerificationError(
                f"delivery order at receiver {i} differs from receiver 0"
            )
