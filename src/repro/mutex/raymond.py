"""Arrow-queued token passing for distributed mutual exclusion.

Raymond's mutex is the arrow directory run on the tree itself: the token
takes the unique tree path from each holder to its successor, which is
what :func:`repro.directory.run_object_directory` does on ``G = T``.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.directory.protocol import DirectoryOutcome, run_object_directory
from repro.topology.spanning import SpanningTree


def run_token_mutex(
    spanning: SpanningTree,
    requests: Iterable[int],
    *,
    cs_rounds: int = 1,
    tail: int | None = None,
    capacity: int | None = None,
    **options: Any,
) -> DirectoryOutcome:
    """Run one-shot token-based mutual exclusion over the arrow queue.

    The outcome is the directory's: ``acquire_rounds`` holds the round
    each requester entered the critical section, ``use_rounds`` is
    ``cs_rounds``, and ``exclusive_holding()`` is mutual exclusion.

    Args:
        spanning: spanning tree carrying both the arrow queue and the
            token's travels.
        requests: vertices that want the critical section (all request at
            round 0).
        cs_rounds: how long each critical section lasts.
        tail: initial token holder (default: tree root).
        capacity: per-round message budget (default: tree max degree).
        **options: run options, forwarded to
            :func:`repro.sim.run_protocol`.  Pair ``monitors=`` with
            :class:`repro.resilience.TokenInvariant` to assert token
            uniqueness at the end of every round.

    Raises:
        ValueError: if a request vertex or ``tail`` is not a tree vertex,
            or ``cs_rounds`` is negative.
        AssertionError: if some requester never entered the critical
            section or two critical sections overlapped (would indicate a
            protocol bug).
    """
    if cs_rounds < 0:
        raise ValueError(f"cs_rounds must be >= 0, got {cs_rounds}")
    return run_object_directory(
        spanning.as_graph(), spanning, requests,
        use_rounds=cs_rounds, home=tail, capacity=capacity, **options,
    )
