"""Lower bounds on concurrent counting (Section 3), evaluated exactly.

These are bounds on *every* counting algorithm, so they cannot be
measured; instead the experiments evaluate them exactly and assert that
every implemented counting algorithm's measured total delay dominates
them.

* Theorem 3.5 (any graph): a processor outputting count ``k`` has latency
  at least the smallest ``t`` with ``tow(2t) >= k``; summing over the
  processors with counts ``>= n/2`` gives ``Omega(n log* n)``.
* Theorem 3.6 (diameter ``alpha``): the processor receiving count ``k``
  with ``k > n - alpha/2`` has latency ``>= alpha/2 + k - n``; summing
  gives ``Omega(alpha^2)``.
"""

from __future__ import annotations

from repro.bounds.towers import TOW_MAX_EXACT, log_star, tow


def min_latency_for_count(k: int) -> int:
    """Lemma 3.1 + 3.4: the least ``t`` such that ``tow(2t) >= k``.

    A processor that outputs count ``k`` must have been influenced by at
    least ``k`` processors, and influence spreads no faster than
    ``a(t) <= tow(2t)``.  Since ``log*(k) <= 2t`` exactly when
    ``k <= tow(2t)``, this is ``ceil(log*(k) / 2)``, the paper's
    ``log*(k) / 2`` per count.

    Raises:
        ValueError: for ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"count must be >= 1, got {k}")
    return (log_star(k) + 1) // 2


def theorem35_lower_bound(n: int, requesters: int | None = None) -> int:
    """Theorem 3.5's exact sum: total-delay lower bound on any graph.

    With ``r`` requesters (default: all ``n`` nodes counting), counts
    ``1..r`` are all handed out; the processor with count ``k`` has
    latency at least :func:`min_latency_for_count`.  Returns the exact
    integer sum — the quantity that is ``Omega(n log* n)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = n if requesters is None else requesters
    if not (0 <= r <= n):
        raise ValueError(f"requesters must be in [0, {n}], got {r}")
    total = 0
    k = 1
    t = 0
    # Latency jumps only at tow(2t) boundaries: counts in
    # (tow(2t), tow(2t+2)] need latency t+1.  Sum in O(log* r) blocks.
    while k <= r:
        while 2 * t <= TOW_MAX_EXACT and tow(2 * t) < k:
            t += 1
        # All counts k' with tow(2(t-1)) < k' <= tow(2t) share latency t.
        hi = tow(2 * t) if 2 * t <= TOW_MAX_EXACT else r
        hi = min(hi, r)
        total += t * (hi - k + 1)
        k = hi + 1
    return total


def theorem36_lower_bound(alpha: int) -> int:
    """Theorem 3.6's exact sum for a graph of diameter ``alpha``.

    Summing the latencies ``1, 2, ..., floor(alpha/2)`` of the highest
    counts gives ``m(m+1)/2`` with ``m = floor(alpha/2)`` — the quantity
    that is ``Omega(alpha^2)``.
    """
    if alpha < 0:
        raise ValueError(f"diameter must be >= 0, got {alpha}")
    m = alpha // 2
    return m * (m + 1) // 2


def per_op_diameter_bound(count: int, n: int, alpha: int) -> int:
    """Theorem 3.6's per-operation bound (all ``n`` nodes counting).

    The proof shows the op receiving count ``k > n - alpha/2`` has latency
    at least ``alpha/2 + k - n``; for smaller counts the bound is 0.
    """
    if count < 1 or count > n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    return max(0, alpha // 2 + count - n)

