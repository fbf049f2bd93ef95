"""Upper bounds on concurrent queuing via the arrow protocol (Section 4)."""

from __future__ import annotations

from repro.tsp.bounds import (
    binary_tree_tsp_bound,
    list_tsp_bound,
    mary_tree_tsp_bound,
    rosenkrantz_nn_bound,
)


def list_queuing_bound(n: int) -> int:
    """Lemma 4.3 + Theorem 4.1: arrow on the list costs <= 6n."""
    return 2 * list_tsp_bound(n)


def binary_tree_queuing_bound(n: int) -> int:
    """Theorem 4.7 + Theorem 4.1: arrow on the perfect binary tree, <= 2(2d(d+1)+8n)."""
    return 2 * binary_tree_tsp_bound(n)


def mary_tree_queuing_bound(n: int, m: int) -> int:
    """Theorem 4.12's envelope: arrow on a perfect m-ary spanning tree."""
    return 2 * mary_tree_tsp_bound(n, m)


def constant_degree_queuing_bound(n: int, k: int | None = None) -> float:
    """Corollary 4.2: arrow on any constant-degree spanning tree, O(n log n).

    Args:
        n: tree size.
        k: number of requesters (defaults to ``n``).
    """
    return 2 * rosenkrantz_nn_bound(n, n if k is None else k)

