"""Closed-form bounds on nearest-neighbour tour costs (Section 4).

Each function evaluates exactly the expression proved in the paper, so
benchmarks can assert ``measured <= bound`` for every instance:

* :func:`list_tsp_bound` — Lemma 4.3's ``3n``;
* :func:`binary_tree_tsp_bound` — the ``2d(d+1) + 8n`` envelope from the
  proof of Theorem 4.7;
* :func:`mary_tree_tsp_bound` — the m-ary generalisation (Theorem 4.12);
* :func:`rosenkrantz_nn_bound` — Corollary 4.2's ``O(n log n)`` envelope
  via the Rosenkrantz–Stearns–Lewis ``log k`` approximation ratio.
"""

from __future__ import annotations

import math


def list_tsp_bound(n: int) -> int:
    """Lemma 4.3: a nearest-neighbour tour on the list of ``n`` vertices costs <= 3n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 3 * n


def binary_tree_tsp_bound(n: int) -> int:
    """Theorem 4.7's explicit envelope for the perfect binary tree.

    The proof sums ``cost(l) <= 4n * 2^l / 2^d + 2d`` over the levels
    ``l = 0..d`` with ``d = floor(log2 n)``, giving
    ``2d(d+1) + 8n = Theta(n)``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = n.bit_length() - 1  # floor(log2 n)
    return 2 * d * (d + 1) + 8 * n


def mary_tree_tsp_bound(n: int, m: int) -> int:
    """The m-ary analogue of Theorem 4.7's envelope (used for Theorem 4.12).

    For constant ``m`` the same level-by-level argument gives
    ``cost <= 2d(d+1) + c_m * n`` with ``c_m = 4m/(m-1)``; we evaluate the
    ceiling of that constant.  For ``m = 2`` this coincides with
    :func:`binary_tree_tsp_bound`.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d = max(0, math.ceil(math.log(n * (m - 1) + 1, m)) - 1)
    c_m = math.ceil(4 * m / (m - 1))
    return 2 * d * (d + 1) + c_m * n


def rosenkrantz_nn_bound(n: int, k: int) -> float:
    """Corollary 4.2's envelope: NN tour on a tree visiting k requesters.

    Rosenkrantz, Stearns and Lewis (1977) show the nearest-neighbour
    heuristic is within ``(ceil(log2 k) + 1) / 2`` of the optimum on any
    metric.  On a tree with ``n`` vertices the optimal tour costs at most
    ``2(n - 1)`` (Euler tour), hence NN <= ``(ceil(log2 k)+1)(n-1)`` —
    the ``O(n log n)`` of Corollary 4.2.
    """
    if k < 1:
        return 0.0
    return (math.ceil(math.log2(k)) + 1 if k > 1 else 1) * (n - 1)
