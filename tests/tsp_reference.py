"""Exact tour costs on tree metrics, for reference.

:func:`held_karp_optimal` finds the optimal open tour by subset dynamic
programming; :func:`tsp_path_lower_bound` is its closed form on a tree
(``2E - ecc`` over the Steiner subtree).  ``tests/test_tsp.py`` checks
that the two agree, and the tour tests check nearest-neighbour tours
against both.
"""

from __future__ import annotations

from typing import Iterable

from repro.tree import RootedTree


def held_karp_optimal(tree: RootedTree, requests: Iterable[int], start: int | None = None) -> int:
    """Exact minimum open-tour cost visiting ``requests`` from ``start``.

    Classic Held–Karp subset DP over the request set; exponential in
    ``|R|`` and guarded at 16 requesters.

    Raises:
        ValueError: if more than 16 distinct requesters are given.
    """
    if start is None:
        start = tree.root
    req = sorted(set(requests))
    k = len(req)
    if k == 0:
        return 0
    if k > 16:
        raise ValueError(f"Held-Karp limited to 16 requesters, got {k}")

    d_start = [tree.distance(start, v) for v in req]
    d = [[tree.distance(u, v) for v in req] for u in req]

    full = 1 << k
    INF = float("inf")
    # dp[mask][i] = min cost to visit exactly `mask` ending at req[i]
    dp = [[INF] * k for _ in range(full)]
    for i in range(k):
        dp[1 << i][i] = d_start[i]
    for mask in range(full):
        row = dp[mask]
        for i in range(k):
            ci = row[i]
            if ci == INF or not (mask >> i) & 1:
                continue
            for j in range(k):
                if (mask >> j) & 1:
                    continue
                nm = mask | (1 << j)
                cand = ci + d[i][j]
                if cand < dp[nm][j]:
                    dp[nm][j] = cand
    return int(min(dp[full - 1]))


def steiner_subtree_edges(tree: RootedTree, requests: Iterable[int], start: int | None = None) -> int:
    """Number of edges of the minimal subtree spanning ``requests`` and ``start``.

    This is the Steiner tree of R on the tree metric; every tour visiting
    R from ``start`` must traverse each of its edges at least once.
    """
    if start is None:
        start = tree.root
    terminals = set(requests) | {start}
    # Mark all vertices on paths from terminals up to the root, then count
    # edges of the minimal connecting subtree via LCA-closure: the union
    # of root-paths of terminals, trimmed above the top-most branching.
    marked = set()
    for t in terminals:
        v = t
        while v not in marked:
            marked.add(v)
            if v == tree.root:
                break
            v = tree.parent[v]
    # Trim the chain above the highest vertex that is a terminal or a
    # branching point of the marked subtree.
    children_count = {v: 0 for v in marked}
    for v in marked:
        if v != tree.root and tree.parent[v] in children_count:
            children_count[tree.parent[v]] += 1
    top = tree.root
    while top not in terminals and children_count.get(top, 0) == 1:
        top = next(c for c in tree.children[top] if c in marked)
    # Count edges of the subtree rooted at `top` induced by `marked`.
    edges = 0
    stack = [top]
    while stack:
        v = stack.pop()
        for c in tree.children[v]:
            if c in marked:
                edges += 1
                stack.append(c)
    return edges


def tsp_path_lower_bound(tree: RootedTree, requests: Iterable[int], start: int | None = None) -> int:
    """A lower bound on the cost of *any* tour visiting ``requests``.

    An open tour over a Steiner subtree with ``E`` edges must traverse
    every edge and can avoid re-traversing only the edges on one
    root-to-end path, so it costs at least ``2E - ecc`` where ``ecc`` is
    the largest distance from ``start`` to a requester.  (Also at least
    ``ecc`` itself.)
    """
    if start is None:
        start = tree.root
    req = list(set(requests))
    if not req:
        return 0
    e = steiner_subtree_edges(tree, req, start)
    ecc = max(tree.distance(start, v) for v in req)
    return max(ecc, 2 * e - ecc)
