"""Rooted-tree machinery shared by the arrow protocol, TSP, and counting.

A :class:`RootedTree` stores parents/children/depths and answers distance
queries via binary-lifting LCA — the tree metric that both the arrow
protocol analysis (Theorem 4.1) and the nearest-neighbour TSP bounds
(Section 4) are stated in.
"""

from repro.tree.tree import RootedTree, TreeError, random_tree

__all__ = [
    "RootedTree",
    "TreeError",
    "random_tree",
]
