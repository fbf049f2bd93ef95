"""Interconnection topologies studied by the paper.

Constructors for every graph family the paper's theorems mention — the
list (path), complete graph, d-dimensional mesh, hypercube, perfect m-ary
tree, star — plus auxiliary families used by the high-diameter experiments
(ring, torus, caterpillar, lollipop, random regular), explicit Hamilton
path constructions (Lemma 4.6), spanning-tree machinery (Section 4), and
graph-property computations (diameter for Theorem 3.6).
"""

from repro.topology.base import Graph
from repro.topology.graphs import (
    path_graph,
    ring_graph,
    complete_graph,
    star_graph,
    mesh_graph,
    torus_graph,
    hypercube_graph,
    perfect_mary_tree,
    caterpillar_graph,
    lollipop_graph,
    random_regular_graph,
    binary_tree_graph,
)
from repro.topology.hamilton import (
    hamilton_path_complete,
    hamilton_path_mesh,
    hamilton_path_hypercube,
    hamilton_path_of,
    is_hamilton_path,
)
from repro.topology.spanning import (
    SpanningTree,
    bfs_spanning_tree,
    dfs_spanning_tree,
    path_spanning_tree,
    star_spanning_tree,
    embedded_binary_tree,
    embedded_mary_tree,
    validate_spanning_tree,
)
from repro.topology.properties import (
    bfs_distances,
    next_hops_toward,
    all_pairs_distances,
    eccentricity,
    diameter,
    max_degree,
    is_connected,
)

__all__ = [
    "Graph",
    "path_graph",
    "ring_graph",
    "complete_graph",
    "star_graph",
    "mesh_graph",
    "torus_graph",
    "hypercube_graph",
    "perfect_mary_tree",
    "caterpillar_graph",
    "lollipop_graph",
    "random_regular_graph",
    "binary_tree_graph",
    "hamilton_path_complete",
    "hamilton_path_mesh",
    "hamilton_path_hypercube",
    "hamilton_path_of",
    "is_hamilton_path",
    "SpanningTree",
    "bfs_spanning_tree",
    "dfs_spanning_tree",
    "path_spanning_tree",
    "star_spanning_tree",
    "embedded_binary_tree",
    "embedded_mary_tree",
    "validate_spanning_tree",
    "bfs_distances",
    "next_hops_toward",
    "all_pairs_distances",
    "eccentricity",
    "diameter",
    "max_degree",
    "is_connected",
]
