"""repro — a reproduction of "Concurrent counting is harder than queuing".

Busch & Tirthapura (IPDPS 2006; TCS 411:3823-3833, 2010) compare two
distributed coordination problems on a synchronous message-passing
network where every node may send and receive at most one message per
round: *counting* (requesters learn their rank in a total order) and
*queuing* (requesters learn their predecessor).  The paper proves
counting is asymptotically harder on every graph with a Hamilton path, a
perfect m-ary spanning tree, or high diameter — and that the separation
vanishes on the star.

This library implements the whole stack from scratch:

* :mod:`repro.sim` — the synchronous network model as a deterministic
  simulator;
* :mod:`repro.topology`, :mod:`repro.tree` — the graph families and
  spanning-tree machinery of the theorems;
* :mod:`repro.arrow` — the arrow queuing protocol (the upper-bound side);
* :mod:`repro.counting` — four counting algorithms (central, combining
  tree, full-information gossip, bitonic counting network);
* :mod:`repro.faults` — seeded fault injection (drops, duplicates, link
  outages, crashes) and the reliable-delivery wrapper with ``run_*_ft``
  fault-tolerant protocol variants;
* :mod:`repro.tsp` — nearest-neighbour TSP tours and every Section-4
  bound;
* :mod:`repro.bounds` — exact evaluation of every lower/upper-bound
  expression in the paper;
* :mod:`repro.multicast`, :mod:`repro.mutex` — the motivating
  applications (totally ordered multicast, token-based mutual exclusion);
* :mod:`repro.resilience` — runtime invariant monitors, a liveness
  watchdog, checkpoint/restore with deterministic replay, and a
  chaos-search harness over seeded fault plans;
* :mod:`repro.experiments` — one runnable experiment per theorem, with
  pass criteria.

Quick start::

    from repro import complete_graph, path_spanning_tree, run_arrow

    g = complete_graph(32)
    result = run_arrow(path_spanning_tree(g), requests=range(32))
    print(result.total_delay, result.order())
"""

from repro.adding import run_central_addition, run_combining_addition
from repro.arrow import arrow_vs_tsp, run_arrow, run_arrow_longlived
from repro.bounds import (
    counting_lower_bound,
    log_star,
    theorem35_lower_bound,
    theorem36_lower_bound,
    tow,
)
from repro.core import (
    CountingResult,
    QueuingResult,
    verify_counting,
    verify_queuing,
)
from repro.counting import (
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
    run_periodic_counting,
)
from repro.directory import run_object_directory
from repro.experiments import ALL_EXPERIMENTS
from repro.faults import (
    FaultPlan,
    LinkOutage,
    NodeCrash,
    RetryPolicy,
    run_arrow_ft,
    run_central_counting_ft,
    run_flood_counting_ft,
)
from repro.multicast import run_counting_multicast, run_queuing_multicast
from repro.mutex import run_token_mutex
from repro.resilience import (
    ArrowInvariant,
    ChaosCell,
    Checkpoint,
    CountingInvariant,
    MonitorSet,
    PeriodicCheckpointer,
    TokenInvariant,
    Watchdog,
    chaos_search,
)
from repro.sim import ConstantDelay, SynchronousNetwork, TargetedDelay, UniformDelay
from repro.topology import (
    Graph,
    binary_tree_graph,
    caterpillar_graph,
    complete_graph,
    hypercube_graph,
    lollipop_graph,
    mesh_graph,
    path_graph,
    perfect_mary_tree,
    ring_graph,
    star_graph,
    torus_graph,
)
from repro.topology.spanning import (
    SpanningTree,
    bfs_spanning_tree,
    dfs_spanning_tree,
    embedded_binary_tree,
    embedded_mary_tree,
    path_spanning_tree,
    star_spanning_tree,
)
from repro.tree import RootedTree
from repro.tsp import nearest_neighbor_tour

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # protocols
    "run_arrow",
    "run_arrow_longlived",
    "arrow_vs_tsp",
    "run_central_counting",
    "run_central_queuing",
    "run_combining_counting",
    "run_counting_network",
    "run_flood_counting",
    "run_periodic_counting",
    "run_combining_addition",
    "run_central_addition",
    # fault tolerance
    "FaultPlan",
    "LinkOutage",
    "NodeCrash",
    "RetryPolicy",
    "run_arrow_ft",
    "run_central_counting_ft",
    "run_flood_counting_ft",
    # resilience
    "MonitorSet",
    "CountingInvariant",
    "ArrowInvariant",
    "TokenInvariant",
    "Watchdog",
    "Checkpoint",
    "PeriodicCheckpointer",
    "ChaosCell",
    "chaos_search",
    # applications
    "run_object_directory",
    "run_counting_multicast",
    "run_queuing_multicast",
    "run_token_mutex",
    # bounds
    "tow",
    "log_star",
    "theorem35_lower_bound",
    "theorem36_lower_bound",
    "counting_lower_bound",
    # model & results
    "SynchronousNetwork",
    "ConstantDelay",
    "UniformDelay",
    "TargetedDelay",
    "CountingResult",
    "QueuingResult",
    "verify_counting",
    "verify_queuing",
    # topology
    "Graph",
    "path_graph",
    "ring_graph",
    "complete_graph",
    "star_graph",
    "mesh_graph",
    "torus_graph",
    "hypercube_graph",
    "perfect_mary_tree",
    "binary_tree_graph",
    "caterpillar_graph",
    "lollipop_graph",
    # trees
    "RootedTree",
    "SpanningTree",
    "bfs_spanning_tree",
    "dfs_spanning_tree",
    "path_spanning_tree",
    "star_spanning_tree",
    "embedded_binary_tree",
    "embedded_mary_tree",
    # tsp
    "nearest_neighbor_tour",
    # experiments
    "ALL_EXPERIMENTS",
]
