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

import importlib

__version__ = "1.0.0"

#: public name -> the module that defines it.  Resolved on first access
#: (PEP 562), so ``from repro.sim import ...`` does not load the whole
#: library, and only the experiment suite and a few seeded generators
#: load numpy.
_EXPORTS = {
    # protocols
    "run_arrow": "repro.arrow",
    "run_arrow_longlived": "repro.arrow",
    "arrow_vs_tsp": "repro.arrow",
    "run_central_counting": "repro.counting",
    "run_central_queuing": "repro.counting",
    "run_combining_counting": "repro.counting",
    "run_counting_network": "repro.counting",
    "run_flood_counting": "repro.counting",
    "run_periodic_counting": "repro.counting",
    "run_combining_addition": "repro.adding",
    "run_central_addition": "repro.adding",
    # fault tolerance
    "FaultPlan": "repro.faults",
    "LinkOutage": "repro.faults",
    "NodeCrash": "repro.faults",
    "RetryPolicy": "repro.faults",
    "run_arrow_ft": "repro.faults",
    "run_central_counting_ft": "repro.faults",
    "run_flood_counting_ft": "repro.faults",
    # resilience
    "MonitorSet": "repro.resilience",
    "CountingInvariant": "repro.resilience",
    "ArrowInvariant": "repro.resilience",
    "TokenInvariant": "repro.resilience",
    "Watchdog": "repro.resilience",
    "Checkpoint": "repro.resilience",
    "PeriodicCheckpointer": "repro.resilience",
    "ChaosCell": "repro.resilience",
    "chaos_search": "repro.resilience",
    # applications
    "run_object_directory": "repro.directory",
    "run_counting_multicast": "repro.multicast",
    "run_queuing_multicast": "repro.multicast",
    "run_token_mutex": "repro.mutex",
    # bounds
    "tow": "repro.bounds",
    "log_star": "repro.bounds",
    "theorem35_lower_bound": "repro.bounds",
    "theorem36_lower_bound": "repro.bounds",
    "counting_lower_bound": "repro.bounds",
    # model & results
    "SynchronousNetwork": "repro.sim",
    "ConstantDelay": "repro.sim",
    "UniformDelay": "repro.sim",
    "TargetedDelay": "repro.sim",
    "CountingResult": "repro.core",
    "QueuingResult": "repro.core",
    "verify_counting": "repro.core",
    "verify_queuing": "repro.core",
    # topology
    "Graph": "repro.topology",
    "path_graph": "repro.topology",
    "ring_graph": "repro.topology",
    "complete_graph": "repro.topology",
    "star_graph": "repro.topology",
    "mesh_graph": "repro.topology",
    "torus_graph": "repro.topology",
    "hypercube_graph": "repro.topology",
    "perfect_mary_tree": "repro.topology",
    "binary_tree_graph": "repro.topology",
    "caterpillar_graph": "repro.topology",
    "lollipop_graph": "repro.topology",
    # trees
    "RootedTree": "repro.tree",
    "SpanningTree": "repro.topology.spanning",
    "bfs_spanning_tree": "repro.topology.spanning",
    "dfs_spanning_tree": "repro.topology.spanning",
    "path_spanning_tree": "repro.topology.spanning",
    "star_spanning_tree": "repro.topology.spanning",
    "embedded_binary_tree": "repro.topology.spanning",
    "embedded_mary_tree": "repro.topology.spanning",
    # tsp
    "nearest_neighbor_tour": "repro.tsp",
    # experiments
    "ALL_EXPERIMENTS": "repro.experiments",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import the module that defines ``name`` and cache the value here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
