#!/usr/bin/env python
"""Distributed mutual exclusion on the arrow tree (Raymond's setting).

The arrow protocol's original application: nodes on a network compete
for a critical section; the arrow queue orders them and a single token
travels from each finishing holder to its successor.  This example runs
the full loop on a mesh, prints the critical-section schedule, and
demonstrates the safety property plus how the spanning-tree choice
changes waiting times.
"""

from repro import mesh_graph, run_token_mutex
from repro.topology.spanning import bfs_spanning_tree, path_spanning_tree


def main() -> None:
    g = mesh_graph([4, 4])
    requesters = list(range(0, g.n, 2))  # every other node wants the CS
    cs_rounds = 3

    print(f"{g.name}: {len(requesters)} nodes request a {cs_rounds}-round CS\n")
    for label, st in {
        "hamilton-path tree": path_spanning_tree(g),
        "bfs tree": bfs_spanning_tree(g),
    }.items():
        out = run_token_mutex(st, requesters, cs_rounds=cs_rounds)
        assert out.exclusive_holding()
        print(f"spanning tree: {label}")
        print(f"  CS order      : {list(out.order)}")
        entries = [out.acquire_rounds[v] for v in out.order]
        print(f"  entry rounds  : {entries}")
        print(f"  total waiting : {out.total_waiting}")
        print("  mutual exclusion verified: intervals never overlap\n")


if __name__ == "__main__":
    main()
