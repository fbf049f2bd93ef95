#!/usr/bin/env python
"""Scaling study: counting vs queuing across topologies and sizes.

Sweeps the algorithm portfolio over the paper's graph families, fits
log-log growth exponents, and prints a compact report showing where the
separation appears (Hamilton-path graphs, high-diameter graphs) and
where it vanishes (the star).  This is the example to start from when
extending the library with new topologies or algorithms.
"""

from repro import (
    complete_graph,
    path_graph,
    run_arrow,
    run_central_counting,
    run_combining_counting,
    star_graph,
)
from repro.core.comparison import growth_exponent
from repro.experiments.report import render_table
from repro.topology.spanning import (
    embedded_binary_tree,
    path_spanning_tree,
    star_spanning_tree,
)


def sweep(family, sizes):
    rows = []
    for n in sizes:
        g, queuing_tree, counting_tree = family(n)
        requests = list(range(g.n))
        arrow = run_arrow(queuing_tree, requests, capacity=1)
        if counting_tree is not None:
            counting = run_combining_counting(counting_tree, requests)
        else:
            counting = run_central_counting(g, requests)
        rows.append(
            {
                "graph": g.name,
                "n": g.n,
                "counting": counting.total_delay,
                "queuing(arrow)": arrow.total_delay,
                "ratio": counting.total_delay / max(1, arrow.total_delay),
            }
        )
    return rows


def main() -> None:
    families = {
        "complete graph (Hamilton path)": (
            lambda n: (
                complete_graph(n),
                path_spanning_tree(complete_graph(n)),
                embedded_binary_tree(complete_graph(n)),
            ),
            (8, 16, 32, 64),
        ),
        "list (high diameter)": (
            lambda n: (path_graph(n), path_spanning_tree(path_graph(n)), None),
            (16, 32, 64, 128),
        ),
        "star (the counterexample)": (
            lambda n: (star_graph(n), star_spanning_tree(star_graph(n)), None),
            (8, 16, 32, 64),
        ),
    }
    for label, (family, sizes) in families.items():
        rows = sweep(family, sizes)
        print(f"=== {label} ===")
        print(render_table(rows))
        ns = [r["n"] for r in rows]
        ec = growth_exponent(ns, [r["counting"] for r in rows])
        eq = growth_exponent(ns, [r["queuing(arrow)"] for r in rows])
        print(f"fitted exponents: counting ~ n^{ec:.2f}, queuing ~ n^{eq:.2f}")
        trend = rows[-1]["ratio"] / rows[0]["ratio"]
        verdict = "separation grows" if trend > 1.5 else "no separation"
        print(f"counting/queuing ratio trend: x{trend:.1f} across the sweep -> {verdict}\n")


if __name__ == "__main__":
    main()
