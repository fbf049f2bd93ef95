"""One runnable experiment per theorem/lemma/figure of the paper.

Every function returns an :class:`~repro.experiments.harness.ExperimentResult`
whose ``rows`` regenerate the corresponding table/series and whose
``checks`` encode the *shape* criteria: who wins, by what factor, where
the crossover falls.  Absolute round counts are simulator-specific; the
checks are written against the paper's asymptotic statements.

Default sizes are chosen so the full suite runs in a couple of minutes;
pass larger ``sizes`` for publication-scale sweeps.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.arrow import arrow_vs_tsp, run_arrow, run_arrow_longlived
from repro.arrow.longlived import poisson_issue_times
from repro.bounds import (
    ab_trajectory,
    binary_tree_queuing_bound,
    constant_degree_queuing_bound,
    f_recurrence,
    list_queuing_bound,
    mary_tree_queuing_bound,
    theorem35_lower_bound,
    theorem36_lower_bound,
    tow,
    verify_ab_tower_bound,
    verify_f_bound,
)
from repro.core.comparison import growth_exponent
from repro.core.problem import init_op, op_of
from repro.counting import (
    run_central_counting,
    run_central_queuing,
    run_combining_counting,
    run_counting_network,
    run_flood_counting,
)
from repro.experiments.harness import ExperimentResult
from repro.multicast import run_counting_multicast, run_queuing_multicast
from repro.mutex import run_token_mutex
from repro.protocols import PROTOCOLS
from repro.topology import (
    caterpillar_graph,
    complete_graph,
    diameter,
    hypercube_graph,
    lollipop_graph,
    mesh_graph,
    path_graph,
    perfect_mary_tree,
    star_graph,
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
from repro.tree import random_tree as _random_rooted_tree
from repro.tsp import (
    binary_tree_tsp_bound,
    lemma44_legs,
    list_tsp_bound,
    mary_tree_tsp_bound,
    nearest_neighbor_tour,
    rosenkrantz_nn_bound,
)
from repro.tsp.runs import satisfies_lemma44




# ---------------------------------------------------------------------------
# E1 — Fig. 1: the semantics of counting vs queuing on one instance
# ---------------------------------------------------------------------------


def run_e1_fig1_semantics() -> ExperimentResult:
    """Reproduce Fig. 1: three requesters, counting ranks vs queuing preds."""
    res = ExperimentResult(
        exp_id="E1",
        title="Counting vs queuing semantics on one instance",
        paper_ref="Fig. 1",
    )
    g = complete_graph(6)
    requests = [0, 2, 4]  # the solid nodes a, c, e of Fig. 1

    counting = run_central_counting(g, requests, root=0)
    st = path_spanning_tree(g)
    queuing = run_arrow(st, requests)
    order = queuing.order()

    for v in requests:
        op = op_of(v)
        pred = queuing.predecessors[op]
        pred_label = "init" if pred == init_op(queuing.tail) else f"node {pred[1]}"
        res.rows.append(
            {
                "node": v,
                "count_received": counting.counts[v],
                "queuing_pred": pred_label,
                "count_delay": counting.delays[v],
                "queue_delay": queuing.delays[op],
            }
        )
    res.check(
        "counting hands out exactly {1..|R|}",
        sorted(counting.counts.values()) == [1, 2, 3],
        f"counts={counting.counts}",
    )
    res.check(
        "queuing forms one chain over R",
        sorted(order) == sorted(requests),
        f"order={order}",
    )
    res.notes = (
        "Counting gives each requester global information (its rank); "
        "queuing gives only the local predecessor — the informational "
        "asymmetry the paper builds on."
    )
    return res


# ---------------------------------------------------------------------------
# E2 — Theorem 3.5: Omega(n log* n) on any graph (K_n, all counting algos)
# ---------------------------------------------------------------------------


def run_e2_thm35_general_lower_bound(
    sizes: Sequence[int] = (8, 16, 32, 64),
) -> ExperimentResult:
    """Every counting algorithm on K_n dominates the Theorem 3.5 sum."""
    res = ExperimentResult(
        exp_id="E2",
        title="General counting lower bound on the complete graph",
        paper_ref="Theorem 3.5",
    )
    from repro.analysis.profiles import latency_by_rank

    min_margin = float("inf")
    arrow_beats_all = True
    per_op_ok = True
    for n in sizes:
        g = complete_graph(n)
        requests = list(range(n))
        lb = theorem35_lower_bound(n)
        combining = run_combining_counting(embedded_binary_tree(g), requests)
        flood = run_flood_counting(g, requests)
        cnet = run_counting_network(g, requests)
        central = run_central_counting(g, requests)
        arrow = run_arrow(path_spanning_tree(g), requests)
        best_counting = min(
            combining.total_delay,
            flood.total_delay,
            cnet.total_delay,
            central.total_delay,
        )
        res.rows.append(
            {
                "n": n,
                "LB(Thm3.5)": lb,
                "combining": combining.total_delay,
                "flood": flood.total_delay,
                "cnet": cnet.total_delay,
                "central": central.total_delay,
                "arrow(queuing)": arrow.total_delay,
            }
        )
        for name, total in (
            ("combining", combining.total_delay),
            ("flood", flood.total_delay),
            ("cnet", cnet.total_delay),
            ("central", central.total_delay),
        ):
            if lb > 0:
                min_margin = min(min_margin, total / lb)
        for r in (combining, flood, cnet, central):
            per_op_ok &= latency_by_rank(r, n=n, diameter=1).respects_bounds()
        if n >= 16 and arrow.total_delay >= best_counting:
            arrow_beats_all = False
    res.check(
        "every counting algorithm >= Thm 3.5 bound",
        min_margin >= 1.0,
        f"min measured/bound = {min_margin:.2f}",
    )
    res.check(
        "every individual operation respects the Lemma 3.1 latency bound",
        per_op_ok,
    )
    res.check(
        "arrow (queuing) beats the best counting algorithm for n >= 16",
        arrow_beats_all,
    )
    return res


# ---------------------------------------------------------------------------
# E3 — Lemmas 3.2-3.4 and 4.8: the growth recurrences
# ---------------------------------------------------------------------------


def run_e3_recurrences(t_max: int = 4, k_max: int = 12) -> ExperimentResult:
    """The a/b information-spread recurrences and the f(k) tour recurrence."""
    res = ExperimentResult(
        exp_id="E3",
        title="Information-spread and tour-cost recurrences",
        paper_ref="Lemmas 3.2, 3.3, 3.4, 4.8",
    )
    a, b = ab_trajectory(t_max)
    for t in range(t_max + 1):
        if 2 * t <= 5 and tow(2 * t) < 10**12:
            tower_label = str(tow(2 * t))
        else:
            tower_label = f"tow({2 * t})"  # astronomically large
        res.rows.append(
            {
                "t": t,
                "a(t)": a[t] if a[t] < 10**12 else f"~2^{a[t].bit_length() - 1}",
                "b(t)": b[t] if b[t] < 10**12 else f"~2^{b[t].bit_length() - 1}",
                "tow(2t)": tower_label,
            }
        )
    res.check("a(t), b(t) <= tow(2t)", verify_ab_tower_bound(t_max))
    res.check(f"f(k) < 2^(k+2) for k <= {k_max}", verify_f_bound(k_max))
    res.check(
        "f(5) matches the closed recursion",
        f_recurrence(5) == 2 * f_recurrence(4) + 10,
        f"f(5)={f_recurrence(5)}",
    )
    return res


# ---------------------------------------------------------------------------
# E4 — Theorem 3.6: diameter-based lower bound (list and mesh)
# ---------------------------------------------------------------------------


def run_e4_thm36_diameter_lower_bound(
    list_sizes: Sequence[int] = (16, 32, 64, 128),
    mesh_sides: Sequence[int] = (3, 4, 5, 6),
) -> ExperimentResult:
    """Counting on high-diameter graphs costs Omega(alpha^2); queuing doesn't."""
    res = ExperimentResult(
        exp_id="E4",
        title="Diameter lower bound: list Omega(n^2), mesh Omega(n sqrt n)",
        paper_ref="Theorem 3.6",
    )
    from repro.analysis.profiles import latency_by_rank

    ok_lb = True
    per_op_ok = True
    list_counting: list[tuple[int, int]] = []
    list_arrow: list[tuple[int, int]] = []
    for n in list_sizes:
        g = path_graph(n)
        alpha = n - 1
        lb = theorem36_lower_bound(alpha)
        counting = run_central_counting(g, list(range(n)), root=0)
        per_op_ok &= latency_by_rank(counting, n=n, diameter=alpha).respects_bounds()
        arrow = run_arrow(path_spanning_tree(g), list(range(n)))
        res.rows.append(
            {
                "graph": g.name,
                "n": n,
                "diam": alpha,
                "LB(Thm3.6)": lb,
                "central_counting": counting.total_delay,
                "arrow(queuing)": arrow.total_delay,
            }
        )
        ok_lb &= counting.total_delay >= lb
        list_counting.append((n, counting.total_delay))
        list_arrow.append((n, arrow.total_delay))
    for k in mesh_sides:
        g = mesh_graph([k, k])
        alpha = diameter(g)
        lb = theorem36_lower_bound(alpha)
        counting = run_central_counting(g, list(range(g.n)), root=0)
        arrow = run_arrow(path_spanning_tree(g), list(range(g.n)))
        res.rows.append(
            {
                "graph": g.name,
                "n": g.n,
                "diam": alpha,
                "LB(Thm3.6)": lb,
                "central_counting": counting.total_delay,
                "arrow(queuing)": arrow.total_delay,
            }
        )
        ok_lb &= counting.total_delay >= lb
    res.check("measured counting >= Thm 3.6 bound on every instance", ok_lb)
    res.check(
        "every individual operation respects the Thm 3.6 latency bound",
        per_op_ok,
    )
    slope_c = growth_exponent(*zip(*list_counting))
    slope_q = growth_exponent(*zip(*list_arrow))
    res.check(
        "counting on the list grows ~ n^2",
        1.7 <= slope_c <= 2.3,
        f"fitted exponent {slope_c:.2f}",
    )
    res.check(
        "arrow on the list grows ~ n",
        0.7 <= slope_q <= 1.3,
        f"fitted exponent {slope_q:.2f}",
    )
    return res


# ---------------------------------------------------------------------------
# E5 — Theorem 4.1: arrow <= 2 x nearest-neighbour TSP
# ---------------------------------------------------------------------------


def run_e5_thm41_arrow_vs_tsp(
    sizes: Sequence[int] = (8, 16, 32, 64),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
) -> ExperimentResult:
    """The factor-2 relation between arrow and the NN tour, across trees."""
    res = ExperimentResult(
        exp_id="E5",
        title="Arrow total delay vs 2 x NN-TSP cost",
        paper_ref="Theorem 4.1 (Herlihy et al. 2001)",
    )
    worst = 0.0
    all_ok = True
    for n in sizes:
        for seed in seeds:
            rng = np.random.default_rng(seed * 1000 + n)
            tree = _random_rooted_tree(n, seed=seed + n, max_children=3)
            from repro.topology.base import Graph

            g = Graph.from_edges(n, tree.edges(), name=f"rtree({n},{seed})")
            st = SpanningTree(g, tree, label="random")
            k = int(rng.integers(1, n + 1))
            requests = sorted(rng.choice(n, size=k, replace=False).tolist())
            cmpr = arrow_vs_tsp(st, requests)
            worst = max(worst, cmpr.ratio)
            all_ok &= cmpr.within_theorem41
            if seed == 0:
                res.rows.append(
                    {
                        "tree": g.name,
                        "|R|": k,
                        "arrow_total": cmpr.arrow_total,
                        "nn_tsp": cmpr.tsp_cost,
                        "ratio": cmpr.ratio,
                    }
                )
    # Structured trees as well: list and perfect binary.
    for n in sizes:
        for st in (
            path_spanning_tree(path_graph(n)),
            embedded_binary_tree(complete_graph(n)),
        ):
            cmpr = arrow_vs_tsp(st, list(range(n)))
            worst = max(worst, cmpr.ratio)
            all_ok &= cmpr.within_theorem41
            res.rows.append(
                {
                    "tree": st.label + f"(n={n})",
                    "|R|": n,
                    "arrow_total": cmpr.arrow_total,
                    "nn_tsp": cmpr.tsp_cost,
                    "ratio": cmpr.ratio,
                }
            )
    res.check(
        "arrow <= 2 x NN-TSP on every instance",
        all_ok,
        f"worst ratio {worst:.3f}",
    )
    return res


# ---------------------------------------------------------------------------
# E6 — Lemmas 4.3/4.4: the NN tour on a list costs <= 3n
# ---------------------------------------------------------------------------


def run_e6_lemma43_list_tsp(
    sizes: Sequence[int] = (16, 64, 256, 1024),
    seeds: Sequence[int] = (0, 1, 2),
) -> ExperimentResult:
    """List NN tours: cost <= 3n and the Fibonacci-like run inequality."""
    res = ExperimentResult(
        exp_id="E6",
        title="Nearest-neighbour TSP on the list",
        paper_ref="Lemmas 4.3 and 4.4",
    )
    ok_cost = True
    ok_runs = True
    for n in sizes:
        tree = RootedTree.from_path(list(range(n)))
        scenarios = {
            "all": list(range(n)),
            "alternating": list(range(0, n, 2)),
            "ends+mid": sorted({0, n - 1, n // 2}),
        }
        rng = np.random.default_rng(7)
        for seed in seeds:
            k = int(rng.integers(1, n + 1))
            scenarios[f"random{seed}"] = sorted(
                rng.choice(n, size=k, replace=False).tolist()
            )
        for name, req in scenarios.items():
            # Worst case over starting points is part of Lemma 4.3's claim
            # ("starts from any node"); sample a few starts.
            for start in {0, n // 2, n - 1}:
                tour = nearest_neighbor_tour(tree, req, start=start)
                legs = lemma44_legs(tour.order, start=start)
                ok_cost &= tour.cost <= list_tsp_bound(n)
                ok_runs &= satisfies_lemma44(legs)
                if start == 0:
                    res.rows.append(
                        {
                            "n": n,
                            "scenario": name,
                            "|R|": len(req),
                            "nn_cost": tour.cost,
                            "bound_3n": list_tsp_bound(n),
                            "runs": len(legs),
                        }
                    )
    res.check("NN tour cost <= 3n for every instance and start", ok_cost)
    res.check("run legs satisfy x_i >= x_{i-1} + x_{i-2}", ok_runs)
    return res


# ---------------------------------------------------------------------------
# E7 — Theorem 4.7: NN tour on perfect binary / m-ary trees is O(n)
# ---------------------------------------------------------------------------


def run_e7_thm47_tree_tsp(
    depths: Sequence[int] = (3, 4, 5, 6, 7, 8),
    mary_depths: Sequence[int] = (2, 3, 4),
) -> ExperimentResult:
    """Perfect-tree NN tours stay within the paper's explicit O(n) envelope."""
    res = ExperimentResult(
        exp_id="E7",
        title="Nearest-neighbour TSP on perfect binary and m-ary trees",
        paper_ref="Theorem 4.7 / Theorem 4.12 (+Lemmas 4.8-4.10)",
    )
    ok = True
    sizes, costs = [], []
    for d in depths:
        g = perfect_mary_tree(2, d)
        tree = RootedTree.from_edges(g.n, g.edges(), root=0)
        for name, req in {
            "all": list(range(g.n)),
            "leaves": [v for v in range(g.n) if 2 * v + 1 >= g.n],
        }.items():
            tour = nearest_neighbor_tour(tree, req)
            bound = binary_tree_tsp_bound(g.n)
            ok &= tour.cost <= bound
            res.rows.append(
                {
                    "tree": f"binary(d={d})",
                    "n": g.n,
                    "scenario": name,
                    "nn_cost": tour.cost,
                    "bound": bound,
                }
            )
            if name == "all":
                sizes.append(g.n)
                costs.append(tour.cost)
    for d in mary_depths:
        g = perfect_mary_tree(3, d)
        tree = RootedTree.from_edges(g.n, g.edges(), root=0)
        tour = nearest_neighbor_tour(tree, list(range(g.n)))
        bound = mary_tree_tsp_bound(g.n, 3)
        ok &= tour.cost <= bound
        res.rows.append(
            {
                "tree": f"3-ary(d={d})",
                "n": g.n,
                "scenario": "all",
                "nn_cost": tour.cost,
                "bound": bound,
            }
        )
    res.check("NN cost <= explicit envelope on every instance", ok)
    slope = growth_exponent(sizes, costs)
    res.check(
        "binary-tree NN cost grows ~ n (not n log n)",
        0.8 <= slope <= 1.2,
        f"fitted exponent {slope:.2f}",
    )
    return res


# ---------------------------------------------------------------------------
# E8 — Corollary 4.2: constant-degree trees give O(n log n)
# ---------------------------------------------------------------------------


def run_e8_cor42_rosenkrantz(
    sizes: Sequence[int] = (15, 63, 255),
    seeds: Sequence[int] = (0, 1, 2, 3),
) -> ExperimentResult:
    """NN tours on arbitrary constant-degree trees stay under O(n log n)."""
    res = ExperimentResult(
        exp_id="E8",
        title="Rosenkrantz envelope on constant-degree trees",
        paper_ref="Corollary 4.2",
    )
    ok = True
    for n in sizes:
        for seed in seeds:
            tree = _random_rooted_tree(n, seed=seed, max_children=2)
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, n + 1))
            req = sorted(rng.choice(n, size=k, replace=False).tolist())
            tour = nearest_neighbor_tour(tree, req)
            bound = rosenkrantz_nn_bound(n, k)
            ok &= tour.cost <= bound
            if seed == 0:
                res.rows.append(
                    {
                        "n": n,
                        "|R|": k,
                        "nn_cost": tour.cost,
                        "rosenkrantz_bound": bound,
                    }
                )
    res.check("NN cost <= (ceil(log2 k)+1)(n-1) on every instance", ok)
    return res


# ---------------------------------------------------------------------------
# E9 — Theorem 4.5 / Lemma 4.6: Hamilton-path graphs
# ---------------------------------------------------------------------------


def run_e9_thm45_hamilton(
    complete_sizes: Sequence[int] = (8, 16, 32, 64),
    mesh_sides: Sequence[int] = (3, 4, 5, 6),
    hypercube_dims: Sequence[int] = (3, 4, 5, 6),
) -> ExperimentResult:
    """CQ = O(n) via the Hamilton-path spanning tree on K_n, meshes, hypercubes."""
    res = ExperimentResult(
        exp_id="E9",
        title="Arrow on Hamilton-path spanning trees: CQ = Theta(n) << CC",
        paper_ref="Theorem 4.5, Lemma 4.6",
    )
    sizes, arrows = [], []
    ok_linear_bound = True
    graphs = (
        [complete_graph(n) for n in complete_sizes]
        + [mesh_graph([k, k]) for k in mesh_sides]
        + [hypercube_graph(d) for d in hypercube_dims]
    )
    for g in graphs:
        st = path_spanning_tree(g)
        requests = list(range(g.n))
        arrow = run_arrow(st, requests)
        lb = theorem35_lower_bound(g.n)
        counting = run_combining_counting(embedded_binary_tree(complete_graph(g.n)), requests)
        gap = counting.total_delay / max(1, arrow.total_delay)
        res.rows.append(
            {
                "graph": g.name,
                "n": g.n,
                "arrow_total": arrow.total_delay,
                "6n(Lem4.3+Thm4.1)": list_queuing_bound(g.n),
                "counting_LB(Thm3.5)": lb,
                "best_counting(combining)": counting.total_delay,
                "counting/arrow": round(gap, 2),
            }
        )
        ok_linear_bound &= arrow.total_delay <= list_queuing_bound(g.n)
        if g.name.startswith("complete"):
            sizes.append(g.n)
            arrows.append(arrow.total_delay)
    slope = growth_exponent(sizes, arrows)
    res.check(
        "arrow on the Hamilton path <= 6n on every graph",
        ok_linear_bound,
    )
    res.check(
        "arrow on K_n grows ~ n",
        0.7 <= slope <= 1.3,
        f"fitted exponent {slope:.2f}",
    )
    # The gap counting/arrow should grow with n on the complete graphs.
    gaps = [
        row["counting/arrow"]
        for row in res.rows
        if str(row["graph"]).startswith("complete")
    ]
    res.check(
        "counting/arrow gap grows with n on K_n",
        all(b > a for a, b in zip(gaps, gaps[1:])),
        f"gaps={gaps}",
    )
    return res


# ---------------------------------------------------------------------------
# E10 — Theorem 4.12: perfect m-ary spanning trees
# ---------------------------------------------------------------------------


def run_e10_thm412_mary(
    binary_sizes: Sequence[int] = (15, 31, 63, 127),
    ternary_depths: Sequence[int] = (2, 3, 4),
) -> ExperimentResult:
    """Arrow on perfect m-ary spanning trees is Theta(n)."""
    res = ExperimentResult(
        exp_id="E10",
        title="Arrow on perfect m-ary spanning trees",
        paper_ref="Theorem 4.12",
    )
    ok = True
    sizes, totals = [], []
    for n in binary_sizes:
        st = embedded_binary_tree(complete_graph(n))
        arrow = run_arrow(st, list(range(n)))
        bound = binary_tree_queuing_bound(n)
        ok &= arrow.total_delay <= bound
        sizes.append(n)
        totals.append(arrow.total_delay)
        res.rows.append(
            {
                "tree": f"binary(n={n})",
                "arrow_total": arrow.total_delay,
                "bound(2x Thm4.7)": bound,
                "counting_LB": theorem35_lower_bound(n),
            }
        )
    for d in ternary_depths:
        g = perfect_mary_tree(3, d)
        st = embedded_mary_tree(complete_graph(g.n), 3)
        arrow = run_arrow(st, list(range(g.n)))
        bound = mary_tree_queuing_bound(g.n, 3)
        ok &= arrow.total_delay <= bound
        res.rows.append(
            {
                "tree": f"3-ary(n={g.n})",
                "arrow_total": arrow.total_delay,
                "bound(2x Thm4.7)": bound,
                "counting_LB": theorem35_lower_bound(g.n),
            }
        )
    slope = growth_exponent(sizes, totals)
    res.check("arrow <= the m-ary envelope on every instance", ok)
    res.check(
        "arrow on the binary tree grows ~ n",
        0.7 <= slope <= 1.3,
        f"fitted exponent {slope:.2f}",
    )
    return res


# ---------------------------------------------------------------------------
# E11 — Theorem 4.13: high-diameter graphs
# ---------------------------------------------------------------------------


def run_e11_thm413_high_diameter(
    spines: Sequence[int] = (8, 16, 32, 64),
) -> ExperimentResult:
    """High-diameter graphs: CC = Omega(alpha^2) vs CQ = O(n log n)."""
    res = ExperimentResult(
        exp_id="E11",
        title="High-diameter graphs: caterpillar and lollipop",
        paper_ref="Theorem 4.13",
    )
    ok_lb = True
    ok_ub = True
    gaps = []
    for spine in spines:
        for g in (caterpillar_graph(spine, 1), lollipop_graph(max(3, spine // 4), spine)):
            alpha = diameter(g)
            lb = theorem36_lower_bound(alpha)
            counting = run_central_counting(g, list(range(g.n)), root=0)
            st = bfs_spanning_tree(g)
            arrow = run_arrow(st, list(range(g.n)))
            qub = constant_degree_queuing_bound(g.n)
            ok_lb &= counting.total_delay >= lb
            # BFS trees of these families have bounded degree; the arrow
            # run should sit under the Corollary 4.2 envelope.
            ok_ub &= arrow.total_delay <= qub
            gaps.append(counting.total_delay / max(1, arrow.total_delay))
            res.rows.append(
                {
                    "graph": g.name,
                    "n": g.n,
                    "diam": alpha,
                    "LB(Thm3.6)": lb,
                    "central_counting": counting.total_delay,
                    "arrow(bfs tree)": arrow.total_delay,
                    "O(nlogn) envelope": int(qub),
                }
            )
    res.check("counting >= diameter bound on every instance", ok_lb)
    res.check("arrow <= Corollary 4.2 envelope on every instance", ok_ub)
    res.check(
        "counting/arrow gap grows along the family",
        gaps[-2] > gaps[0] and gaps[-1] > gaps[1],
        f"gaps={[round(g, 1) for g in gaps]}",
    )
    return res


# ---------------------------------------------------------------------------
# E12 — Section 5: the star counterexample
# ---------------------------------------------------------------------------


def run_e12_star_counterexample(
    sizes: Sequence[int] = (8, 16, 32, 64),
) -> ExperimentResult:
    """On the star, counting is NOT harder: both cost Theta(n^2)."""
    res = ExperimentResult(
        exp_id="E12",
        title="Star graph: counting and queuing both Theta(n^2)",
        paper_ref="Section 5 (Conclusions)",
    )
    ratios = []
    sizes_l, cc, cq = [], [], []
    for n in sizes:
        g = star_graph(n)
        requests = list(range(n))
        counting = run_central_counting(g, requests, root=0)
        queuing = run_central_queuing(g, requests, root=0)
        # Arrow on the star's only spanning tree (the star itself), strict
        # capacity: the hub serialises everything.
        arrow = run_arrow(star_spanning_tree(g), requests, capacity=1)
        ratio = counting.total_delay / max(1, arrow.total_delay)
        ratios.append(ratio)
        sizes_l.append(n)
        cc.append(counting.total_delay)
        cq.append(arrow.total_delay)
        res.rows.append(
            {
                "n": n,
                "central_counting": counting.total_delay,
                "central_queuing": queuing.total_delay,
                "arrow(star tree)": arrow.total_delay,
                "CC/CQ": round(ratio, 2),
            }
        )
    slope_c = growth_exponent(sizes_l, cc)
    slope_q = growth_exponent(sizes_l, cq)
    res.check(
        "counting on the star grows ~ n^2",
        1.7 <= slope_c <= 2.3,
        f"fitted exponent {slope_c:.2f}",
    )
    res.check(
        "queuing on the star also grows ~ n^2",
        1.7 <= slope_q <= 2.3,
        f"fitted exponent {slope_q:.2f}",
    )
    res.check(
        "CC/CQ stays bounded (no separation on the star)",
        max(ratios) <= 4.0 and min(ratios) >= 0.25,
        f"ratios={[round(r, 2) for r in ratios]}",
    )
    res.notes = (
        "Contention at the hub dominates both problems, so the paper's "
        "separation disappears — exactly as Section 5 predicts."
    )
    return res


# ---------------------------------------------------------------------------
# E13 — Section 1: ordered multicast both ways
# ---------------------------------------------------------------------------


def run_e13_multicast(
    mesh_sides: Sequence[int] = (3, 4, 5),
    complete_sizes: Sequence[int] = (8, 16),
) -> ExperimentResult:
    """The motivating application: queuing-based multicast wins."""
    res = ExperimentResult(
        exp_id="E13",
        title="Totally ordered multicast: counting-based vs queuing-based",
        paper_ref="Section 1 (Herlihy et al. 2001)",
    )
    queuing_wins = True
    for g, st in [(mesh_graph([k, k]), None) for k in mesh_sides] + [
        (complete_graph(n), None) for n in complete_sizes
    ]:
        st = path_spanning_tree(g)
        senders = list(range(g.n))
        mc = run_counting_multicast(g, st, senders)
        mq = run_queuing_multicast(g, st, senders)
        queuing_wins &= (
            mq.total_coordination_delay <= mc.total_coordination_delay
        )
        res.rows.append(
            {
                "graph": g.name,
                "senders": len(senders),
                "coord_counting": mc.total_coordination_delay,
                "coord_queuing": mq.total_coordination_delay,
                "done_counting": mc.completion_time,
                "done_queuing": mq.completion_time,
            }
        )
    res.check(
        "queuing-based coordination never slower than counting-based",
        queuing_wins,
    )
    res.notes = (
        "Both flavours deliver identical sequences at every receiver "
        "(verified inside the runners)."
    )
    return res


# ---------------------------------------------------------------------------
# E14 — ablation: the arrow protocol's spanning-tree choice
# ---------------------------------------------------------------------------


def run_e14_ablation_tree_choice(n: int = 32, mesh_side: int = 6) -> ExperimentResult:
    """How much the spanning tree matters for the arrow protocol."""
    res = ExperimentResult(
        exp_id="E14",
        title="Ablation: spanning-tree choice for the arrow protocol",
        paper_ref="Design choice behind Theorems 4.5/4.12 vs Corollary 4.2",
    )
    g = complete_graph(n)
    requests = list(range(n))
    candidates = {
        "hamilton_path": path_spanning_tree(g),
        "binary(embedded)": embedded_binary_tree(g),
        "star(hub=0)": star_spanning_tree(g),
    }
    totals: dict[str, int] = {}
    for label, st in candidates.items():
        # Strict capacity for the star (its degree is not constant).
        cap = 1 if label.startswith("star") else None
        arrow = run_arrow(st, requests, capacity=cap)
        totals[label] = arrow.total_delay
        res.rows.append(
            {
                "graph": g.name,
                "tree": label,
                "tree_degree": st.max_degree(),
                "arrow_total": arrow.total_delay,
            }
        )
    # Contrast: a naive queuing algorithm (token sweep) on the best tree —
    # the separation is about the best algorithm, not any algorithm.
    from repro.counting import run_sweep_queuing

    sweep_q = run_sweep_queuing(g, requests)
    res.rows.append(
        {
            "graph": g.name,
            "tree": "hamilton_path (naive sweep queuing)",
            "tree_degree": 2,
            "arrow_total": sweep_q.total_delay,
        }
    )
    gm = mesh_graph([mesh_side, mesh_side])
    for label, st in {
        "hamilton_path": path_spanning_tree(gm),
        "bfs": bfs_spanning_tree(gm),
        "dfs": dfs_spanning_tree(gm),
    }.items():
        arrow = run_arrow(st, list(range(gm.n)))
        res.rows.append(
            {
                "graph": gm.name,
                "tree": label,
                "tree_degree": st.max_degree(),
                "arrow_total": arrow.total_delay,
            }
        )
    res.check(
        "constant-degree trees beat the star tree on K_n",
        totals["hamilton_path"] < totals["star(hub=0)"]
        and totals["binary(embedded)"] < totals["star(hub=0)"],
        f"totals={totals}",
    )
    res.check(
        "arrow beats naive sweep queuing on the same tree",
        totals["hamilton_path"] < sweep_q.total_delay,
        f"arrow={totals['hamilton_path']}, sweep={sweep_q.total_delay}",
    )
    return res


# ---------------------------------------------------------------------------
# E15 — ablation: the counting-algorithm portfolio head-to-head
# ---------------------------------------------------------------------------


def run_e15_ablation_counters(n: int = 32, mesh_side: int = 6) -> ExperimentResult:
    """All counting algorithms on three topologies at one size."""
    res = ExperimentResult(
        exp_id="E15",
        title="Ablation: counting algorithms head-to-head",
        paper_ref="Section 3's 'any counting algorithm' portfolio",
    )
    # column label -> registered protocol, in the table's column order
    columns = {"central": "central", "combining(bfs)": "combining", "flood": "flood",
               "cnet": "cnet", "periodic": "periodic", "sweep": "sweep"}
    ok = True
    for g in (complete_graph(n), mesh_graph([mesh_side, mesh_side]), path_graph(n)):
        requests = list(range(g.n))
        lb = max(
            theorem35_lower_bound(g.n), theorem36_lower_bound(diameter(g))
        )
        row = {"graph": g.name, "LB": lb}
        for label, name in columns.items():
            total = PROTOCOLS[name].run(g, requests).total_delay
            row[label] = total
            ok &= total >= lb
        res.rows.append(row)
    res.check("every algorithm >= the counting lower bound", ok)
    return res


# ---------------------------------------------------------------------------
# E16 — extension: long-lived arrow (Kuhn-Wattenhofer setting)
# ---------------------------------------------------------------------------


def run_e16_longlived(
    n: int = 64,
    horizons: Sequence[int] = (1, 16, 64, 256),
    seed: int = 0,
) -> ExperimentResult:
    """Staggered arrivals: response times shrink as load spreads out."""
    res = ExperimentResult(
        exp_id="E16",
        title="Long-lived arrow under staggered arrivals",
        paper_ref="extension — Kuhn & Wattenhofer 2004 (reference [8])",
    )
    st = path_spanning_tree(path_graph(n))
    one_shot = run_arrow(st, list(range(n)))
    ok_per_op = True
    ok_complete = True
    for horizon in horizons:
        times = poisson_issue_times(n, rate=1.0, horizon=horizon, seed=seed)
        ll = run_arrow_longlived(st, times)
        ok_complete &= len(ll.delays) == len(times)
        # A queue() message follows a simple path on the tree, so each
        # response is at most the path length plus contention; 2n is a
        # generous per-operation envelope on the list.
        ok_per_op &= ll.max_delay <= 2 * n
        res.rows.append(
            {
                "n": n,
                "horizon": horizon,
                "requesters": len(times),
                "total_response": ll.total_delay,
                "max_response": ll.max_delay,
                "one_shot_total": one_shot.total_delay,
            }
        )
    res.check("every scheduled operation completed", ok_complete)
    res.check("per-operation response <= 2n on every schedule", ok_per_op)
    res.notes = (
        "Total response grows as arrivals spread out: isolated requests "
        "chase the tail across the whole tree instead of terminating at a "
        "concurrent neighbor — the dynamic-adversary effect Kuhn & "
        "Wattenhofer analyse."
    )
    return res


# ---------------------------------------------------------------------------
# E17 — extension: asynchronous links (Section 2.1's carry-over claim)
# ---------------------------------------------------------------------------


def run_e17_async_robustness(
    sizes: Sequence[int] = (8, 16, 32),
    delay_hi: int = 3,
    seed: int = 0,
) -> ExperimentResult:
    """Random link delays: protocols stay correct and the separation stands."""
    from repro.sim import UniformDelay

    res = ExperimentResult(
        exp_id="E17",
        title="Asynchronous links: correctness and separation under delay",
        paper_ref="extension — Section 2.1's asynchronous-model remark",
    )
    model = UniformDelay(1, delay_hi, seed=seed)
    separation_holds = True
    scaling_sane = True
    for n in sizes:
        g = complete_graph(n)
        requests = list(range(n))
        arrow_sync = run_arrow(path_spanning_tree(g), requests)
        arrow_async = run_arrow(path_spanning_tree(g), requests, delay_model=model)
        count_sync = run_combining_counting(embedded_binary_tree(g), requests)
        count_async = run_combining_counting(
            embedded_binary_tree(g), requests, delay_model=model
        )
        res.rows.append(
            {
                "n": n,
                "arrow_sync": arrow_sync.total_delay,
                "arrow_async": arrow_async.total_delay,
                "counting_sync": count_sync.total_delay,
                "counting_async": count_async.total_delay,
            }
        )
        separation_holds &= count_async.total_delay > arrow_async.total_delay
        # totals should stretch by at most the max delay factor (plus
        # small interleaving effects).
        scaling_sane &= arrow_async.total_delay <= (delay_hi + 1) * max(
            1, arrow_sync.total_delay
        )
        scaling_sane &= count_async.total_delay <= (delay_hi + 1) * max(
            1, count_sync.total_delay
        )
    res.check(
        "counting still costlier than arrow under async delays",
        separation_holds,
    )
    res.check(
        f"async totals within {delay_hi + 1}x of synchronous",
        scaling_sane,
    )
    res.notes = (
        "All runs re-validated their outputs (exact counts / single "
        "predecessor chain) under the delay adversary."
    )
    return res


# ---------------------------------------------------------------------------
# E18 — counting-network duel: bitonic vs periodic
# ---------------------------------------------------------------------------


def run_e18_network_duel(
    sizes: Sequence[int] = (8, 16, 32),
) -> ExperimentResult:
    """Bitonic (depth log w (log w+1)/2) vs periodic (depth log^2 w)."""
    from repro.counting import (
        bitonic_network,
        network_depth,
        periodic_network,
        run_counting_network,
        run_periodic_counting,
    )

    res = ExperimentResult(
        exp_id="E18",
        title="Counting networks: bitonic vs periodic (AHS constructions)",
        paper_ref="reference [1] — Aspnes, Herlihy & Shavit 1994",
    )
    ok_lb = True
    bitonic_shallower = True
    for n in sizes:
        g = complete_graph(n)
        requests = list(range(n))
        bit = run_counting_network(g, requests)
        per = run_periodic_counting(g, requests)
        w = 1 << (n.bit_length() - 1)
        d_bit = network_depth(bitonic_network(w))
        d_per = network_depth(periodic_network(w))
        lb = theorem35_lower_bound(n)
        res.rows.append(
            {
                "n": n,
                "width": w,
                "bitonic_depth": d_bit,
                "periodic_depth": d_per,
                "bitonic_total": bit.total_delay,
                "periodic_total": per.total_delay,
                "LB(Thm3.5)": lb,
            }
        )
        ok_lb &= bit.total_delay >= lb and per.total_delay >= lb
        if w > 2:
            bitonic_shallower &= d_bit < d_per and bit.total_delay < per.total_delay
    res.check("both networks dominate the Thm 3.5 bound", ok_lb)
    res.check(
        "bitonic is shallower and faster than periodic (w > 2)",
        bitonic_shallower,
    )
    return res


# ---------------------------------------------------------------------------
# E19 — the open question: distributed addition vs counting vs queuing
# ---------------------------------------------------------------------------


def run_e19_addition(
    sizes: Sequence[int] = (15, 31, 63),
    seed: int = 0,
) -> ExperimentResult:
    """Fetch-and-add costs what counting costs; queuing stays cheaper."""
    from repro.adding import run_combining_addition

    res = ExperimentResult(
        exp_id="E19",
        title="Distributed addition (fetch-and-add) vs counting vs queuing",
        paper_ref="extension — Section 5 open question / reference [5]",
    )
    rng = np.random.default_rng(seed)
    same_profile = True
    oblivious = True
    arrow_cheaper = True
    for n in sizes:
        g = complete_graph(n)
        st = embedded_binary_tree(g)
        requests = list(range(n))
        counting = run_combining_counting(st, requests)
        unit = run_combining_addition(st, {v: 1 for v in requests})
        randinc = run_combining_addition(
            st, {v: int(rng.integers(-9, 10)) for v in requests}
        )
        arrow = run_arrow(path_spanning_tree(g), requests)
        res.rows.append(
            {
                "n": n,
                "counting": counting.total_delay,
                "add(unit)": unit.total_delay,
                "add(random)": randinc.total_delay,
                "arrow(queuing)": arrow.total_delay,
            }
        )
        same_profile &= unit.total_delay == counting.total_delay
        oblivious &= randinc.delays == unit.delays
        arrow_cheaper &= arrow.total_delay < unit.total_delay
    res.check(
        "unit-increment addition costs exactly what counting costs",
        same_profile,
    )
    res.check("addition delays are increment-oblivious", oblivious)
    res.check("queuing (arrow) stays cheaper than addition", arrow_cheaper)
    res.notes = (
        "With unit increments fetch-and-add solves counting, so the "
        "Section 3 lower bounds transfer to addition; the arrow gap is "
        "unchanged — evidence for the paper's conjecture that queuing is "
        "the easiest of the total-order problems."
    )
    return res


# ---------------------------------------------------------------------------
# E20 — ablation: directory (graph shortcuts) vs token mutex (tree walks)
# ---------------------------------------------------------------------------


def run_e20_directory(
    sizes: Sequence[int] = (16, 32, 64),
    stride: int = 4,
) -> ExperimentResult:
    """Object moves on G beat token walks on T when G has shortcuts."""
    from repro.directory import run_object_directory

    res = ExperimentResult(
        exp_id="E20",
        title="Arrow directory vs token mutex: shortcutting the handoff",
        paper_ref="extension — Demmer & Herlihy 1998 (reference [4])",
    )
    shortcut_wins = True
    tree_equal = True
    for n in sizes:
        g = complete_graph(n)
        st = path_spanning_tree(g)
        req = list(range(0, n, stride))
        d = run_object_directory(g, st, req, use_rounds=1)
        m = run_token_mutex(st, req, cs_rounds=1)
        shortcut_wins &= d.total_waiting < m.total_waiting
        res.rows.append(
            {
                "graph": g.name,
                "|R|": len(req),
                "directory": d.total_waiting,
                "token_mutex": m.total_waiting,
            }
        )
        gp = path_graph(n)
        stp = path_spanning_tree(gp)
        dp = run_object_directory(gp, stp, req, use_rounds=1)
        mp = run_token_mutex(stp, req, cs_rounds=1)
        tree_equal &= dp.total_waiting == mp.total_waiting
        res.rows.append(
            {
                "graph": gp.name,
                "|R|": len(req),
                "directory": dp.total_waiting,
                "token_mutex": mp.total_waiting,
            }
        )
    res.check("on K_n the directory's direct moves win", shortcut_wins)
    res.check("on a tree graph the two coincide (no shortcuts)", tree_equal)
    return res


# ---------------------------------------------------------------------------
# E21 — extension: fault tolerance under message loss
# ---------------------------------------------------------------------------


def run_e21_fault_tolerance(
    sizes: Sequence[int] = (8, 16, 32),
    drop_rates: Sequence[float] = (0.0, 0.1, 0.2),
    seed: int = 7,
) -> ExperimentResult:
    """Reliable retries preserve both answers under loss at bounded cost.

    The paper's model assumes perfectly reliable links.  This extension
    re-runs the two headline protocols — arrow queuing on the list and
    central counting on the star — under seeded message loss with the
    ack/retry wrapper (see ``docs/FAULTS.md``) and checks that (a) the
    verified outputs survive any eventually-delivering loss rate, (b) a
    zero-fault plan reproduces the fault-free execution exactly, and
    (c) the round-count overhead stays inside the retry envelope, so the
    cost of tolerating loss is a constant factor, not an asymptotic one.
    """
    from repro.faults import FaultPlan, run_arrow_ft, run_central_counting_ft
    from repro.sim import EventTrace

    res = ExperimentResult(
        exp_id="E21",
        title="Fault tolerance: queuing and counting under message loss",
        paper_ref="extension — Section 2.1 model with lossy links",
    )
    all_complete = True
    noop_identical = True
    overhead_bounded = True
    losses_injected = True
    for n in sizes:
        star = star_graph(n)
        sp = path_spanning_tree(path_graph(n))
        base_count = run_central_counting(star, range(n))
        base_arrow = run_arrow(sp, range(n))
        for rate in drop_rates:
            plan = FaultPlan(seed=seed, drop_rate=rate)
            if plan.is_empty():
                t_plain, t_empty = EventTrace(), EventTrace()
                run_central_counting(star, range(n), trace=t_plain)
                run_central_counting(star, range(n), trace=t_empty, faults=plan)
                noop_identical &= t_plain.events == t_empty.events
                ft_count, ft_arrow = base_count, base_arrow
            else:
                ft_count = run_central_counting_ft(star, range(n), plan)
                ft_arrow = run_arrow_ft(sp, range(n), plan)
                losses_injected &= (
                    ft_count.stats.messages_dropped > 0
                    or ft_arrow.stats.messages_dropped > 0
                )
            # run_*_ft verify their outputs before returning; reaching
            # here at all means counting and queuing both stayed correct.
            all_complete &= sorted(ft_count.counts.values()) == list(
                range(1, n + 1)
            )
            all_complete &= sorted(ft_arrow.order()) == list(range(n))
            overhead_bounded &= (
                ft_count.stats.rounds <= 90 * base_count.stats.rounds + 200
            )
            overhead_bounded &= (
                ft_arrow.stats.rounds <= 90 * base_arrow.stats.rounds + 200
            )
            res.rows.append(
                {
                    "n": n,
                    "drop": rate,
                    "count_rounds": ft_count.stats.rounds,
                    "arrow_rounds": ft_arrow.stats.rounds,
                    "dropped": ft_count.stats.messages_dropped
                    + ft_arrow.stats.messages_dropped,
                }
            )
    res.check(
        "outputs verify under every eventually-delivering loss rate",
        all_complete,
    )
    res.check("a zero-fault plan reproduces the fault-free trace", noop_identical)
    res.check("rounds stay inside the retry envelope (90x + 200)", overhead_bounded)
    res.check("nonzero rates actually injected losses", losses_injected)
    res.notes = (
        "Loss does not change who wins: both protocols pay the same "
        "constant-factor retry overhead, so the counting-vs-queuing "
        "separation persists on lossy links."
    )
    return res


# ---------------------------------------------------------------------------
# E22 — extension: the resilience layer is transparent and catches real hangs
# ---------------------------------------------------------------------------


def run_e22_resilience(
    sizes: Sequence[int] = (8, 16),
    chaos_seeds: int = 3,
) -> ExperimentResult:
    """Monitors are free, checkpoints replay exactly, chaos finds nothing.

    Four claims about the resilience layer (see ``docs/RESILIENCE.md``):
    (a) attaching invariant monitors and the watchdog to healthy runs
    leaves every event trace byte-identical — observation does not
    perturb the execution; (b) a mid-run checkpoint restores and resumes
    to the byte-identical remainder of the original trace, so any
    violation can be replayed from the last snapshot instead of from
    round 0; (c) a chaos sweep of eventually-delivering fault plans over
    the fault-tolerant protocols finds no failures — the retry layer
    really does mask every finite outage the sweep can draw; and (d) a
    permanent crash is *diagnosed* (the watchdog names the dead node)
    rather than burning the round budget to a bare limit error.
    """
    from repro.faults import FaultPlan, NodeCrash
    from repro.resilience import (
        ArrowInvariant,
        ChaosCell,
        CountingInvariant,
        MonitorSet,
        PeriodicCheckpointer,
        Watchdog,
        chaos_search,
    )
    from repro.sim import EventTrace
    from repro.sim.errors import StallDetected

    res = ExperimentResult(
        exp_id="E22",
        title="Resilience: transparent monitors, exact replay, clean chaos",
        paper_ref="extension — engineering the Section 2.1 model",
    )
    traces_identical = True
    replay_identical = True
    for n in sizes:
        ring = mesh_graph([2, n // 2]) if n % 2 == 0 else path_graph(n)
        sp = path_spanning_tree(path_graph(n))

        t_plain, t_mon = EventTrace(), EventTrace()
        run_flood_counting(ring, range(n), trace=t_plain)
        mon = MonitorSet(
            invariants=(CountingInvariant(expected=n),),
            watchdog=Watchdog(expected_completions=n),
        )
        run_flood_counting(ring, range(n), trace=t_mon, monitors=mon)
        traces_identical &= t_plain.events == t_mon.events

        ta_plain, ta_mon = EventTrace(), EventTrace()
        run_arrow(sp, range(n), trace=ta_plain)
        mon_a = MonitorSet(
            invariants=(ArrowInvariant(),),
            watchdog=Watchdog(expected_completions=n),
        )
        run_arrow(sp, range(n), trace=ta_mon, monitors=mon_a)
        traces_identical &= ta_plain.events == ta_mon.events

        every = max(2, len(t_plain.events) // 200)
        cpr = PeriodicCheckpointer(every=every, keep=4)
        t_cp = EventTrace()
        run_flood_counting(ring, range(n), trace=t_cp,
                           monitors=MonitorSet(checkpointer=cpr))
        restored = cpr.latest().restore()
        restored.resume()
        replay_identical &= restored.trace.events == t_plain.events
        res.rows.append(
            {
                "n": n,
                "flood_events": len(t_plain.events),
                "arrow_events": len(ta_plain.events),
                "checkpoints": len(cpr.checkpoints),
                "resumed_from": cpr.latest().round,
            }
        )

    cells = [
        ChaosCell("flood_ft", "ring", sizes[0]),
        ChaosCell("central_ft", "star", sizes[0]),
        ChaosCell("arrow_ft", "path", sizes[0]),
    ]
    report = chaos_search(cells, range(chaos_seeds), max_rounds=20_000)

    diagnosed = False
    plan = FaultPlan(seed=3, crashes=(NodeCrash(node=1, start=0, end=None),))
    try:
        run_central_counting(
            path_graph(sizes[0]), range(sizes[0]), faults=plan,
            monitors=MonitorSet(
                watchdog=Watchdog(stall_window=100,
                                  expected_completions=sizes[0])
            ),
        )
    except StallDetected as exc:
        diagnosed = 1 in exc.pending_nodes
    res.check("monitored healthy runs leave traces byte-identical",
              traces_identical)
    res.check("checkpoint restore + resume replays the exact remainder",
              replay_identical)
    res.check(
        f"chaos sweep ({report.runs} eventually-delivering plans) is clean",
        report.clean,
    )
    res.check("watchdog names the permanently crashed node", diagnosed)
    res.notes = (
        "The resilience layer observes without perturbing: the model "
        "executions it certifies are the same ones every other "
        "experiment measures."
    )
    return res


#: Registry used by ``repro run`` and the EXPERIMENTS.md generator.
ALL_EXPERIMENTS = {
    "E1": run_e1_fig1_semantics,
    "E2": run_e2_thm35_general_lower_bound,
    "E3": run_e3_recurrences,
    "E4": run_e4_thm36_diameter_lower_bound,
    "E5": run_e5_thm41_arrow_vs_tsp,
    "E6": run_e6_lemma43_list_tsp,
    "E7": run_e7_thm47_tree_tsp,
    "E8": run_e8_cor42_rosenkrantz,
    "E9": run_e9_thm45_hamilton,
    "E10": run_e10_thm412_mary,
    "E11": run_e11_thm413_high_diameter,
    "E12": run_e12_star_counterexample,
    "E13": run_e13_multicast,
    "E14": run_e14_ablation_tree_choice,
    "E15": run_e15_ablation_counters,
    "E16": run_e16_longlived,
    "E17": run_e17_async_robustness,
    "E18": run_e18_network_duel,
    "E19": run_e19_addition,
    "E20": run_e20_directory,
    "E21": run_e21_fault_tolerance,
    "E22": run_e22_resilience,
}


def bench_scale() -> dict[str, Callable[[], ExperimentResult]]:
    """Benchmark-scale parameterisations (suite defaults are test-scale).

    The single source of truth for what ``--scale bench`` means — the CLI
    and ``scripts/generate_experiments_md.py`` both use it.  Entries
    are zero-argument callables; experiments without an entry run at
    their defaults even at bench scale.
    """
    return {
        "E2": lambda: run_e2_thm35_general_lower_bound(sizes=(8, 16, 32, 64, 128)),
        "E4": lambda: run_e4_thm36_diameter_lower_bound(
            list_sizes=(16, 32, 64, 128, 256), mesh_sides=(3, 4, 6, 8)
        ),
        "E5": lambda: run_e5_thm41_arrow_vs_tsp(
            sizes=(8, 16, 32, 64, 96), seeds=(0, 1, 2, 3, 4, 5)
        ),
        "E6": lambda: run_e6_lemma43_list_tsp(sizes=(16, 64, 256, 1024, 4096)),
        "E7": lambda: run_e7_thm47_tree_tsp(
            depths=(3, 4, 5, 6, 7, 8, 9, 10), mary_depths=(2, 3, 4, 5)
        ),
        "E9": lambda: run_e9_thm45_hamilton(
            complete_sizes=(8, 16, 32, 64, 128),
            mesh_sides=(3, 4, 6, 8),
            hypercube_dims=(3, 4, 5, 6, 7),
        ),
        "E10": lambda: run_e10_thm412_mary(
            binary_sizes=(15, 31, 63, 127, 255), ternary_depths=(2, 3, 4)
        ),
        "E12": lambda: run_e12_star_counterexample(sizes=(8, 16, 32, 64, 128)),
        "E16": lambda: run_e16_longlived(n=128, horizons=(1, 16, 64, 256, 1024)),
        "E17": lambda: run_e17_async_robustness(sizes=(8, 16, 32, 64)),
        "E18": lambda: run_e18_network_duel(sizes=(8, 16, 32, 64)),
        "E19": lambda: run_e19_addition(sizes=(15, 31, 63, 127)),
        "E20": lambda: run_e20_directory(sizes=(16, 32, 64, 128)),
        "E21": lambda: run_e21_fault_tolerance(
            sizes=(8, 16, 32, 64), drop_rates=(0.0, 0.05, 0.1, 0.2)
        ),
        "E22": lambda: run_e22_resilience(sizes=(8, 16, 32), chaos_seeds=6),
    }
