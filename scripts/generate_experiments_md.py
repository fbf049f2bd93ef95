#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from the experiment suite.

Runs every experiment at benchmark scale and writes the paper-vs-measured
record.  EXPERIMENTS.md in the repository root was produced by this
script; re-run it after changing protocols or bounds::

    python scripts/generate_experiments_md.py --jobs 4

Cells are independent, so ``--jobs N`` fans them out over N worker
processes (see :mod:`repro.experiments.executor`); the rendered document
is identical for any job count.
"""

from __future__ import annotations

import argparse
import pathlib
import time

from repro.experiments import ALL_EXPERIMENTS, render_experiment
from repro.experiments.executor import run_suite

HEADER = """\
# EXPERIMENTS — paper vs measured

This file is generated by ``python scripts/generate_experiments_md.py``.
Every experiment below reproduces one theorem/lemma/figure of
Busch & Tirthapura, *Concurrent counting is harder than queuing*
(IPDPS 2006 / TCS 2010), on the library's synchronous simulator.

Reading the tables: the paper proves *asymptotic* statements, so the pass
criteria (printed under each table) are **shape** criteria — measured
totals must dominate the exact lower-bound sums, stay under the explicit
upper-bound envelopes, and fit the predicted growth exponents.  Absolute
round counts are properties of this simulator, not of the authors'
abstract model beyond the constants; who wins, by what factor, and where
the separation vanishes all match the paper.

Summary of the paper-vs-measured verdicts:

| Exp | Paper claim | Measured outcome |
|-----|-------------|------------------|
| E1  | Fig. 1: counting returns ranks, queuing returns predecessors | exact semantics reproduced |
| E2  | Thm 3.5: any counting costs >= Omega(n log* n) on any graph | all 4 counting algorithms dominate the exact sum; arrow is cheaper than all of them from n=16 |
| E3  | Lem 3.2-3.4, 4.8: growth recurrences below tow(2t), 2^(k+2) | recurrences iterated at equality stay below the bounds |
| E4  | Thm 3.6: diameter alpha forces Omega(alpha^2) counting | list counting fits ~n^2, mesh fits ~n sqrt n; arrow stays ~n |
| E5  | Thm 4.1: arrow <= 2 x NN-TSP | worst observed ratio < 2 over all trees/seeds |
| E6  | Lem 4.3/4.4: list NN tour <= 3n, Fibonacci run growth | both hold on every instance and start vertex |
| E7  | Thm 4.7/4.12: perfect-tree NN tour is O(n) | measured cost fits exponent ~1, under the explicit envelope |
| E8  | Cor 4.2: constant-degree trees O(n log n) | all tours under the Rosenkrantz envelope |
| E9  | Thm 4.5: Hamilton-path graphs separate CQ << CC | arrow = n-1 exactly on K_n; gap grows monotonically |
| E10 | Thm 4.12: m-ary spanning trees separate | arrow ~n under the envelope |
| E11 | Thm 4.13: high-diameter graphs separate | counting ~alpha^2 vs arrow under O(n log n); gap grows |
| E12 | Sec 5: star has CC = Theta(n^2) = CQ — no separation | both fit ~n^2; ratio stays within [1, 4] |
| E13 | Sec 1: queuing-based ordered multicast beats counting-based | queuing coordination 10-25x cheaper, identical delivery orders |
| E14 | ablation | constant-degree trees beat the star tree for arrow |
| E15 | ablation | every counting algorithm dominates the lower bound everywhere |
| E16 | extension (Kuhn-Wattenhofer) | staggered requests chase the tail; per-op response <= 2n |
| E17 | extension: async-model remark of Sec 2.1 | protocols stay correct under random link delays; separation stands |
| E18 | reference [1]: the two AHS counting networks | bitonic (shallower) beats periodic; both valid and above the bound |
| E19 | extension: Sec 5 open question (addition) | unit fetch-and-add costs exactly counting; arrow stays cheaper |
| E20 | reference [4]: arrow directory | direct object moves beat tree token walks when G has shortcuts |
| E21 | extension: lossy links (Sec 2.1 model without reliable delivery) | ack/retry wrapper keeps both answers verified under seeded loss; overhead stays a constant factor |
| E22 | extension: resilience layer (monitors, checkpoints, chaos) | monitored traces byte-identical; checkpoint replay exact; chaos sweep clean; crashed node named |

---

"""


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run experiment cells on N worker processes (default: 1)",
    )
    args = ap.parse_args(argv)

    from repro.experiments.figures import ALL_FIGURES

    out = [HEADER]
    t0 = time.time()
    targets = sorted(ALL_EXPERIMENTS, key=lambda e: int(e[1:]))
    runs = run_suite(targets, scale="bench", jobs=args.jobs)
    for exp_id, (result, _elapsed) in zip(targets, runs):
        result.require()
        out.append("```\n" + render_experiment(result).rstrip() + "\n```\n")
        print(f"{exp_id} done ({time.time() - t0:.1f}s)")
    out.append("## Figures\n")
    for fig_id, fig_fn in sorted(ALL_FIGURES.items()):
        out.append("```\n" + fig_fn().rstrip() + "\n```\n")
        print(f"{fig_id} done ({time.time() - t0:.1f}s)")
    path = pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    path.write_text("\n".join(out))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
