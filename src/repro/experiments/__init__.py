"""The experiment suite: one entry per theorem/lemma/figure of the paper.

Each ``run_e*`` function in :mod:`repro.experiments.suite` executes one
row of DESIGN.md's per-experiment index end-to-end — build the topology,
run the protocols, evaluate the paper's bound expressions, and return an
:class:`~repro.experiments.harness.ExperimentResult` whose ``checks``
encode the pass criteria (shape, factor, crossover).  ``repro run`` and
EXPERIMENTS.md both call these functions, so the documented numbers are
exactly the reproducible ones.
"""

from repro.experiments.executor import resolve_cell, run_cell, run_suite
from repro.experiments.harness import Check, ExperimentResult, suite_metrics
from repro.experiments.report import render_experiment, render_table
from repro.experiments.suite import (
    ALL_EXPERIMENTS,
    run_e1_fig1_semantics,
    run_e2_thm35_general_lower_bound,
    run_e3_recurrences,
    run_e4_thm36_diameter_lower_bound,
    run_e5_thm41_arrow_vs_tsp,
    run_e6_lemma43_list_tsp,
    run_e7_thm47_tree_tsp,
    run_e8_cor42_rosenkrantz,
    run_e9_thm45_hamilton,
    run_e10_thm412_mary,
    run_e11_thm413_high_diameter,
    run_e12_star_counterexample,
    run_e13_multicast,
    run_e14_ablation_tree_choice,
    run_e15_ablation_counters,
    run_e16_longlived,
    run_e21_fault_tolerance,
)

__all__ = [
    "Check",
    "ExperimentResult",
    "suite_metrics",
    "resolve_cell",
    "run_cell",
    "run_suite",
    "render_experiment",
    "render_table",
    "ALL_EXPERIMENTS",
    "run_e1_fig1_semantics",
    "run_e2_thm35_general_lower_bound",
    "run_e3_recurrences",
    "run_e4_thm36_diameter_lower_bound",
    "run_e5_thm41_arrow_vs_tsp",
    "run_e6_lemma43_list_tsp",
    "run_e7_thm47_tree_tsp",
    "run_e8_cor42_rosenkrantz",
    "run_e9_thm45_hamilton",
    "run_e10_thm412_mary",
    "run_e11_thm413_high_diameter",
    "run_e12_star_counterexample",
    "run_e13_multicast",
    "run_e14_ablation_tree_choice",
    "run_e15_ablation_counters",
    "run_e16_longlived",
    "run_e21_fault_tolerance",
]
