"""Exact evaluation of every bound expression in the paper.

The lower bounds of Section 3 cannot be "run" (they quantify over all
algorithms), so the reproduction evaluates their exact expressions and
checks every implemented algorithm against them:

* :mod:`repro.bounds.towers` — ``tow`` and ``log*`` (Definition 3.4);
* :mod:`repro.bounds.recurrences` — the information-spread recurrences of
  Lemmas 3.2/3.3 and the ``f(k)`` recurrence of Section 4.2;
* :mod:`repro.bounds.counting_lb` — Theorem 3.5's ``Omega(n log* n)`` sum
  and Theorem 3.6's diameter sum, evaluated exactly;
* :mod:`repro.bounds.queuing_ub` — the queuing upper bounds of Section 4.
"""

from repro.bounds.towers import tow, log_star, TOW_MAX_EXACT
from repro.bounds.recurrences import (
    ab_trajectory,
    f_recurrence,
    verify_ab_tower_bound,
    verify_f_bound,
)
from repro.bounds.counting_lb import (
    min_latency_for_count,
    theorem35_lower_bound,
    theorem36_lower_bound,
)
from repro.bounds.queuing_ub import (
    list_queuing_bound,
    binary_tree_queuing_bound,
    mary_tree_queuing_bound,
    constant_degree_queuing_bound,
)

__all__ = [
    "tow",
    "log_star",
    "TOW_MAX_EXACT",
    "ab_trajectory",
    "f_recurrence",
    "verify_ab_tower_bound",
    "verify_f_bound",
    "min_latency_for_count",
    "theorem35_lower_bound",
    "theorem36_lower_bound",
    "list_queuing_bound",
    "binary_tree_queuing_bound",
    "mary_tree_queuing_bound",
    "constant_degree_queuing_bound",
]
