"""Distributed counting algorithms (the upper-bound side of Section 3).

The paper lower-bounds *every* counting algorithm; this package
implements a portfolio of real ones so the experiments can check that
each measured cost dominates the analytic lower bounds and see how close
achievable counting gets to them:

* :mod:`repro.counting.central` — a central counter with shortest-path
  routing: simple, and exactly the contention behaviour that makes the
  star and the list cost Theta(n^2);
* :mod:`repro.counting.combining` — a combining tree (aggregate request
  sums up, hand inclusive prefix sums down): the classic low-contention
  software counter, O(n log n) total delay on balanced trees;
* :mod:`repro.counting.flood` — full-information gossip: every node
  learns every input bit and ranks itself locally; the information-
  theoretic strawman the model's one-message restriction punishes;
* :mod:`repro.counting.network` — a bitonic counting network (Aspnes,
  Herlihy, Shavit 1994 — the paper's reference [1]) embedded on the
  communication graph.

All runners return a :class:`repro.core.problem.CountingResult`, which
checks the counting condition when it is built.
"""

from repro.counting.central import run_central_counting, run_central_queuing
from repro.counting.combining import run_combining_counting
from repro.counting.flood import run_flood_counting
from repro.counting.network import (
    bitonic_network,
    network_depth,
    run_counting_network,
)
from repro.counting.periodic import periodic_network, run_periodic_counting
from repro.counting.sweep import run_sweep_counting, run_sweep_queuing

__all__ = [
    "run_central_counting",
    "run_central_queuing",
    "run_combining_counting",
    "run_flood_counting",
    "bitonic_network",
    "network_depth",
    "run_counting_network",
    "periodic_network",
    "run_periodic_counting",
    "run_sweep_counting",
    "run_sweep_queuing",
]
