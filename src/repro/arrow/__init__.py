"""The arrow distributed queuing protocol (Raymond 1989; Demmer & Herlihy 1998).

The protocol the paper's upper bounds are about (Section 4): every node
keeps an *arrow* ``link(v)`` pointing along a spanning tree toward the
current queue tail; a queuing request travels along the arrows, flipping
each one to point back the way it came, until it reaches a node whose
arrow points at itself — the operation parked there is the request's
predecessor in the distributed total order.

:func:`run_arrow` executes the one-shot concurrent scenario of the paper
on the synchronous simulator and returns a verified
:class:`~repro.core.problem.QueuingResult`: per-operation delays, the
induced total order, and the paper's total-delay cost.
"""

from repro.arrow.protocol import ArrowNode
from repro.arrow.runner import run_arrow
from repro.arrow.analysis import arrow_vs_tsp, ArrowTspComparison
from repro.arrow.longlived import run_arrow_longlived
from repro.core.problem import init_op, op_of

__all__ = [
    "ArrowNode",
    "init_op",
    "op_of",
    "run_arrow",
    "arrow_vs_tsp",
    "ArrowTspComparison",
    "run_arrow_longlived",
]
