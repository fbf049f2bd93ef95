"""Distributed addition (fetch-and-add) — the paper's open question.

Section 5 asks how other total-order coordination problems, such as
*distributed addition* (Fatourou & Herlihy's adding networks, the
paper's reference [5]), compare to counting and queuing.  This package
implements fetch-and-add so the question can be probed empirically:
every requester contributes an integer increment, the operations are
organised into a total order, and each requester receives the sum of all
increments ordered before its own (the accumulator's prior value).

Counting is the special case of unit increments (rank = prior sum + 1),
so the counting lower bounds of Section 3 apply verbatim to addition —
while queuing does not get easier.  The E19 experiment measures exactly
that.

The code says the same: the runners here drive the counting package's
central-server and combining-tree nodes with arbitrary increments.  Each
requester receives its *inclusive* prefix sum (its rank, for unit
increments) and the runner subtracts its increment to report the prior
sum.  Only :class:`AdditionResult`, which verifies itself when built,
lives here.
"""

from repro.adding.combining import AdditionResult, run_combining_addition
from repro.adding.central import run_central_addition

__all__ = ["AdditionResult", "run_combining_addition", "run_central_addition"]
