"""The arrow distributed directory (Demmer & Herlihy, DISC 1998).

Reference [4] of the paper: the arrow protocol was popularised as a
*distributed directory* for a mobile object (e.g. a shared data
structure or a lock with payload).  A node wanting the object issues a
find request that runs the arrow path-reversal on the spanning tree;
when the current holder is done, the object itself travels *directly*
through the communication graph (shortest path, not the tree) to the
next requester.

This package implements that full loop on the simulator, separating the
two kinds of traffic the analysis distinguishes: tree-bound ``queue()``
messages and graph-bound object moves (``token`` messages).  On ``G = T``
it is exactly the token mutex of :mod:`repro.mutex`.
"""

from repro.directory.protocol import DirectoryOutcome, run_object_directory

__all__ = ["DirectoryOutcome", "run_object_directory"]
