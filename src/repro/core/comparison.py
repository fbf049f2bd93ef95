"""The shape check of the counting-vs-queuing comparison.

The experiments (:mod:`repro.experiments.suite`) run counting and queuing
algorithms across graph sizes and fit growth exponents to the paper's
total-delay metric, so the asymptotic separations (Theorems 4.5, 4.12,
4.13, and the star counterexample) can be checked as *shapes*.
"""

from __future__ import annotations

from typing import Sequence


def growth_exponent(sizes: Sequence[int], totals: Sequence[float]) -> float:
    """Least-squares slope of ``log(total)`` against ``log(size)``.

    The shape check of the benchmarks: a ``Theta(n^2)`` family fits a
    slope near 2, a ``Theta(n)`` family near 1, ``Theta(n log n)`` a bit
    above 1.

    Raises:
        ValueError: with fewer than two points or non-positive values.
    """
    if len(sizes) != len(totals) or len(sizes) < 2:
        raise ValueError("need at least two (size, total) pairs")
    import numpy as np

    s = np.asarray(sizes, dtype=float)
    t = np.asarray(totals, dtype=float)
    if (s <= 0).any() or (t <= 0).any():
        raise ValueError("sizes and totals must be positive for log-log fit")
    slope, _intercept = np.polyfit(np.log(s), np.log(t), 1)
    return float(slope)
