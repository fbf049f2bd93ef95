"""Long-lived arrow: requests arriving over time (extension).

The paper analyses the one-shot scenario; Kuhn & Wattenhofer (SPAA 2004,
reference [8]) study the dynamic case where queuing requests arrive while
the protocol is running.  This module reproduces that setting as an
extension experiment: each node may issue its operation at an arbitrary
round, and the delay of an operation is measured from its *issue* time to
the round its ``queue()`` message terminates.

The protocol logic is identical to the one-shot case — the arrow rules
are oblivious to time — only issuance is scheduled through the engine's
wakeup mechanism (:class:`~repro.arrow.protocol.ArrowNode`'s ``issue_at``).
So the runner, :func:`run_arrow_longlived`, lives beside the one-shot
:func:`~repro.arrow.runner.run_arrow` in :mod:`repro.arrow.runner`, and
returns the same :class:`~repro.core.problem.QueuingResult`.
"""

from __future__ import annotations

from repro.arrow.runner import run_arrow_longlived


def poisson_issue_times(
    n: int, rate: float, horizon: int, seed: int = 0
) -> dict[int, int]:
    """A random arrival schedule: each vertex issues once, at a round
    drawn uniformly from a Poisson-process-like schedule over ``[0, horizon)``.

    A convenience generator for the long-lived benchmarks; ``rate`` scales
    how many of the ``n`` vertices participate (expected ``rate * n``).
    """
    if not (0 < rate <= 1):
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    import numpy as np

    rng = np.random.default_rng(seed)
    participants = rng.random(n) < rate
    times = rng.integers(0, horizon, size=n)
    return {v: int(times[v]) for v in range(n) if participants[v]}


__all__ = ["poisson_issue_times", "run_arrow_longlived"]
