"""Post-run analytics: delay profiles, delay histograms, text charts.

The paper's lower-bound argument is *per operation*: the op that outputs
count ``k`` must have latency growing with ``k`` (Lemma 3.1) and with the
distance information travelled (Theorem 3.6).  This package turns raw
run results into those curves:

* :func:`latency_by_rank` — measured delay as a function of the rank
  received, against the analytic per-op bounds;
* :func:`delay_histogram` — how the delays of a run are spread;
* :mod:`repro.analysis.charts` — dependency-free ASCII bar charts and
  sparklines so examples and EXPERIMENTS.md can show the curves inline.
"""

from repro.analysis.profiles import (
    RankLatencyProfile,
    latency_by_rank,
    delay_histogram,
)
from repro.analysis.charts import ascii_bars, sparkline

__all__ = [
    "RankLatencyProfile",
    "latency_by_rank",
    "delay_histogram",
    "ascii_bars",
    "sparkline",
]
