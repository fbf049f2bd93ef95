"""Metrics primitives: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is the single sink every instrumented layer
publishes into — the engine (message counters, per-op delay and link-wait
histograms, per-round in-flight/backlog gauges), the fault injector
(crash counters), and the reliable-delivery wrapper (retransmit/ack
accounting).  The registry is attached explicitly
(``SynchronousNetwork(..., metrics=registry)`` or the runners'
``metrics=`` kwarg); when it is absent the instrumented call sites reduce
to a single ``is not None`` check, so a metrics-free run costs nothing
and is byte-for-byte identical to an uninstrumented one.

Histogram buckets are *fixed* (geometric, powers of two by default) so
exported metrics are comparable across runs and across protocols — the
flood-vs-arrow separation shows up as mass in different buckets, not as
different bucket edges.

The registry is deliberately engine-agnostic: :mod:`repro.sim` never
imports this module, it only uses the small duck-typed surface of the
get-or-create accessors (:meth:`MetricsRegistry.counter`,
:meth:`~MetricsRegistry.gauge`, :meth:`~MetricsRegistry.histogram`) and
the :attr:`~MetricsRegistry.series` mapping.  The engine looks each
object up on its first publish and updates it directly afterwards, as
the fault injector, the reliable-delivery wrapper and the monitor set
do; :meth:`Histogram.observe` takes an optional count, so the engine
publishes each phase's link waits as one call per distinct value.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Iterator

#: Default histogram bucket upper edges, in rounds: 0, then powers of two
#: up to 2^20.  A value ``v`` lands in the first bucket whose edge is
#: ``>= v``; values beyond the last edge land in the overflow bucket.
#: These edges are part of the exported-metrics contract — tests pin them.
DEFAULT_ROUND_BUCKETS: tuple[int, ...] = (0,) + tuple(
    1 << i for i in range(21)
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def to_dict(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value with a high-water mark."""

    __slots__ = ("name", "value", "high")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.high = 0

    def set(self, value: int | float) -> None:
        """Record the current value (and update the high-water mark)."""
        self.value = value
        if value > self.high:
            self.high = value

    def to_dict(self) -> dict[str, Any]:
        return {"value": self.value, "high": self.high}


class Histogram:
    """A fixed-bucket histogram of non-negative integer observations.

    Args:
        name: metric name.
        buckets: ascending upper bucket edges.  Observation ``v`` counts
            in the first bucket with edge ``>= v``; larger values count
            in a final overflow bucket, so ``len(counts) ==
            len(buckets) + 1``.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, buckets: tuple[int, ...] = DEFAULT_ROUND_BUCKETS
    ) -> None:
        if list(buckets) != sorted(set(buckets)):
            raise ValueError(f"bucket edges must be strictly ascending: {buckets}")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total = 0
        self.min: int | float | None = None
        self.max: int | float | None = None

    def observe(self, value: int | float, n: int = 1) -> None:
        """Record ``n`` (default 1) observations of ``value``."""
        self.counts[bisect_left(self.buckets, value)] += n
        self.count += n
        self.total += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int | float:
        """Approximate ``q``-quantile (``0 < q <= 1``) from bucket edges.

        Returns the upper edge of the bucket containing the quantile
        (``max`` for the overflow bucket), which over-approximates by at
        most one bucket width — enough to separate growth classes.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self.count == 0:
            return 0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                if i < len(self.buckets):
                    return self.buckets[i]
                return self.max if self.max is not None else 0
        return self.max if self.max is not None else 0  # pragma: no cover

    def to_dict(self) -> dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Named counters, gauges, histograms, and per-round samples.

    Instruments publish through the get-or-create accessors
    (:meth:`counter`/:meth:`gauge`/:meth:`histogram`, binding the object
    once and updating it directly, as the engine does) or the one-shot
    conveniences (:meth:`inc`/:meth:`set_gauge`/:meth:`observe`), which
    look the object up on every call.  :meth:`sample` appends to a
    per-round time series in :attr:`series` (e.g. in-flight messages per
    round), kept separate from gauges because a series grows with the
    run.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self.series: dict[str, list[tuple[int, int | float]]] = {}

    # ------------------------------------------------------- get-or-create

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: tuple[int, ...] = DEFAULT_ROUND_BUCKETS
    ) -> Histogram:
        """The histogram called ``name``, created on first use.

        Raises:
            ValueError: if the histogram exists with different buckets.
        """
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, buckets)
        elif h.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already exists with buckets {h.buckets}"
            )
        return h

    # ------------------------------------------------- one-shot publishers

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: int | float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: int | float, n: int = 1) -> None:
        """Record ``value`` ``n`` times into histogram ``name`` (default buckets).

        The count lets a publisher that tallies locally (the engine, once
        per phase) emit one call per distinct value.
        """
        self.histogram(name).observe(value, n)

    def sample(self, name: str, t: int, value: int | float) -> None:
        """Append ``(t, value)`` to the time series called ``name``."""
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = []
        s.append((t, value))

    # -------------------------------------------------------------- export

    def names(self) -> Iterator[str]:
        """All metric names, sorted."""
        yield from sorted(
            set(self.counters) | set(self.gauges)
            | set(self.histograms) | set(self.series)
        )

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe document of every published metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.to_dict() for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self.histograms.items())
            },
            "series": {
                n: [[t, v] for t, v in s] for n, s in sorted(self.series.items())
            },
        }

    def write_json(self, path: str) -> None:
        """Write :meth:`to_dict` to ``path`` as stable, indented JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    def run_stats_view(self):
        """The engine-published metrics as a ``RunStats`` (thin view).

        Demonstrates that the instrumented call sites fully cover the
        legacy aggregate: for any instrumented run this equals the
        engine's own ``net.stats``.
        """
        from repro.sim.network import RunStats

        c = self.counters
        g = self.gauges

        def cval(name: str) -> int:
            cc = c.get(name)
            return cc.value if cc is not None else 0

        def ghigh(name: str) -> int:
            gg = g.get(name)
            return int(gg.high) if gg is not None else 0

        return RunStats(
            rounds=int(g["engine.rounds"].value) if "engine.rounds" in g else 0,
            messages_sent=cval("engine.messages_sent"),
            messages_delivered=cval("engine.messages_delivered"),
            max_send_backlog=ghigh("engine.send_backlog"),
            max_recv_backlog=ghigh("engine.recv_backlog"),
            total_link_wait=cval("engine.link_wait_total"),
            messages_dropped=cval("engine.messages_dropped"),
            messages_duplicated=cval("engine.messages_duplicated"),
            node_crashes=cval("faults.node_crashes"),
        )


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_ROUND_BUCKETS",
]
