"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and flat JSONL.

:func:`chrome_trace` turns an :class:`~repro.sim.trace.EventTrace` into
the Chrome trace-event format that https://ui.perfetto.dev (and
``chrome://tracing``) opens directly:

* one track (thread) per node, named ``node <id>``;
* a complete span (``ph="X"``) per delivered message, on the *receiver's*
  track, covering the message's link traversal plus its wait at the
  saturated receiver (``args.wait`` carries the contention rounds);
* a complete span per outbox stint when a message waited to be sent
  (send contention);
* a complete span per operation from its request (round 0 in the
  one-shot executions) to its completion round, on the completing node's
  track;
* instant events (``ph="i"``) for injected faults — drops, duplicates,
  crashes, recoveries;
* global counter tracks (``ph="C"``) for per-round sends and deliveries.

Rounds are mapped to trace microseconds at a fixed scale
(:data:`ROUND_US` per round) so one engine round reads as one
millisecond on the Perfetto timeline.

Message spans are reconstructed without per-message identifiers: links
are FIFO, so the *k*-th ``send`` on a directed link pairs with the *k*-th
``deliver`` on it.  Messages still in flight when the trace ends (e.g. a
``RoundLimitExceeded`` run) are emitted as zero-length instant events
tagged ``unmatched``.

:func:`jsonl_lines` is the structured counterpart: one JSON object per
engine event, suitable for ``jq``/pandas post-processing.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict, deque
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import EventTrace

#: Trace microseconds per engine round (1 round renders as 1 ms).
ROUND_US = 1000

#: The single Chrome trace "process" all node tracks live under.
PID = 1

#: Trace-event kinds emitted by fault injection.
FAULT_EVENT_KINDS = ("drop", "duplicate", "crash", "recover")


def _span(
    name: str, ts: int, dur: int, tid: int, args: dict[str, Any]
) -> dict[str, Any]:
    return {
        "name": name,
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": PID,
        "tid": tid,
        "args": args,
    }


def _instant(name: str, ts: int, tid: int, args: dict[str, Any]) -> dict[str, Any]:
    return {
        "name": name,
        "ph": "i",
        "s": "t",
        "ts": ts,
        "pid": PID,
        "tid": tid,
        "args": args,
    }


def chrome_trace(trace: "EventTrace", *, label: str = "repro") -> dict[str, Any]:
    """Render ``trace`` as a Chrome trace-event JSON document.

    Args:
        trace: the engine event trace to export.
        label: process name shown in the Perfetto UI.

    Returns:
        A dict with ``traceEvents`` (list of trace-event objects) and
        ``displayTimeUnit``; serialize with ``json.dump`` or
        :func:`write_chrome_trace`.
    """
    events: list[dict[str, Any]] = []
    nodes: set[int] = set()
    # FIFO pairing state per directed link.
    sends: dict[tuple[int, int], deque[int]] = defaultdict(deque)
    enqueues: dict[tuple[int, int], deque[int]] = defaultdict(deque)
    sends_per_round: Counter[int] = Counter()
    delivers_per_round: Counter[int] = Counter()

    for e in trace.events:
        d = e.data
        if e.kind == "enqueue":
            key = (d["src"], d["dst"])
            enqueues[key].append(e.round)
            nodes.add(d["src"])
            nodes.add(d["dst"])
        elif e.kind == "send":
            key = (d["src"], d["dst"])
            sends[key].append(e.round)
            sends_per_round[e.round] += 1
            if enqueues[key]:
                t0 = enqueues[key].popleft()
                if e.round > t0:  # waited in the outbox: send contention
                    events.append(
                        _span(
                            f"outbox {d['kind']}",
                            t0 * ROUND_US,
                            (e.round - t0) * ROUND_US,
                            d["src"],
                            {"dst": d["dst"], "kind": d["kind"]},
                        )
                    )
        elif e.kind == "deliver":
            key = (d["src"], d["dst"])
            delivers_per_round[e.round] += 1
            sent = sends[key].popleft() if sends[key] else e.round
            events.append(
                _span(
                    f"{d['kind']} {d['src']}->{d['dst']}",
                    sent * ROUND_US,
                    max(1, (e.round - sent)) * ROUND_US,
                    d["dst"],
                    {"src": d["src"], "kind": d["kind"], "wait": d["wait"]},
                )
            )
        elif e.kind == "complete":
            nodes.add(d["node"])
            events.append(
                _span(
                    f"op {d['op']}",
                    0,
                    max(1, e.round) * ROUND_US,
                    d["node"],
                    {"op": repr(d["op"]), "delay": e.round},
                )
            )
        elif e.kind == "drop":
            events.append(
                _instant(
                    f"drop {d['src']}-x>{d['dst']}",
                    e.round * ROUND_US,
                    d["src"],
                    {"dst": d["dst"], "kind": d["kind"],
                     "reason": d["reason"]},
                )
            )
            # A dropped message consumed its outbox slot; discard the
            # matching enqueue so later pairings stay aligned.
            key = (d["src"], d["dst"])
            if enqueues[key]:
                enqueues[key].popleft()
        elif e.kind == "duplicate":
            events.append(
                _instant(
                    f"duplicate {d['src']}->{d['dst']}",
                    e.round * ROUND_US,
                    d["src"],
                    {"dst": d["dst"], "kind": d["kind"]},
                )
            )
        elif e.kind in ("crash", "recover"):
            nodes.add(d["node"])
            events.append(
                _instant(e.kind, e.round * ROUND_US, d["node"], {"node": d["node"]})
            )
        elif e.kind == "violation":
            # Resilience-monitor verdicts have no single owning node; they
            # render on track 0 so the red marker is hard to miss.
            events.append(
                _instant(
                    f"violation {d['invariant']}",
                    e.round * ROUND_US,
                    0,
                    {"invariant": d["invariant"], "detail": d["detail"]},
                )
            )

    # Messages never delivered (truncated run): flag them rather than
    # silently dropping the sends.
    for (src, dst), pending in sorted(sends.items()):
        for sent in pending:
            events.append(
                _instant(
                    f"unmatched send {src}->{dst}",
                    sent * ROUND_US,
                    src,
                    {"dst": dst, "unmatched": True},
                )
            )
            nodes.add(src)

    for key in sends:
        nodes.add(key[0])
        nodes.add(key[1])

    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "args": {"name": label},
        }
    ]
    for v in sorted(nodes):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID,
                "tid": v,
                "args": {"name": f"node {v}"},
            }
        )

    counters: list[dict[str, Any]] = []
    for r in sorted(set(sends_per_round) | set(delivers_per_round)):
        counters.append(
            {
                "name": "messages/round",
                "ph": "C",
                "ts": r * ROUND_US,
                "pid": PID,
                "args": {
                    "sent": sends_per_round.get(r, 0),
                    "delivered": delivers_per_round.get(r, 0),
                },
            }
        )

    events.sort(key=lambda ev: (ev["ts"], ev["tid"], ev["name"]))
    return {
        "displayTimeUnit": "ms",
        "traceEvents": meta + counters + events,
    }


def write_chrome_trace(trace: "EventTrace", path: str, *, label: str = "repro") -> None:
    """Write :func:`chrome_trace` output to ``path`` (open in ui.perfetto.dev)."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(trace, label=label), fh, indent=1, sort_keys=True)
        fh.write("\n")


def jsonl_lines(trace: "EventTrace") -> Iterator[str]:
    """One compact JSON object per engine event, in trace order.

    Each line has ``event`` (engine event type) and ``round`` plus the
    event's own fields; ``repr`` is applied to non-JSON-safe values
    (operation ids are tuples).
    """
    for e in trace.events:
        doc: dict[str, Any] = {"event": e.kind, "round": e.round}
        for k, v in e.data.items():
            if isinstance(v, (int, float, str, bool)) or v is None:
                doc[k] = v
            else:
                doc[k] = repr(v)
        yield json.dumps(doc, sort_keys=True)


def write_jsonl(trace: "EventTrace", path: str) -> int:
    """Write the JSONL event stream to ``path``; returns the line count."""
    n = 0
    with open(path, "w") as fh:
        for line in jsonl_lines(trace):
            fh.write(line)
            fh.write("\n")
            n += 1
    return n


__all__ = [
    "ROUND_US",
    "PID",
    "FAULT_EVENT_KINDS",
    "chrome_trace",
    "write_chrome_trace",
    "jsonl_lines",
    "write_jsonl",
]
