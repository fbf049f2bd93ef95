"""Human-readable execution timelines from an event trace.

For teaching and debugging: render a small run round by round, showing
which messages moved where and which operations completed.  Used by the
quickstart material and by tests that assert specific round-by-round
behaviour of the arrow protocol.
"""

from __future__ import annotations

from collections import defaultdict

from repro.sim.trace import EventTrace


def render_timeline(trace: EventTrace, max_rounds: int | None = None) -> str:
    """Render a trace as one line per round.

    Each round shows message deliveries (``src->dst kind``, with a
    ``+wait`` suffix when the message waited at the receiver beyond its
    link delay) and operation completions (``node!op``).  Injected
    faults render too: drops as ``src-x>dst kind`` (with `` (outage)``
    when a link outage ate the message rather than random loss),
    duplicated sends as ``src=>dst kind x2``, and crash windows as
    ``crash node`` / ``recover node``.

    Args:
        trace: the engine trace (pass ``trace=EventTrace()`` to the
            network to collect one).
        max_rounds: truncate the rendering after this many rounds.
    """
    by_round: dict[int, list[str]] = defaultdict(list)
    for e in trace.events:
        if e.kind == "deliver":
            wait = e.data["wait"]
            suffix = f"+{wait}" if wait else ""
            by_round[e.round].append(
                f"{e.data['src']}->{e.data['dst']} {e.data['kind']}{suffix}"
            )
        elif e.kind == "complete":
            by_round[e.round].append(f"{e.data['node']}!{e.data['op']}")
        elif e.kind == "drop":
            suffix = " (outage)" if e.data["reason"] == "outage" else ""
            by_round[e.round].append(
                f"{e.data['src']}-x>{e.data['dst']} {e.data['kind']}{suffix}"
            )
        elif e.kind == "duplicate":
            by_round[e.round].append(
                f"{e.data['src']}=>{e.data['dst']} {e.data['kind']} x2"
            )
        elif e.kind in ("crash", "recover"):
            by_round[e.round].append(f"{e.kind} {e.data['node']}")
    if not by_round:
        return "(no events)"
    rounds = sorted(by_round)
    if max_rounds is not None:
        rounds = rounds[:max_rounds]
    width = len(str(rounds[-1]))
    lines = [
        f"r{r:>{width}}: " + " | ".join(by_round[r]) for r in rounds
    ]
    if max_rounds is not None and len(by_round) > max_rounds:
        lines.append(f"... ({len(by_round) - max_rounds} more rounds)")
    return "\n".join(lines)


def message_flow_summary(trace: EventTrace) -> dict[str, int]:
    """Per message-kind delivery counts (a quick protocol fingerprint)."""
    out: dict[str, int] = defaultdict(int)
    for e in trace.of_kind("deliver"):
        out[e.data["kind"]] += 1
    return dict(sorted(out.items()))
