"""Optional event tracing for debugging and protocol validation.

Tracing is off by default (the engine takes ``trace=None``) because a
trace of a Theta(n^2)-round run is large.  Tests use it to assert engine
invariants such as "no node received more than ``recv_capacity`` messages
in any round".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator


@dataclass(slots=True, frozen=True)
class TraceEvent:
    """One engine event.

    Attributes:
        kind: ``"enqueue"`` (protocol called send), ``"send"`` (message
            entered a link), ``"deliver"`` (message processed by receiver),
            or ``"complete"`` (operation finished).  With a fault plan
            attached the injector adds ``"drop"``, ``"duplicate"``,
            ``"crash"`` and ``"recover"`` events.
        round: round in which the event happened.
        data: event-specific fields (src, dst, kind of message, ...).
    """

    kind: str
    round: int
    data: dict[str, Any]


class EventTrace:
    """An append-only event log with query helpers.

    :meth:`record` appends ``event, round_, data`` to one flat list.  The
    garbage collector never walks it: the list holds only strings, ints
    and kwargs dicts of atoms, which CPython leaves untracked, so a long
    trace adds no work to collection passes.  :attr:`events` builds the
    frozen :class:`TraceEvent` objects on read, incrementally, and caches
    them, so an event read twice is the same object.
    """

    def __init__(self) -> None:
        self._log: list[Any] = []
        self._events: list[TraceEvent] = []

    def record(self, event: str, round_: int, **data: Any) -> None:
        """Append one event (called by the engine).

        ``event`` is the engine event type; ``data`` may carry a ``kind``
        key for the *message* kind without colliding.
        """
        self._log.extend((event, round_, data))

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event, in order.

        The list is the trace's own cache: events recorded since the last
        read are appended to it, earlier ones keep their identity.
        """
        events = self._events
        log = self._log
        i = 3 * len(events)
        if i < len(log):
            events.extend(map(TraceEvent, log[i::3], log[i + 1 :: 3], log[i + 2 :: 3]))
        return events

    @events.setter
    def events(self, value: Iterable[TraceEvent]) -> None:
        self._events = list(value)
        self._log = [f for e in self._events for f in (e.kind, e.round, e.data)]

    def __len__(self) -> int:
        return len(self._log) // 3

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [e for e in self.events if e.kind == kind]

    def slice(self, start_round: int, end_round: int | None = None) -> "EventTrace":
        """A new trace holding the events of rounds ``[start, end]``.

        ``end_round=None`` means "through the last recorded round".
        Event objects are shared (they are frozen), order is preserved.
        Violation reports and chaos reproducers embed these windows.
        """
        out = EventTrace()
        out.events = [
            e
            for e in self.events
            if e.round >= start_round
            and (end_round is None or e.round <= end_round)
        ]
        return out

    def to_json(self) -> str:
        """Serialize to a JSON string round-tripping via :meth:`from_json`.

        Tuples inside event data (e.g. arrow op ids like ``("op", 3)``)
        are tagged as ``{"__tuple__": [...]}`` so the round trip restores
        them as tuples, keeping replayed traces ``==``-comparable to live
        ones.
        """
        import json

        def enc(value: Any) -> Any:
            if isinstance(value, tuple):
                return {"__tuple__": [enc(v) for v in value]}
            if isinstance(value, list):
                return [enc(v) for v in value]
            if isinstance(value, dict):
                return {k: enc(v) for k, v in value.items()}
            return value

        log = self._log
        rows = zip(log[0::3], log[1::3], log[2::3])
        return json.dumps(
            [[kind, round_, enc(data)] for kind, round_, data in rows],
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "EventTrace":
        """Rebuild a trace serialized by :meth:`to_json`."""
        import json

        def dec(value: Any) -> Any:
            if isinstance(value, dict):
                if set(value) == {"__tuple__"}:
                    return tuple(dec(v) for v in value["__tuple__"])
                return {k: dec(v) for k, v in value.items()}
            if isinstance(value, list):
                return [dec(v) for v in value]
            return value

        out = cls()
        out.events = [
            TraceEvent(kind, round_, dec(data))
            for kind, round_, data in json.loads(text)
        ]
        return out

    def fault_events(self) -> list[TraceEvent]:
        """All injected-fault events (drop/duplicate/crash/recover), in order."""
        kinds = ("drop", "duplicate", "crash", "recover")
        return [e for e in self.events if e.kind in kinds]

    def last_round(self) -> int:
        """The latest round any event was recorded in (0 when empty)."""
        return max(self._log[1::3], default=0)

    def deliveries_per_node_round(self) -> Counter[tuple[int, int]]:
        """Counter ``(node, round) -> deliveries`` for capacity checks."""
        c: Counter[tuple[int, int]] = Counter()
        for e in self.of_kind("deliver"):
            c[(e.data["dst"], e.round)] += 1
        return c

    def sends_per_node_round(self) -> Counter[tuple[int, int]]:
        """Counter ``(node, round) -> link entries`` for capacity checks."""
        c: Counter[tuple[int, int]] = Counter()
        for e in self.of_kind("send"):
            c[(e.data["src"], e.round)] += 1
        return c

    def max_deliveries_in_a_round(self) -> int:
        """Largest number of deliveries any node processed in one round."""
        per = self.deliveries_per_node_round()
        return max(per.values(), default=0)

    def max_sends_in_a_round(self) -> int:
        """Largest number of link entries any node made in one round."""
        per = self.sends_per_node_round()
        return max(per.values(), default=0)
