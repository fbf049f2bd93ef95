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
            ``"crash"`` and ``"recover"`` events, and a resilience
            monitor that trips records a ``"violation"``.
        round: round in which the event happened.
        data: event-specific fields (src, dst, kind of message, ...).
    """

    kind: str
    round: int
    data: dict[str, Any]


#: Field names of every trace event, in log order.  The engine writes
#: its records positionally in this order; :meth:`EventTrace.record`
#: maps keyword fields onto it, so ``record("send", t, src=src, dst=dst,
#: kind=kind)`` and ``record("send", t, src, dst, kind)`` log the same
#: record, and reading the trace names each record's fields from here.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "enqueue": ("src", "dst", "kind"),
    "send": ("src", "dst", "kind"),
    "duplicate": ("src", "dst", "kind"),
    "deliver": ("src", "dst", "kind", "wait"),
    "drop": ("src", "dst", "kind", "reason"),
    "complete": ("node", "op"),
    "crash": ("node",),
    "recover": ("node",),
    "violation": ("invariant", "detail"),
}


def _names(event: str) -> tuple[str, ...]:
    """The field names of ``event``.

    Raises:
        ValueError: naming ``event`` when it is not in :data:`EVENT_FIELDS`.
    """
    names = EVENT_FIELDS.get(event)
    if names is None:
        raise ValueError(
            f"unknown trace event {event!r}; EVENT_FIELDS names "
            f"{sorted(EVENT_FIELDS)}"
        )
    return names


def _ordered(event: str, data: dict[str, Any]) -> list[Any]:
    """``data``'s values in the order :data:`EVENT_FIELDS` gives ``event``.

    Raises:
        ValueError: naming the event, or the fields ``data`` has that the
            event does not take or lacks that it does.
    """
    names = _names(event)
    unknown = sorted(data.keys() - set(names))
    missing = [n for n in names if n not in data]
    if unknown or missing:
        raise ValueError(
            f"trace event {event!r} takes fields {names}; unknown {unknown}, "
            f"missing {missing}"
        )
    return [data[n] for n in names]


def _rows(log: list[Any], i: int) -> Iterator[tuple[str, int, dict[str, Any]]]:
    """``(event, round, data)`` for every record from log index ``i`` on."""
    n = len(log)
    while i < n:
        event = log[i]
        names = EVENT_FIELDS[event]
        j = i + 2 + len(names)
        yield event, log[i + 1], dict(zip(names, log[i + 2 : j]))
        i = j


class EventTrace:
    """An append-only event log with query helpers.

    :meth:`record` appends to one flat list, :attr:`log`: ``event, round,
    *fields``, the fields in the order :data:`EVENT_FIELDS` gives the
    event.  A record adds no container to the log, only its values, so a
    long engine trace neither adds work to garbage collection passes nor
    triggers them.  :attr:`events` builds the frozen :class:`TraceEvent`
    objects on read, incrementally, and caches them, so an event read
    twice is the same object.

    Producer entry point: ``log.extend((event, round, *fields))`` appends
    one record exactly as ``record(event, round, *fields)`` does, without
    the checks or a Python call.  The engine writes its own events this
    way, binding ``trace.log.extend`` as a local once per phase, so a
    subclass that overrides :meth:`record` sees only the injector's crash
    boundaries and a monitor's violations, not the engine's events.  The
    list object is the trace's for life (the :attr:`events` setter
    refills it in place), but a bound ``log.extend`` must not be stored
    on an object a checkpoint copies: :func:`copy.deepcopy` treats bound
    builtin methods as atoms, so a copy would write into this log.
    """

    def __init__(self) -> None:
        #: The flat record log (see the class docstring).
        self.log: list[Any] = []
        self._events: list[TraceEvent] = []
        #: Log index up to which :attr:`_events` has been built.
        self._read = 0

    def record(self, event: str, round_: int, *fields: Any, **data: Any) -> None:
        """Append one event.

        The fields are passed positionally, in the order
        :data:`EVENT_FIELDS` names them (``record("send", t, src, dst,
        kind)``), or as keywords, which are put in that order
        (``record("crash", t, node=3)``); ``kind`` is the *message*
        kind's field, so it does not collide with the event's name.

        Raises:
            ValueError: naming an event missing from :data:`EVENT_FIELDS`,
                a keyword field the event does not take or one it lacks,
                or on the wrong number of positional fields.
            TypeError: when positional and keyword fields are mixed.
        """
        if data:
            if fields:
                raise TypeError(f"trace event {event!r} mixes positional and keyword fields")
            fields = _ordered(event, data)
        else:
            names = _names(event)
            if len(fields) != len(names):
                raise ValueError(
                    f"trace event {event!r} takes {len(names)} positional fields "
                    f"{names}, got {len(fields)}"
                )
        log = self.log
        log.append(event)
        log.append(round_)
        log.extend(fields)

    @property
    def events(self) -> list[TraceEvent]:
        """Every recorded event, in order.

        The list is the trace's own cache: events recorded since the last
        read are appended to it, earlier ones keep their identity.
        """
        events = self._events
        log = self.log
        if self._read < len(log):
            events.extend(
                TraceEvent(event, round_, data)
                for event, round_, data in _rows(log, self._read)
            )
            self._read = len(log)
        return events

    @events.setter
    def events(self, value: Iterable[TraceEvent]) -> None:
        events = list(value)
        self.log[:] = [f for e in events for f in (e.kind, e.round, *_ordered(e.kind, e.data))]
        self._events = events
        self._read = len(self.log)

    def __len__(self) -> int:
        return len(self.events)

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

        return json.dumps(
            [[kind, round_, enc(data)] for kind, round_, data in _rows(self.log, 0)],
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
        return max((e.round for e in self.events), default=0)

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
