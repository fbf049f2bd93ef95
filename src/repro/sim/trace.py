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


#: Field names of the events the engine records positionally, in the
#: order the engine passes them (the order of the keyword records they
#: replaced).  Reading the trace names a positional record's fields with
#: this table, so ``record("send", t, src, dst, kind)`` reads exactly like
#: ``record("send", t, src=src, dst=dst, kind=kind)``.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "enqueue": ("src", "dst", "kind"),
    "send": ("src", "dst", "kind"),
    "duplicate": ("src", "dst", "kind"),
    "deliver": ("src", "dst", "kind", "wait"),
    "drop": ("src", "dst", "kind", "reason"),
    "complete": ("node", "op"),
}

_ARITY = {event: len(names) for event, names in EVENT_FIELDS.items()}


class _Keywords:
    """Log marker: the next log item is a keyword record's ``data`` dict.

    The class itself is the marker, so copies and pickles keep it.
    """


def _rows(log: list[Any], i: int) -> Iterator[tuple[str, int, dict[str, Any]]]:
    """``(event, round, data)`` for every record from log index ``i`` on."""
    n = len(log)
    while i < n:
        event = log[i]
        round_ = log[i + 1]
        if log[i + 2] is _Keywords:
            data = log[i + 3]
            i += 4
        else:
            names = EVENT_FIELDS[event]
            j = i + 2 + len(names)
            data = dict(zip(names, log[i + 2 : j]))
            i = j
        yield event, round_, data


def _reject(event: str, fields: tuple[Any, ...], data: dict[str, Any]) -> None:
    """Raise for a positional record :meth:`EventTrace.record` cannot name."""
    if data:
        raise TypeError(f"trace event {event!r} mixes positional and keyword fields")
    names = EVENT_FIELDS.get(event)
    if names is None:
        raise ValueError(
            f"trace event {event!r} has no positional field names; record it "
            f"with keywords or add it to EVENT_FIELDS"
        )
    raise ValueError(
        f"trace event {event!r} takes {len(names)} positional fields "
        f"{names}, got {len(fields)}"
    )


class EventTrace:
    """An append-only event log with query helpers.

    :meth:`record` appends to one flat list, :attr:`log`: ``event, round,
    *fields`` for a positional record, ``event, round, _Keywords, data``
    for a keyword one.  A positional record adds no container to the log,
    only the values passed, so a long engine trace neither adds work to
    garbage collection passes nor triggers them; a keyword record adds one
    dict, which CPython leaves untracked while it holds only atoms.
    :attr:`events` builds the frozen :class:`TraceEvent` objects on read,
    incrementally, and caches them, so an event read twice is the same
    object.

    Producer entry point: ``log.extend((event, round, *fields))`` appends
    one positional record exactly as ``record(event, round, *fields)``
    does, without the arity check or a Python call.  The engine writes
    its own events this way, binding ``trace.log.extend`` as a local once
    per phase, so a subclass that overrides :meth:`record` sees only the
    keyword records (the injector's crash boundaries, a monitor's
    violation), not the engine's.  The fields must be :data:`EVENT_FIELDS`'s, in its order.
    The list object is the trace's for life (the :attr:`events` setter
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

        The engine passes its events' fields positionally, in the order
        :data:`EVENT_FIELDS` names them (``record("send", t, src, dst,
        kind)``).  Any event may pass keywords instead (``record("crash",
        t, node=3)``); ``data`` may carry a ``kind`` key for the *message*
        kind without colliding.

        Raises:
            ValueError: on positional fields for an event type missing
                from :data:`EVENT_FIELDS`, or of the wrong number.
            TypeError: when positional and keyword fields are mixed.
        """
        if fields:
            if data or _ARITY.get(event) != len(fields):
                _reject(event, fields, data)
            log = self.log
            log.append(event)
            log.append(round_)
            log.extend(fields)
        else:
            self.log.extend((event, round_, _Keywords, data))

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
        self._events = list(value)
        self.log[:] = [
            f for e in self._events for f in (e.kind, e.round, _Keywords, e.data)
        ]
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
