"""The model-conformance rule catalog and finding container.

The simulator enforces the paper's Section 2.1 model at *runtime*
(neighbor-only sends, per-round capacities, single completion per
operation).  The linter enforces the same discipline *statically*, before
a simulation ever runs, over every :class:`repro.sim.Node` subclass it
can find.  Each rule has a stable identifier ``R1..R5`` used in findings,
tests, and the documentation (``docs/LINT.md``):

R1  engine-internals
    Protocol code reaches into private engine state (``ctx._network``,
    ``_outboxes``, ...) instead of going through the
    :class:`~repro.sim.node.NodeContext` API.  Anything the context does
    not expose is not part of the model.

R2  send-discipline
    ``ctx.send`` is invoked from code not reachable from the engine
    callbacks (``on_start`` / ``on_receive`` / ``on_wake``), or with a
    destination that is statically known not to be a neighbor (a node is
    never its own neighbor in the simple graphs the model runs on).

R3  nondeterminism
    A hazard that can break the engine's deterministic ``(sent_at, seq)``
    delivery order between runs: iteration over a ``set``/``dict``
    without ``sorted(...)``, calls into the unseeded global ``random``
    module, or wall-clock reads (``time.time``, ``datetime.now``, ...).

R4  shared-class-state
    Mutable state (list/dict/set/...) declared at class level is shared
    by every node instance — an accidental global channel that bypasses
    the message-passing model entirely.

R5  double-completion
    An ``on_receive``-reachable ``ctx.complete`` call whose operation id
    is derived only from per-node constants and that is not guarded by
    any runtime-mutated instance attribute.  ``on_receive`` runs once per
    delivered message, so such a call can complete the same operation
    twice (a :class:`~repro.sim.errors.ProtocolViolation` at runtime —
    but only on the execution that happens to trigger it).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class Rule:
    """One entry of the catalog.

    Attributes:
        rule_id: stable identifier (``"R1"``..``"R5"``).
        name: short kebab-case name used in human-readable output.
        summary: one-line description of what the rule catches.
    """

    rule_id: str
    name: str
    summary: str


RULES: Mapping[str, Rule] = {
    r.rule_id: r
    for r in (
        Rule("R1", "engine-internals",
             "protocol code accesses private engine internals"),
        Rule("R2", "send-discipline",
             "ctx.send outside engine callbacks or to a statically-known "
             "non-neighbor"),
        Rule("R3", "nondeterminism",
             "unordered set/dict iteration, unseeded random, or clock "
             "reads in protocol code"),
        Rule("R4", "shared-class-state",
             "mutable class-level state shared across node instances"),
        Rule("R5", "double-completion",
             "on_receive can complete the same operation twice"),
    )
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location.

    Attributes:
        rule_id: which rule fired (key into :data:`RULES`).
        path: file the finding is in.
        line: 1-based line number of the offending construct.
        col: 0-based column offset.
        obj: dotted name of the class/method the construct lives in
            (``""`` for module-level findings).
        message: human-readable explanation of this occurrence.
    """

    rule_id: str
    path: str
    line: int
    col: int
    obj: str
    message: str

    def render(self) -> str:
        """``file:line:col: R3 [nondeterminism] message (in Obj)`` text."""
        rule = RULES[self.rule_id]
        where = f" (in {self.obj})" if self.obj else ""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} [{rule.name}] {self.message}{where}"
        )


def render_text(findings: Iterable[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary line."""
    items = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))
    lines = [f.render() for f in items]
    n = len(items)
    lines.append(
        "lint: clean" if n == 0 else
        f"lint: {n} finding{'s' if n != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    """Structured report: ``{"findings": [...], "count": N}`` JSON."""
    items = sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule_id))
    payload = {
        "findings": [
            {**asdict(f), "rule_name": RULES[f.rule_id].name} for f in items
        ],
        "count": len(items),
    }
    return json.dumps(payload, indent=2)
