"""AST-based static protocol-conformance analyzer.

Walks Python sources, finds every :class:`repro.sim.Node` subclass, and
applies the rule catalog of :mod:`repro.lint.rules` to its methods.  The
analysis is purely syntactic — nothing is imported or executed — so it is
safe to run over arbitrary user protocol files.

Node-subclass detection is a per-module fixpoint over base-class *names*:
a class is a protocol node if one of its bases is named ``Node``, ends in
``Node`` (the repo-wide convention: ``ArrowNode``, ``_SweepNode``, ...),
or is itself a node class defined earlier in the same module.  Cross-file
inheritance therefore relies on the naming convention; that trade-off is
documented in ``docs/LINT.md``.

Intraprocedural facts the rules share:

* a per-class *call graph* over ``self.method(...)`` calls, giving the
  set of methods reachable from the engine callbacks (R2) and from
  ``on_receive`` alone (R5);
* per-class *attribute typing* for attributes assigned set/dict literals
  anywhere in the class (R3);
* per-class *mutated attributes* — instance attributes written outside
  ``__init__``, including mutating method calls like ``.append`` — used
  as evidence that a completion guard can actually change value (R5);
* per-function *parameter taint* — values flowing in through parameters
  (message payloads travel this way) are considered message-derived and
  exempt a ``ctx.complete`` from R5.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.rules import Finding

# ---------------------------------------------------------------------------
# Rule data
# ---------------------------------------------------------------------------

#: Engine attributes protocol code must never touch, even via ``self``.
_ENGINE_ONLY_ATTRS = frozenset({"_network", "_record_completion"})

_SIM_DIR = Path(__file__).resolve().parent.parent / "sim"


def _live_engine_names() -> frozenset[str]:
    """Private names of the live engine, read from its source.

    Every ``self._x`` that ``sim/network.py`` assigns, every ``_x``
    function, method or property it defines, and the slots of
    ``NodeContext`` in ``sim/node.py``: the set cannot fall behind the
    engine's layout.
    """
    names: set[str] = set()
    for n in ast.walk(ast.parse((_SIM_DIR / "network.py").read_text())):
        if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"):
            names.add(n.attr)
        elif isinstance(n, ast.FunctionDef):
            names.add(n.name)
    for n in ast.parse((_SIM_DIR / "node.py").read_text()).body:
        if isinstance(n, ast.ClassDef) and n.name == "NodeContext":
            for stmt in n.body:
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt.targets) == "__slots__":
                    names.update(ast.literal_eval(stmt.value))
    return frozenset(
        x for x in names if x.startswith("_") and not x.startswith("__")
    )


#: Additional private engine state flagged when accessed on anything that
#: is not ``self`` (a protocol may legitimately name its own ``_ready``).
_ENGINE_PRIVATE_ATTRS = _ENGINE_ONLY_ATTRS | _live_engine_names() | frozenset(
    # names of earlier engine layouts, still flagged: code written
    # against them is just as wrong
    {"_links", "_outbox", "_ready", "_nodes_l", "_ctx_l", "_enqueue_send",
     "_schedule_wakeup", "_enqueue", "_wakeup"}
)

#: The engine callbacks protocol logic is allowed to originate from.
_CALLBACKS = ("on_start", "on_receive", "on_wake")

#: ``random`` module functions that draw from the unseeded global state.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {"random", "randint", "randrange", "choice", "choices", "shuffle",
     "sample", "uniform", "getrandbits", "gauss", "normalvariate",
     "expovariate", "betavariate", "triangular", "vonmisesvariate",
     "paretovariate", "weibullvariate", "lognormvariate", "randbytes"}
)
#: ``module attr`` pairs that read a wall clock.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}

#: Builtins whose result does not depend on iteration order — a
#: comprehension/genexp used directly as their argument is safe.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"any", "all", "sum", "min", "max", "len", "set", "frozenset",
     "sorted", "Counter"}
)
#: Wrappers that preserve (and therefore leak) iteration order.
_ORDER_PRESERVING_WRAPPERS = frozenset(
    {"list", "tuple", "iter", "reversed", "enumerate"}
)

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "remove", "discard",
     "pop", "popitem", "clear", "setdefault", "appendleft", "extendleft"}
)

#: Class-body value constructors considered mutable shared state (R4).
_MUTABLE_FACTORY_NAMES = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter",
     "OrderedDict", "bytearray"}
)


def _base_name(node: ast.expr) -> str | None:
    """Last dotted segment of a base-class expression, if nameable."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotate_parents(tree: ast.AST) -> None:
    """Attach a ``_lint_parent`` backlink to every AST node."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._lint_parent = parent  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_lint_parent", None)


def _names_in(node: ast.AST) -> set[str]:
    """All bare names read anywhere inside ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _self_attrs_in(node: ast.AST) -> set[str]:
    """Attributes read as ``self.X`` anywhere inside ``node``."""
    out: set[str] = set()
    for n in ast.walk(node):
        if (isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "self"):
            out.add(n.attr)
    return out


def _assign_target_names(target: ast.expr) -> Iterator[str]:
    """Bare names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _assign_target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _assign_target_names(target.value)


def _is_terminal_branch(body: Sequence[ast.stmt]) -> bool:
    """Does this block always leave the function/loop (guard shape)?"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


# ---------------------------------------------------------------------------
# Per-class fact gathering
# ---------------------------------------------------------------------------


class _ClassFacts:
    """Syntactic facts about one Node subclass, shared by the rules."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.cls = cls
        self.methods: dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.set_attrs: set[str] = set()
        self.dict_attrs: set[str] = set()
        self.mutated_attrs: set[str] = set()
        self._collect_attr_facts()
        self.reachable_from_callbacks = self._reachable(
            [m for m in _CALLBACKS if m in self.methods]
        )
        self.reachable_from_receive = self._reachable(
            ["on_receive"] if "on_receive" in self.methods else []
        )

    # -- call graph ------------------------------------------------------

    def _calls_of(self, fn: ast.FunctionDef) -> set[str]:
        out = set()
        for n in ast.walk(fn):
            if (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == "self"
                    and n.func.attr in self.methods):
                out.add(n.func.attr)
        return out

    def _reachable(self, roots: Iterable[str]) -> set[str]:
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(self._calls_of(self.methods[name]) - seen)
        return seen

    # -- attribute facts -------------------------------------------------

    def _value_kind(self, value: ast.expr) -> str | None:
        """``"set"``/``"dict"`` if the expression builds one, else None."""
        if isinstance(value, ast.Set) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        ):
            return "set"
        if isinstance(value, ast.Dict) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "defaultdict", "OrderedDict")
        ):
            return "dict"
        if isinstance(value, ast.IfExp):  # e.g. {...} if flag else set()
            kinds = {self._value_kind(value.body), self._value_kind(value.orelse)}
            kinds.discard(None)
            if len(kinds) == 1:
                return kinds.pop()
        return None

    def _collect_attr_facts(self) -> None:
        for name, fn in self.methods.items():
            in_init = name == "__init__"
            for n in ast.walk(fn):
                # self.X = <set/dict literal>  (typing facts)
                if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        n.targets if isinstance(n, ast.Assign) else [n.target]
                    )
                    value = n.value
                    for t in targets:
                        if (isinstance(t, ast.Attribute)
                                and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            if value is not None:
                                kind = self._value_kind(value)
                                if kind == "set":
                                    self.set_attrs.add(t.attr)
                                elif kind == "dict":
                                    self.dict_attrs.add(t.attr)
                            if not in_init:
                                self.mutated_attrs.add(t.attr)
                        # self.X[k] = v mutates X
                        elif (isinstance(t, ast.Subscript)
                                and isinstance(t.value, ast.Attribute)
                                and isinstance(t.value.value, ast.Name)
                                and t.value.value.id == "self"
                                and not in_init):
                            self.mutated_attrs.add(t.value.attr)
                if in_init:
                    continue
                # self.X.append(...) and friends
                if (isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr in _MUTATING_METHODS
                        and isinstance(n.func.value, ast.Attribute)
                        and isinstance(n.func.value.value, ast.Name)
                        and n.func.value.value.id == "self"):
                    self.mutated_attrs.add(n.func.value.attr)
                # del self.X[k]
                if isinstance(n, ast.Delete):
                    for t in n.targets:
                        if (isinstance(t, ast.Subscript)
                                and isinstance(t.value, ast.Attribute)
                                and isinstance(t.value.value, ast.Name)
                                and t.value.value.id == "self"):
                            self.mutated_attrs.add(t.value.attr)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class ProtocolChecker:
    """Applies rules R1–R5 to the Node subclasses of one module."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.tree = tree
        self.path = path
        self.findings: list[Finding] = []
        _annotate_parents(tree)
        self._random_aliases = self._module_random_imports()

    # -- entry point -----------------------------------------------------

    def run(self) -> list[Finding]:
        for cls in self._node_classes():
            facts = _ClassFacts(cls)
            self._current_facts = facts
            self._check_class_level_state(cls)           # R4
            for name, fn in facts.methods.items():
                obj = f"{cls.name}.{name}"
                ctx_names = self._ctx_params(fn)
                self._check_engine_internals(fn, obj)    # R1
                self._check_sends(fn, name, facts, ctx_names, obj)   # R2
                self._check_nondeterminism(fn, ctx_names, obj)       # R3
                self._check_double_completion(fn, name, facts,
                                              ctx_names, obj)        # R5
        return self.findings

    #: facts of the class currently being checked (set by :meth:`run`).
    _current_facts: _ClassFacts

    def _emit(self, rule: str, node: ast.AST, obj: str, message: str) -> None:
        self.findings.append(
            Finding(
                rule_id=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                obj=obj,
                message=message,
            )
        )

    # -- node-class discovery --------------------------------------------

    def _node_classes(self) -> list[ast.ClassDef]:
        classes = [
            n for n in ast.walk(self.tree) if isinstance(n, ast.ClassDef)
        ]
        node_names: set[str] = set()
        changed = True
        while changed:
            changed = False
            for cls in classes:
                if cls.name in node_names:
                    continue
                for base in cls.bases:
                    name = _base_name(base)
                    if name is None:
                        continue
                    if name == "Node" or name.endswith("Node") or (
                            name in node_names):
                        node_names.add(cls.name)
                        changed = True
                        break
        return [c for c in classes if c.name in node_names]

    @staticmethod
    def _ctx_params(fn: ast.FunctionDef) -> set[str]:
        """Parameters that carry the NodeContext (by name or annotation)."""
        out = set()
        args = fn.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if a.arg == "ctx":
                out.add(a.arg)
            elif a.annotation is not None:
                ann = _base_name(a.annotation)
                if ann == "NodeContext":
                    out.add(a.arg)
        return out

    def _module_random_imports(self) -> set[str]:
        """Names bound to the global ``random`` module or its functions."""
        aliases: set[str] = set()
        for n in ast.walk(self.tree):
            if isinstance(n, ast.Import):
                for alias in n.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
            elif isinstance(n, ast.ImportFrom) and n.module == "random":
                for alias in n.names:
                    if alias.name in _GLOBAL_RANDOM_FUNCS:
                        aliases.add(alias.asname or alias.name)
        return aliases

    # -- R1 ---------------------------------------------------------------

    def _check_engine_internals(self, fn: ast.FunctionDef, obj: str) -> None:
        for n in ast.walk(fn):
            if not isinstance(n, ast.Attribute):
                continue
            on_self = isinstance(n.value, ast.Name) and n.value.id == "self"
            if n.attr in _ENGINE_ONLY_ATTRS or (
                    not on_self and n.attr in _ENGINE_PRIVATE_ATTRS):
                self._emit(
                    "R1", n, obj,
                    f"access to private engine internal `{n.attr}`; use the "
                    f"NodeContext API (send/complete/schedule_wakeup) instead",
                )

    # -- R2 ---------------------------------------------------------------

    def _send_calls(self, fn: ast.FunctionDef, ctx_names: set[str]
                    ) -> list[ast.Call]:
        out = []
        for n in ast.walk(fn):
            if (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "send"
                    and isinstance(n.func.value, ast.Name)
                    and n.func.value.id in ctx_names):
                out.append(n)
        return out

    def _check_sends(self, fn: ast.FunctionDef, name: str,
                     facts: _ClassFacts, ctx_names: set[str],
                     obj: str) -> None:
        sends = self._send_calls(fn, ctx_names)
        if not sends:
            return
        if name not in facts.reachable_from_callbacks:
            for call in sends:
                self._emit(
                    "R2", call, obj,
                    f"ctx.send in `{name}`, which is not reachable from any "
                    f"engine callback (on_start/on_receive/on_wake); the "
                    f"engine only meters sends made inside callbacks",
                )
        for call in sends:
            if not call.args:
                continue
            dst = call.args[0]
            if (isinstance(dst, ast.Attribute)
                    and dst.attr == "node_id"
                    and isinstance(dst.value, ast.Name)
                    and dst.value.id in ctx_names | {"self"}):
                self._emit(
                    "R2", call, obj,
                    "ctx.send to the node's own id — a node is never its "
                    "own neighbor in the model's simple graphs",
                )

    # -- R3 ---------------------------------------------------------------

    def _unwrap_order_preserving(self, expr: ast.expr) -> ast.expr:
        while (isinstance(expr, ast.Call)
               and isinstance(expr.func, ast.Name)
               and expr.func.id in _ORDER_PRESERVING_WRAPPERS
               and expr.args):
            expr = expr.args[0]
        return expr

    def _local_kinds(self, fn: ast.FunctionDef
                     ) -> tuple[set[str], set[str]]:
        """Local names assigned a set/dict literal inside ``fn``."""
        set_locals: set[str] = set()
        dict_locals: set[str] = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Assign) and len(n.targets) == 1 and (
                    isinstance(n.targets[0], ast.Name)):
                name = n.targets[0].id
                if isinstance(n.value, ast.Set) or (
                        isinstance(n.value, ast.Call)
                        and isinstance(n.value.func, ast.Name)
                        and n.value.func.id in ("set", "frozenset")):
                    set_locals.add(name)
                elif isinstance(n.value, ast.Dict) or (
                        isinstance(n.value, ast.Call)
                        and isinstance(n.value.func, ast.Name)
                        and n.value.func.id == "dict"):
                    dict_locals.add(name)
                elif isinstance(n.value, ast.SetComp):
                    set_locals.add(name)
                elif isinstance(n.value, ast.DictComp):
                    dict_locals.add(name)
        return set_locals, dict_locals

    def _iter_kind(self, expr: ast.expr, facts: _ClassFacts,
                   set_locals: set[str], dict_locals: set[str]) -> str | None:
        """Is iterating ``expr`` an unordered set/dict traversal?"""
        expr = self._unwrap_order_preserving(expr)
        # direct literals / constructors
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return "set"
            if expr.func.id == "dict" and expr.args:
                return "dict"
        # dict views: <dictish>.keys()/.values()/.items()
        if (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("keys", "values", "items")):
            base = expr.func.value
            if self._is_dictish(base, facts, dict_locals):
                return "dict"
            return None
        if isinstance(expr, ast.Name):
            if expr.id in set_locals:
                return "set"
            if expr.id in dict_locals:
                return "dict"
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            if expr.attr in facts.set_attrs:
                return "set"
            if expr.attr in facts.dict_attrs:
                return "dict"
        return None

    @staticmethod
    def _is_dictish(base: ast.expr, facts: _ClassFacts,
                    dict_locals: set[str]) -> bool:
        if isinstance(base, ast.Name):
            return base.id in dict_locals
        return (isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and base.attr in facts.dict_attrs)

    def _comp_is_order_insensitive(self, comp: ast.expr) -> bool:
        """Is this genexp/comprehension the direct arg of any()/sum()/...?"""
        parent = _parent(comp)
        return (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE_CALLS)

    def _check_nondeterminism(self, fn: ast.FunctionDef,
                              ctx_names: set[str], obj: str) -> None:
        facts = self._current_facts
        set_locals, dict_locals = self._local_kinds(fn)
        for n in ast.walk(fn):
            iters: list[ast.expr] = []
            if isinstance(n, ast.For):
                iters.append(n.iter)
            elif isinstance(n, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                # any()/sum()/sorted()/... over a genexp can't leak order;
                # a SetComp's result is itself unordered (flagged at its
                # own use site instead).
                if not self._comp_is_order_insensitive(n):
                    iters.extend(g.iter for g in n.generators)
            for it in iters:
                kind = self._iter_kind(it, facts, set_locals, dict_locals)
                if kind is not None:
                    self._emit(
                        "R3", it, obj,
                        f"iteration over a {kind} — order is not part of the "
                        f"deterministic model; wrap the iterable in sorted()",
                    )
            if isinstance(n, ast.Call):
                self._check_random_or_clock_call(n, obj)

    def _check_random_or_clock_call(self, call: ast.Call, obj: str) -> None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._random_aliases:
            self._emit(
                "R3", call, obj,
                f"call to unseeded `random.{func.id}`; use a seeded "
                f"random.Random(seed) instance so runs are reproducible",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        base_name = _base_name(base) if isinstance(
            base, (ast.Name, ast.Attribute)) else None
        if base_name in self._random_aliases and (
                func.attr in _GLOBAL_RANDOM_FUNCS):
            self._emit(
                "R3", call, obj,
                f"call to unseeded `random.{func.attr}`; use a seeded "
                f"random.Random(seed) instance so runs are reproducible",
            )
        elif (base_name, func.attr) in _CLOCK_CALLS:
            self._emit(
                "R3", call, obj,
                f"wall-clock read `{base_name}.{func.attr}()`; protocol "
                f"logic must depend only on rounds (ctx.now)",
            )

    # -- R4 ---------------------------------------------------------------

    def _check_class_level_state(self, cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or "__slots__" in names:
                continue
            if self._is_mutable_value(value):
                self._emit(
                    "R4", stmt, cls.name,
                    f"mutable class-level attribute "
                    f"`{', '.join(names)}` is shared by every node "
                    f"instance; initialise it per-instance in __init__",
                )

    @staticmethod
    def _is_mutable_value(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_FACTORY_NAMES)

    # -- R5 ---------------------------------------------------------------

    def _tainted_names(self, fn: ast.FunctionDef) -> set[str]:
        """Names carrying values that flowed in through parameters.

        Seeded with every parameter except ``self``/``ctx`` (message
        payloads and caller-provided op ids arrive this way) and
        propagated through simple assignments.
        """
        args = fn.args
        tainted = {
            a.arg
            for a in list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
            if a.arg not in ("self",) and a.arg not in self._ctx_params(fn)
        }
        changed = True
        while changed:
            changed = False
            for n in ast.walk(fn):
                if isinstance(n, ast.Assign):
                    if _names_in(n.value) & tainted:
                        for t in n.targets:
                            for name in _assign_target_names(t):
                                if name not in tainted:
                                    tainted.add(name)
                                    changed = True
                elif isinstance(n, (ast.AnnAssign, ast.AugAssign)):
                    if n.value is not None and _names_in(n.value) & tainted:
                        for name in _assign_target_names(n.target):
                            if name not in tainted:
                                tainted.add(name)
                                changed = True
        return tainted

    def _guard_attrs(self, fn: ast.FunctionDef, call: ast.Call) -> set[str]:
        """``self`` attributes read in conditions dominating ``call``.

        Two guard shapes are recognised: enclosing ``if``/``while`` tests
        on the parent chain of the call, and earlier terminal branches
        (``if cond: return/raise/continue/break``) anywhere up the chain.
        """
        attrs: set[str] = set()
        node: ast.AST | None = call
        while node is not None and not isinstance(node, ast.FunctionDef):
            parent = _parent(node)
            if isinstance(parent, (ast.If, ast.While)):
                attrs |= _self_attrs_in(parent.test)
            if parent is not None:
                for field in ("body", "orelse", "finalbody"):
                    block = getattr(parent, field, None)
                    if isinstance(block, list) and node in block:
                        for prior in block[: block.index(node)]:
                            if isinstance(prior, ast.If) and (
                                    _is_terminal_branch(prior.body)):
                                attrs |= _self_attrs_in(prior.test)
            node = parent
        return attrs

    def _check_double_completion(self, fn: ast.FunctionDef, name: str,
                                 facts: _ClassFacts, ctx_names: set[str],
                                 obj: str) -> None:
        if name not in facts.reachable_from_receive:
            return
        tainted = self._tainted_names(fn)
        for n in ast.walk(fn):
            if not (isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "complete"
                    and isinstance(n.func.value, ast.Name)
                    and n.func.value.id in ctx_names):
                continue
            if not n.args:
                continue
            op = n.args[0]
            if _names_in(op) & tainted:
                continue  # op id derived from the message / caller — unique
            guards = self._guard_attrs(fn, n)
            if guards & facts.mutated_attrs:
                continue  # guarded by state that actually changes at runtime
            self._emit(
                "R5", n, obj,
                "ctx.complete reachable from on_receive with a fixed "
                "per-node op id and no guard on runtime-mutated state — a "
                "second delivery would complete the same operation twice",
            )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def check_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one Python source string; returns findings (possibly empty).

    Raises:
        SyntaxError: if the source does not parse.
    """
    tree = ast.parse(source, filename=path)
    return ProtocolChecker(tree, path).run()


def check_file(path: str | Path) -> list[Finding]:
    """Lint one file.

    Raises:
        SyntaxError: if the file does not parse — the engine could not
            import such a protocol either, so this is not swallowed.
    """
    p = Path(path)
    return check_source(p.read_text(encoding="utf-8"), str(p))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            candidates = []
        for c in candidates:
            r = c.resolve()
            if r not in seen:
                seen.add(r)
                yield c


def check_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    findings: list[Finding] = []
    for f in iter_python_files(paths):
        findings.extend(check_file(f))
    return findings
