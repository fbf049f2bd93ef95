"""Every public name in ``src/repro`` is used by other code in ``src``.

A public top-level function or class earns its place in ``src`` when a
runner, an experiment, the CLI or a helper they call uses it.  A name
only tests call belongs in ``tests/`` as a reference implementation; a
name nothing calls is deleted.  A use counts when it is in another
top-level statement of a module that is not a package ``__init__``, so a
re-export does not count.  The few names kept for examples, docs and
``perfbench/`` are listed below, each with its user.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

#: Public names no ``src`` module uses, each kept for the user named.
KEPT_FOR = {
    "repro.adding.central.run_central_addition": "perfbench/spans.py times it",
    "repro.analysis.profiles.delay_histogram": "examples/latency_profile.py",
    "repro.core.adversary.adversarial_search": "examples/adversarial_search.py",
    "repro.core.request.exhaustive_request_sets": "examples/adversarial_search.py",
    "repro.core.request.request_sets_of_size": "README.md lists it",
    "repro.faults.runners.run_flood_counting_ft": "perfbench/worker.py's flood_ft runner",
    "repro.lint.sanitizer.check_determinism_subprocess": "docs/LINT.md documents it",
    "repro.resilience.invariants.TokenInvariant": "docs/RESILIENCE.md: the token mutex's monitor",
    "repro.sim.delays.KindDelay": "examples/async_adversary.py",
    "repro.sim.delays.TargetedDelay": "examples/async_adversary.py",
    "repro.topology.graphs.binary_tree_graph": "perfbench/spans.py times it",
    "repro.topology.graphs.random_regular_graph": "perfbench/spans.py times it",
    "repro.topology.graphs.torus_graph": "perfbench/spans.py times it",
    "repro.topology.properties.all_pairs_distances": "README.md lists it",
}


def _top_level_uses(tree: ast.Module):
    """``(statement, names it uses)`` for each top-level statement."""
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        yield stmt, names


def _unreached() -> list[str]:
    """Public top-level defs and classes no other src statement uses."""
    root = Path(repro.__file__).parent
    defined: dict[str, ast.stmt] = {}
    used: list[tuple[ast.stmt, set[str]]] = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt, names in _top_level_uses(tree):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[f"{module}.{stmt.name}"] = stmt
            if path.name != "__init__.py":
                used.append((stmt, names))
    return sorted(
        qualname for qualname, stmt in defined.items()
        if not any(stmt.name in names for other, names in used if other is not stmt)
    )


def test_every_public_name_is_reached_or_kept_for_a_named_user():
    unreached = _unreached()
    unlisted = [name for name in unreached if name not in KEPT_FOR]
    assert unlisted == [], "used by no src module: " + ", ".join(unlisted)
    stale = sorted(set(KEPT_FOR) - set(unreached))
    assert stale == [], "reached from src, or gone: " + ", ".join(stale)
