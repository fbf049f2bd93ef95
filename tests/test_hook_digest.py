"""Smoke test of ``scripts/hook_digest.py`` on two of its cells."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "hook_digest.py"

CELLS = [("central", "star", "none"), ("flood", "ring", "lossy")]


@pytest.fixture(scope="module")
def hook_digest():
    spec = importlib.util.spec_from_file_location("hook_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cells_are_in_the_matrix(hook_digest):
    cells = list(hook_digest.cells())
    assert set(CELLS) <= set(cells)
    assert len(cells) == len(set(cells))


@pytest.mark.parametrize("cell", CELLS, ids="/".join)
def test_line_is_stable_and_well_formed(hook_digest, cell):
    line = hook_digest.line(cell)
    assert re.fullmatch(
        "/".join(cell) + r"( (stats|completions|trace|metrics)=[0-9a-f]{64}){4}", line
    ), line
    assert hook_digest.line(cell) == line


def test_hooks_leave_the_stats_digest_of_a_bare_run(hook_digest):
    """Every hook is pure observation: the hooked cell's stats digest is
    that of the same run with nothing attached."""
    from repro.protocols import PROTOCOLS
    from repro.topology import star_graph

    n = hook_digest.N
    bare = PROTOCOLS["central"].run(star_graph(n), range(n))
    stats = json.dumps(dataclasses.asdict(bare.stats), sort_keys=True)
    digests = hook_digest.digest("central", "star", "none")
    assert digests["stats"] == hashlib.sha256(stats.encode()).hexdigest()
