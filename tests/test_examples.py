"""Every script under ``examples/`` runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (ROOT / "examples").glob("*.py"))
)
def test_example_runs(script):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
