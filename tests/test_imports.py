"""Import cost and import order: what importing each layer loads.

The simulator, protocols, faults, obs and resilience layers never call
numpy, so importing them must not load it (nor the experiment suite,
which does).  The ``repro`` namespace resolves its names on first use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.resilience

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Runs in a fresh interpreter; prints one JSON object.
_PROBE = """
import importlib, json, sys

light = ["repro", "repro.sim", "repro.counting", "repro.arrow", "repro.faults",
         "repro.obs", "repro.resilience", "repro.protocols", "repro.cli"]
for name in light:
    importlib.import_module(name)
loaded = [m for m in ("numpy", "repro.experiments") if m in sys.modules]

for mod in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
    del sys.modules[mod]
for name in ["repro.counting", "repro.arrow", "repro.faults"]:
    importlib.import_module(name)
core_loaded = [m for m in ("repro.core.comparison", "repro.core.adversary")
               if m in sys.modules]

first = {}
for name in ["repro.protocols", "repro.cli", "repro.resilience.chaos",
             "repro.experiments.suite"]:
    for mod in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[mod]
    try:
        importlib.import_module(name)
        first[name] = None
    except Exception as exc:
        first[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"loaded": loaded, "core_loaded": core_loaded, "first": first}))
"""


@pytest.fixture(scope="module")
def fresh() -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestFreshInterpreter:
    def test_simulator_stack_loads_no_numpy_or_suite(self, fresh):
        assert fresh["loaded"] == []

    def test_runners_leave_the_comparison_harness_unloaded(self, fresh):
        assert fresh["core_loaded"] == []

    @pytest.mark.parametrize(
        "module",
        ["repro.protocols", "repro.cli", "repro.resilience.chaos", "repro.experiments.suite"],
    )
    def test_imports_first(self, fresh, module):
        assert fresh["first"][module] is None


class TestLazyNamespace:
    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_names_are_the_defining_modules_objects(self):
        from repro.arrow import run_arrow
        from repro.resilience.chaos import chaos_search

        assert repro.run_arrow is run_arrow
        assert repro.chaos_search is chaos_search

    def test_dir_lists_public_names(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            repro.no_such_name

    def test_core_names_resolve(self):
        import repro.core
        from repro.core.comparison import growth_exponent

        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None, name
        assert repro.core.growth_exponent is growth_exponent
        assert set(repro.core.__all__) <= set(dir(repro.core))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            repro.core.no_such_name

    def test_resilience_chaos_names_resolve(self):
        for name in repro.resilience.__all__:
            assert getattr(repro.resilience, name) is not None, name
        assert set(repro.resilience.__all__) <= set(dir(repro.resilience))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            repro.resilience.no_such_name
