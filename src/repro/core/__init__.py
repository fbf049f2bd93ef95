"""Problem definitions, request-set scenarios, verification, growth fits.

The paper's two problems (Section 2.2):

* **counting** — requesters receive the exact ranks ``1..|R|``;
* **queuing** — requesters receive their predecessor's identity, forming
  a single chain over R.

This package defines the result types all algorithm runners return, the
validators that every run is checked against, the adversarial request-set
generators, and the growth-exponent fit the experiments check the
paper's separations with.
"""

import importlib

from repro.core.problem import CountingResult, QueuingResult
from repro.core.verify import (
    VerificationError,
    verify_counting,
    verify_queuing,
    verify_total_order_consistency,
)

#: public name -> the submodule that defines it, for the names resolved
#: on first access (PEP 562): every runner imports ``repro.core.problem``,
#: and loading this package must not load the scenario generators, the
#: adversary search or the growth-exponent fit (and numpy) along with it.
_LAZY = {
    "RequestScenario": "repro.core.request",
    "all_nodes": "repro.core.request",
    "random_subset": "repro.core.request",
    "far_half": "repro.core.request",
    "alternating": "repro.core.request",
    "scenario_suite": "repro.core.request",
    "growth_exponent": "repro.core.comparison",
    "AdversarySearchResult": "repro.core.adversary",
    "adversarial_search": "repro.core.adversary",
}

__all__ = [
    "CountingResult",
    "QueuingResult",
    "RequestScenario",
    "all_nodes",
    "random_subset",
    "far_half",
    "alternating",
    "scenario_suite",
    "VerificationError",
    "verify_counting",
    "verify_queuing",
    "verify_total_order_consistency",
    "growth_exponent",
    "AdversarySearchResult",
    "adversarial_search",
]


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and cache the value here."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
