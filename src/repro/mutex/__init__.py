"""Token-based distributed mutual exclusion on the arrow tree.

Raymond's tree-based mutual exclusion (TOCS 1989) is the origin of the
arrow protocol (the paper's reference [9]): queuing requests form a
distributed queue and a single token travels from each critical-section
holder to its successor.  The full loop — arrow queuing for the order,
successor notification at the predecessor's origin, token forwarding
along tree paths, and critical-section timing — is the arrow directory
of :mod:`repro.directory` run on the tree itself; every run checks the
mutual-exclusion safety property.
"""

from repro.mutex.raymond import run_token_mutex

__all__ = ["run_token_mutex"]
