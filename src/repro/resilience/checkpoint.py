"""Checkpoint/restore for the synchronous engine.

A :class:`Checkpoint` captures the *complete* state of a run at a round
boundary — engine queues and clocks, every protocol node, the fault
injector's RNG streams, the trace and metrics objects — as one deep
copy.  Because the engine is deterministic, a restored network resumed
with :meth:`SynchronousNetwork.resume` finishes byte-identically to the
original: same trace events, same stats, same completion order.  That is
what makes "replay deterministically from the last checkpoint before the
violation" a one-liner in the chaos workflow.

:class:`PeriodicCheckpointer` takes checkpoints on a round cadence from
inside a :class:`~repro.resilience.MonitorSet` (it runs *before* the
invariant checks, so when a check raises, the newest stored checkpoint
is from before the violation).

Disk artifacts use :mod:`pickle`: every in-repo protocol node is a
module-level class and pickles cleanly; ad-hoc nodes defined inside test
functions can be checkpointed in memory but not saved.
"""

from __future__ import annotations

import copy
import pickle
from typing import Any, BinaryIO


class Checkpoint:
    """One frozen mid-run snapshot of a network.

    Build with :meth:`capture`; get a runnable copy back with
    :meth:`restore`.  The snapshot itself is never mutated, so one
    checkpoint can be restored (and resumed) any number of times — each
    restore yields an independent network.

    Attributes:
        round: the model-clock round at capture time.
        rounds_executed: engine rounds actually run up to capture.
    """

    __slots__ = ("round", "rounds_executed", "_net")

    def __init__(self, round_: int, rounds_executed: int, net: Any) -> None:
        self.round = round_
        self.rounds_executed = rounds_executed
        self._net = net

    @classmethod
    def capture(cls, net: Any) -> "Checkpoint":
        """Snapshot ``net`` at the current round boundary.

        The deep copy spans the full object graph — nodes, contexts,
        queues, injector RNGs, trace, monitors — with shared references
        (e.g. a node's back-pointer into the engine) preserved as shared
        references inside the copy.  An immutable
        :class:`~repro.topology.Graph` a node refers to is shared, not
        copied, and its cached routing tables are never pickled.
        """
        return cls(net.now, net.rounds_executed, copy.deepcopy(net))

    def restore(self) -> Any:
        """A fresh, runnable network equal to the captured state.

        Returns a *copy* of the stored snapshot, so restoring is
        repeatable; continue it with ``restored.resume(max_rounds)``.
        """
        return copy.deepcopy(self._net)

    # ----------------------------------------------------------- artifacts

    def save(self, path_or_file: str | BinaryIO) -> None:
        """Pickle this checkpoint to ``path_or_file``."""
        if hasattr(path_or_file, "write"):
            pickle.dump(self, path_or_file)
        else:
            with open(path_or_file, "wb") as fh:
                pickle.dump(self, fh)

    @classmethod
    def load(cls, path_or_file: str | BinaryIO) -> "Checkpoint":
        """Load a checkpoint pickled by :meth:`save`."""
        if hasattr(path_or_file, "read"):
            obj = pickle.load(path_or_file)
        else:
            with open(path_or_file, "rb") as fh:
                obj = pickle.load(fh)
        if not isinstance(obj, cls):
            raise TypeError(f"not a checkpoint artifact: {type(obj).__name__}")
        return obj


class PeriodicCheckpointer:
    """Takes a checkpoint every ``every`` model rounds, keeping the last few.

    Attach through ``MonitorSet(checkpointer=...)``.  Within the monitor
    hook order the checkpointer runs first, so the newest retained
    checkpoint always predates any violation raised in the same round.

    Args:
        every: model-round cadence between checkpoints (round 0 is always
            captured).
        keep: retained checkpoints; older ones are discarded FIFO.
    """

    def __init__(self, every: int = 100, keep: int = 3) -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        if keep < 1:
            raise ValueError(f"must keep >= 1 checkpoints, got {keep}")
        self.every = every
        self.keep = keep
        self.checkpoints: list[Checkpoint] = []
        self._next = 0

    def on_round(self, net: Any) -> None:
        if net.now < self._next:
            return
        self.checkpoints.append(Checkpoint.capture(net))
        if len(self.checkpoints) > self.keep:
            del self.checkpoints[0]
        # Idle jumps can skip far past the cadence; schedule from now.
        self._next = net.now + self.every

    def latest(self) -> Checkpoint | None:
        """The newest retained checkpoint, or ``None``."""
        return self.checkpoints[-1] if self.checkpoints else None

    def before(self, round_: int) -> Checkpoint | None:
        """The newest retained checkpoint strictly before ``round_``."""
        for cp in reversed(self.checkpoints):
            if cp.round < round_:
                return cp
        return None

    def __deepcopy__(self, memo: dict) -> "PeriodicCheckpointer":
        # A checkpoint deep-copies the network, and the network holds the
        # monitors holding this checkpointer: without this hook every
        # snapshot would recursively re-copy all previous snapshots.  The
        # copy that lives *inside* a checkpoint starts with no history.
        clone = PeriodicCheckpointer(self.every, self.keep)
        clone._next = self._next
        memo[id(self)] = clone
        return clone


__all__ = ["Checkpoint", "PeriodicCheckpointer"]
