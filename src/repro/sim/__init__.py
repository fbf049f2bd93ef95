"""Synchronous message-passing network simulator.

This package implements the exact computation model of Busch & Tirthapura,
"Concurrent counting is harder than queuing" (Section 2.1):

* the distributed system is a connected undirected graph ``G = (V, E)``;
* every communication link is reliable, FIFO, and has a delay of exactly
  one time unit;
* in each synchronous round a processor may *send* at most ``send_capacity``
  messages and *receive* at most ``recv_capacity`` messages (both default
  to the paper's strict value of one), then perform local computation.

The restriction to one message sent/received per round is what rules out
trivial all-to-all protocols and is the source of all contention lower
bounds in the paper.  The simulator therefore enforces it exactly:
messages that cannot be received in a round wait, in FIFO order, on their
incoming link, and messages that cannot be sent wait in the sender's
outbox.  All arbitration is deterministic so that every run is exactly
reproducible.

The paper's "expanded time step" convention (end of Section 4, used so
that the arrow protocol can process up to ``deg`` simultaneous messages on
a constant-degree spanning tree) is modelled by setting the capacities to
the tree degree; this changes delays by at most a constant factor, which
is all the asymptotic statements need.
"""

from repro.sim.delays import (
    ConstantDelay,
    DelayModel,
    KindDelay,
    TargetedDelay,
    UniformDelay,
)
from repro.sim.errors import (
    SimulationError,
    CapacityError,
    RoundLimitExceeded,
    ProtocolViolation,
    StrictModeViolation,
)
from repro.sim.message import Message
from repro.sim.node import Node, NodeContext
from repro.sim.network import (
    SynchronousNetwork,
    RunStats,
    run_protocol,
)
from repro.sim.metrics import DelayRecorder, OperationRecord
from repro.sim.trace import EventTrace, TraceEvent

__all__ = [
    "ConstantDelay",
    "DelayModel",
    "UniformDelay",
    "TargetedDelay",
    "KindDelay",
    "SimulationError",
    "CapacityError",
    "RoundLimitExceeded",
    "ProtocolViolation",
    "StrictModeViolation",
    "Message",
    "Node",
    "NodeContext",
    "SynchronousNetwork",
    "RunStats",
    "run_protocol",
    "DelayRecorder",
    "OperationRecord",
    "EventTrace",
    "TraceEvent",
]
