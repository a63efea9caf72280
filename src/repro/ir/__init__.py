"""Cypress's event-based intermediate representation (paper Figure 7).

Every potentially asynchronous operation (a copy or a leaf-task call)
produces an *event*; operations list precondition events that must
complete before they start, so the IR encodes a dependence graph.
Parallel loops produce *event arrays* with processor-annotated
dimensions; indexing an event array with the broadcast operator ``[:]``
denotes all events along that dimension completing (synchronization of
the indexed processors). Events are compile-time constructs only — code
generation lowers them onto barriers and instruction ordering, and no
dynamic dependence tracking survives into generated code.
"""

from repro.ir.events import BROADCAST, Event, EventDim, EventType, EventUse
from repro.ir.ops import (
    AllocOp,
    Block,
    CallOp,
    CopyOp,
    ForOp,
    Operation,
    PForOp,
)
from repro.ir.clone import clone_function
from repro.ir.module import Buffer, IRFunction
from repro.ir.printer import print_function
from repro.ir.verifier import verify_function

__all__ = [
    "BROADCAST",
    "Event",
    "EventDim",
    "EventType",
    "EventUse",
    "Operation",
    "AllocOp",
    "CopyOp",
    "CallOp",
    "ForOp",
    "PForOp",
    "Block",
    "Buffer",
    "IRFunction",
    "clone_function",
    "print_function",
    "verify_function",
]
