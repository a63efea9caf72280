"""Structural cloning of IR functions (pre-pass snapshots).

``compile_program`` keeps the dependence-analysis IR as an inspectable
artifact while the pass pipeline mutates the working copy in place.
``copy.deepcopy`` did that job by copying *everything* — including
immutable tensors, partition trees, symbolic expressions, and the
machine model — which made the snapshot a measurable slice of cold
compile time. :func:`clone_function` clones only the node kinds passes
actually mutate (operations, blocks, events, event uses, and buffers)
and shares everything immutable: ``TensorRef``/``LogicalTensor``
objects are never modified by passes (rewrites replace references
wholesale), so both copies can point at the same ones.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from repro.errors import IRError
from repro.ir.events import EventUse
from repro.ir.module import Buffer, IRFunction
from repro.ir.ops import (
    AllocOp,
    Block,
    CallOp,
    CopyOp,
    ForOp,
    Operation,
    PForOp,
)


def clone_function(fn: IRFunction) -> IRFunction:
    """An independent copy of ``fn`` sharing all immutable leaves.

    Buffers are shallow-copied (passes assign their fields, all of
    immutable values); every operation and block is rebuilt, with its
    annotations, so op-attribute rewrites and event-type promotions on
    one copy never show through to the other. Buffer
    identity maps through the wrapped tensor's uid, which both copies
    share, so ``buffer_of`` lookups keep working on either side.
    """
    out = IRFunction(fn.name, fn.machine)
    out.metadata = dict(fn.metadata)
    buffers: Dict[int, Buffer] = {}
    for uid, buffer in fn.buffers.items():
        buffers[uid] = copy.copy(buffer)
    out.buffers = buffers
    out.params = [buffers[b.tensor.uid] for b in fn.params]
    cloner = _OpCloner(buffers)
    out.body = cloner.clone_block(fn.body)
    # Write-after-read consumers follow their copy in program order, so
    # they are remapped once every operation has its clone.
    for cloned, consumers in cloner.pipelined:
        cloned.war_consumers = [cloner.ops[c.uid] for c in consumers]
    return out


class _OpCloner:
    """Clones blocks/ops in program order, remapping event identities.

    Preconditions and yields always reference events of operations that
    appear earlier in a pre-order walk (the IR is SSA), so a single
    forward sweep has every producer cloned before its uses.
    """

    def __init__(self, buffers: Dict[int, Buffer]):
        self.buffers = buffers
        self.events: Dict[int, object] = {}
        self.ops: Dict[int, Operation] = {}
        self.pipelined: List[Tuple[CopyOp, List[Operation]]] = []

    def clone_use(self, use: EventUse) -> EventUse:
        event = self.events.get(id(use.event), use.event)
        return EventUse(event, use.indices)

    def clone_block(self, block: Block) -> Block:
        out = Block()
        for op in block.ops:
            out.ops.append(self.clone_op(op))
        if block.yield_use is not None:
            out.yield_use = self.clone_use(block.yield_use)
        return out

    def clone_op(self, op: Operation) -> Operation:
        preconds = [self.clone_use(use) for use in op.preconds]
        if isinstance(op, AllocOp):
            buffer = self.buffers.get(op.buffer.tensor.uid, op.buffer)
            cloned: Operation = AllocOp(buffer)
            cloned.preconds = preconds
            cloned.proc = op.proc
        elif isinstance(op, CopyOp):
            cloned = CopyOp(op.src, op.dst, preconds, op.proc)
            if op.war_consumers:
                self.pipelined.append((cloned, op.war_consumers))
        elif isinstance(op, CallOp):
            cloned = CallOp(
                op.function,
                op.args,
                op.reads,
                op.writes,
                op.cost_kind,
                op.proc,
                preconds,
            )
        elif isinstance(op, PForOp):
            body = self.clone_block(op.body)
            cloned = PForOp(op.index, op.extent, op.proc, body, preconds)
        elif isinstance(op, ForOp):
            body = self.clone_block(op.body)
            cloned = ForOp(op.index, op.extent, body, preconds)
            cloned.proc = op.proc
        else:
            raise IRError(
                f"cannot snapshot unknown operation kind {type(op).__name__}"
            )
        # What the constructor did not set, a pass assigned (role,
        # pipeline depth, WAR distance): annotations carry over as they
        # are, and an operation no pass annotated stays bare.
        if len(vars(op)) > len(vars(cloned)):
            for name, value in vars(op).items():
                vars(cloned).setdefault(name, value)
        self.ops[op.uid] = cloned
        if op.result is not None:
            cloned.result.type = tuple(op.result.type)
            self.events[id(op.result)] = cloned.result
        return cloned
