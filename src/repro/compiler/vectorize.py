"""Vectorization (paper section 4.2.2, Figure 9).

Flattens the parallel loops that are implicit in the GPU programming
model — ``pfor`` loops over warpgroups, warps, and threads. The loop
index is substituted with the processor-index expression of that level,
events produced inside the loop are promoted with an extra dimension
annotated by the flattened level, and consumers are rewritten so that
point-wise dependencies index with the processor index while post-loop
synchronizations index with the broadcast operator.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import CompileError
from repro.ir.events import BROADCAST, Event, EventDim, EventUse
from repro.ir.module import IRFunction
from repro.ir.ops import AllocOp, Block, Operation, PForOp
from repro.machine.processor import is_intra_block
from repro.sym import ProcIndex, substitute
from repro.tensors.tensor import TensorRef


def vectorize(fn: IRFunction) -> IRFunction:
    """Flatten all intra-block parallel loops, innermost first."""
    _flatten_all(fn.body, fn)
    return fn


def _flatten_all(block: Block, fn: IRFunction) -> None:
    """One post-order sweep: flatten the nested blocks' loops, then this
    block's own intra-block ``pfor``s, first to last."""
    for op in block.ops:
        for nested in op.nested_blocks():
            _flatten_all(nested, fn)
    for op in list(block.ops):
        if isinstance(op, PForOp) and is_intra_block(op.proc):
            _flatten(block, op, fn)


def _flatten(block: Block, loop: PForOp, fn: IRFunction) -> None:
    proc = loop.proc
    extents = fn.metadata.setdefault("proc_extents", {})
    if extents.get(proc.value, loop.extent) != loop.extent:
        raise CompileError(
            f"inconsistent {proc.name} extents: {extents[proc.value]} vs "
            f"{loop.extent}; all parallel loops over one level must agree"
        )
    extents[proc.value] = loop.extent
    dim = EventDim(loop.extent, proc)
    index_sub = {loop.index.name: ProcIndex(proc.value)}
    body_ops = list(loop.body.ops)
    promoted: Dict[int, Event] = {}

    # Promote every event defined in the loop body (at any depth) and
    # substitute the induction variable throughout.
    for op in loop.body.walk():
        _substitute_op(op, index_sub)
        if op.result is not None:
            op.result.type = (dim,) + op.result.type
            promoted[id(op.result)] = op.result

    # Rewrite uses of promoted events.
    point_index = ProcIndex(proc.value)
    for op in loop.body.walk():
        op.preconds = [
            _adjust_use(use, promoted, point_index) for use in op.preconds
        ]
    for nested in loop.body.all_blocks():
        if nested.yield_use is not None:
            nested.yield_use = _adjust_use(
                nested.yield_use, promoted, point_index
            )

    # Loop-level preconditions apply to every former body operation.
    for op in body_ops:
        for use in loop.preconds:
            if use not in op.preconds:
                op.preconds.append(use)

    # Mark per-iteration buffers as replicated across this level. A
    # buffer whose references all live inside the flattened loop is
    # private to each iteration's processor: each thread's register
    # fragment is a distinct physical object even though the IR has a
    # single buffer for it. Buffers also referenced outside the loop
    # (like a shared-memory tile filled at block scope) stay shared.
    inside_ops = set()
    candidates = set()
    for op in loop.body.walk():
        inside_ops.add(id(op))
        if isinstance(op, AllocOp):
            op.buffer.replication = (
                (loop.extent, proc),
            ) + op.buffer.replication
        for ref in op.tensor_uses():
            buffer = fn.buffers.get(ref.root.uid)
            if buffer is None or buffer.is_argument:
                continue
            candidates.add(ref.root.uid)
    escaped = set()
    for op in fn.walk():
        if id(op) in inside_ops:
            continue
        for ref in op.tensor_uses():
            if ref.root.uid in candidates:
                escaped.add(ref.root.uid)
    for uid in candidates - escaped:
        fn.buffers[uid].private_levels |= {proc.value}

    # Splice the body into the parent block.
    position = block.index_of(loop)
    block.ops[position : position + 1] = body_ops

    # Redirect uses of the loop's own event to the promoted yield event.
    yield_use = loop.body.yield_use
    if yield_use is None:
        if loop.result is not None and _event_used(fn, loop.result):
            raise CompileError(
                f"pfor over {proc.name} yields nothing but its event is used"
            )
        return
    _redirect_loop_event(fn, loop, yield_use)


def _substitute_op(op: Operation, bindings: Dict[str, object]) -> None:
    def sub_ref(ref: TensorRef) -> TensorRef:
        path = tuple(
            (partition, tuple(substitute(e, bindings) for e in index))
            for partition, index in ref.path
        )
        return TensorRef(ref.root, path)

    op.map_refs(sub_ref)
    for use in op.preconds:
        use.indices = tuple(
            i if i is BROADCAST else substitute(i, bindings)
            for i in use.indices
        )


def _adjust_use(
    use: EventUse, promoted: Dict[int, Event], point_index
) -> EventUse:
    if id(use.event) in promoted:
        return EventUse(use.event, (point_index,) + use.indices)
    return use


def _redirect_loop_event(
    fn: IRFunction, loop: PForOp, yield_use: EventUse
) -> None:
    """Map external uses ``loop_event[i]`` onto the promoted yield event.

    The yield use already carries a leading point-wise index from
    promotion; an external use with index ``i`` re-binds that leading
    position to ``i`` (BROADCAST included), preserving the remaining
    yield indices.
    """
    target = yield_use.event
    trailing = yield_use.indices[1:]
    old = loop.result

    def rewrite(use: EventUse) -> EventUse:
        if use.event is not old:
            return use
        (leading,) = use.indices  # pfor events always have rank 1
        return EventUse(target, (leading,) + trailing)

    for op in fn.walk():
        op.preconds = [rewrite(use) for use in op.preconds]
    for nested in fn.body.all_blocks():
        if nested.yield_use is not None:
            nested.yield_use = rewrite(nested.yield_use)


def _event_used(fn: IRFunction, event: Event) -> bool:
    for op in fn.walk():
        if any(use.event is event for use in op.preconds):
            return True
    for nested in fn.body.all_blocks():
        if nested.yield_use is not None and nested.yield_use.event is event:
            return True
    return False
