"""Vectorization (paper section 4.2.2, Figure 9).

Flattens the parallel loops that are implicit in the GPU programming
model — ``pfor`` loops over warpgroups, warps, and threads. The loop
index is substituted with the processor-index expression of that level,
events produced inside the loop are promoted with an extra dimension
annotated by the flattened level, and consumers are rewritten so that
point-wise dependencies index with the processor index while post-loop
synchronizations index with the broadcast operator.

Flattening a loop walks only that loop's body. Who references a tensor,
who waits on an event and which blocks yield it are read from one use
index (:class:`_Uses`) built per ``vectorize`` call.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List, Set

from repro.errors import CompileError
from repro.ir.events import BROADCAST, Event, EventDim, EventUse
from repro.ir.module import IRFunction
from repro.ir.ops import AllocOp, Block, Operation, PForOp
from repro.machine.processor import is_intra_block
from repro.sym import ProcIndex, substitute
from repro.tensors.tensor import TensorRef


def vectorize(fn: IRFunction) -> IRFunction:
    """Flatten all intra-block parallel loops, innermost first."""
    _flatten_all(fn.body, fn, _Uses(fn))
    return fn


class _Uses:
    """Who uses what in ``fn``, built from one walk per ``vectorize``
    call and kept current by the flattening, so no ``pfor`` walks the
    function again.

    Attributes:
        refs: tensor uid -> ops with a tensor use rooted there. Flattening
            substitutes indices but keeps every root, and the only op it
            drops, the ``pfor``, references no tensor, so this never
            changes.
        waiters: event -> ops with a precondition on it.
        yielders: event -> blocks whose yield names it.
    """

    def __init__(self, fn: IRFunction):
        self.refs: DefaultDict[int, List[Operation]] = defaultdict(list)
        self.waiters: DefaultDict[Event, Set[Operation]] = defaultdict(set)
        self.yielders: DefaultDict[Event, List[Block]] = defaultdict(list)
        self._yields(fn.body)
        for op in fn.walk():
            for ref in op.tensor_uses():
                self.refs[ref.root.uid].append(op)
            for use in op.preconds:
                self.waiters[use.event].add(op)
            for nested in op.nested_blocks():
                self._yields(nested)

    def _yields(self, block: Block) -> None:
        if block.yield_use is not None:
            self.yielders[block.yield_use.event].append(block)


def _flatten_all(block: Block, fn: IRFunction, uses: _Uses) -> None:
    """One post-order sweep: flatten the nested blocks' loops, then this
    block's own intra-block ``pfor``s, first to last."""
    for op in block.ops:
        for nested in op.nested_blocks():
            _flatten_all(nested, fn, uses)
    for op in list(block.ops):
        if isinstance(op, PForOp) and is_intra_block(op.proc):
            _flatten(block, op, fn, uses)


def _flatten(block: Block, loop: PForOp, fn: IRFunction, uses: _Uses) -> None:
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
    inside = list(loop.body.walk())
    promoted: Set[Event] = set()

    # Promote every event defined in the loop body (at any depth) and
    # substitute the induction variable throughout.
    for op in inside:
        _substitute_op(op, index_sub)
        if op.result is not None:
            op.result.type = (dim,) + op.result.type
            promoted.add(op.result)

    # Rewrite uses of promoted events.
    point_index = ProcIndex(proc.value)
    for op in inside:
        op.preconds = [
            _adjust_use(use, promoted, point_index) for use in op.preconds
        ]
    for nested in loop.body.all_blocks():
        if nested.yield_use is not None:
            nested.yield_use = _adjust_use(
                nested.yield_use, promoted, point_index
            )

    # Loop-level preconditions apply to every former body operation.
    for use in loop.preconds:
        uses.waiters[use.event].discard(loop)
    for op in body_ops:
        for use in loop.preconds:
            if use not in op.preconds:
                op.preconds.append(use)
                uses.waiters[use.event].add(op)

    # Mark per-iteration buffers as replicated across this level. A
    # buffer whose references all live inside the flattened loop is
    # private to each iteration's processor: each thread's register
    # fragment is a distinct physical object even though the IR has a
    # single buffer for it. Buffers also referenced outside the loop
    # (like a shared-memory tile filled at block scope) stay shared.
    candidates = set()
    for op in inside:
        if isinstance(op, AllocOp):
            op.buffer.replication = (
                (loop.extent, proc),
            ) + op.buffer.replication
        for ref in op.tensor_uses():
            buffer = fn.buffers.get(ref.root.uid)
            if buffer is None or buffer.is_argument:
                continue
            candidates.add(ref.root.uid)
    inside_ops = set(inside)
    for uid in candidates:
        if all(op in inside_ops for op in uses.refs[uid]):
            fn.buffers[uid].private_levels |= {proc.value}

    # Splice the body into the parent block.
    position = block.index_of(loop)
    block.ops[position : position + 1] = body_ops

    # Redirect uses of the loop's own event to the promoted yield event.
    yield_use = loop.body.yield_use
    if yield_use is None:
        if loop.result is not None and (
            uses.waiters.get(loop.result) or uses.yielders.get(loop.result)
        ):
            raise CompileError(
                f"pfor over {proc.name} yields nothing but its event is used"
            )
        return
    _redirect_loop_event(uses, loop, yield_use)


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


def _adjust_use(use: EventUse, promoted: Set[Event], point_index) -> EventUse:
    if use.event in promoted:
        return EventUse(use.event, (point_index,) + use.indices)
    return use


def _redirect_loop_event(
    uses: _Uses, loop: PForOp, yield_use: EventUse
) -> None:
    """Map external uses ``loop_event[i]`` onto the promoted yield event.

    The yield use already carries a leading point-wise index from
    promotion; an external use with index ``i`` re-binds that leading
    position to ``i`` (BROADCAST included), preserving the remaining
    yield indices. Only the loop event's waiters and yielders change.
    """
    target = yield_use.event
    trailing = yield_use.indices[1:]
    old = loop.result

    def rewrite(use: EventUse) -> EventUse:
        if use.event is not old:
            return use
        (leading,) = use.indices  # pfor events always have rank 1
        return EventUse(target, (leading,) + trailing)

    waiting = uses.waiters.pop(old, set())
    for op in waiting:
        op.preconds = [rewrite(use) for use in op.preconds]
    uses.waiters[target].update(waiting)
    yielding = uses.yielders.pop(old, [])
    for nested in yielding:
        nested.yield_use = rewrite(nested.yield_use)
    uses.yielders[target].extend(yielding)
