"""IR verifier.

Checks the SSA discipline the paper relies on (section 4.1): every event
use refers to an event defined by an operation that precedes the use in
a valid ordering, event indexing matches the event's type, loop indices
are in scope, and tensor references point into declared buffers. Run
after every pass in debug mode; the pass pipeline calls it between
stages.
"""

from __future__ import annotations

from typing import Set

from repro.errors import VerificationError
from repro.ir.events import BROADCAST, EventUse
from repro.ir.module import IRFunction
from repro.ir.ops import AllocOp, Block, CallOp, CopyOp, ForOp, Operation, PForOp
from repro.machine.processor import ProcessorKind
from repro.sym import Const, variables

#: Processor-index variables (``warp_id()`` ...) are in scope everywhere.
_PROC_NAMES = frozenset(kind.value for kind in ProcessorKind)


def verify_function(fn: IRFunction) -> None:
    """Raise :class:`VerificationError` if ``fn`` is malformed."""
    _VerifyState(fn).verify()


class _VerifyState:
    def __init__(self, fn: IRFunction):
        self.fn = fn
        self.defined_events: Set[int] = set()
        self.scope_vars: Set[str] = set()

    def verify(self) -> None:
        self._verify_block(self.fn.body, loop_carried=())

    # ------------------------------------------------------------------
    def _verify_block(self, block: Block, loop_carried: tuple) -> None:
        for op in block.ops:
            self._verify_op(op)
        if block.yield_use is not None:
            self._check_use(block.yield_use, "yield")

    def _verify_op(self, op: Operation) -> None:
        for use in op.preconds:
            self._check_use(use, f"op {op.uid}")
        for ref in op.tensor_uses():
            self._check_ref(ref, op)
        if isinstance(op, (ForOp, PForOp)):
            self.scope_vars.add(op.index.name)
            self._verify_block(op.body, loop_carried=(op,))
            self.scope_vars.discard(op.index.name)
            if isinstance(op, PForOp):
                self._check_pfor_event(op)
        elif not isinstance(op, (AllocOp, CopyOp, CallOp)):
            raise VerificationError(
                f"unknown operation type {type(op).__name__}"
            )
        if op.result is not None:
            self.defined_events.add(id(op.result))

    def _check_pfor_event(self, op: PForOp) -> None:
        event = op.result
        if event is None or not event.type:
            raise VerificationError(
                f"pfor {op.index.name} must produce an event array"
            )
        if event.type[0].extent != op.extent:
            raise VerificationError(
                f"pfor {op.index.name} extent {op.extent} does not match "
                f"event type {event.type}"
            )

    def _check_use(self, use: EventUse, where: str) -> None:
        event = use.event
        if event.producer is None:
            raise VerificationError(
                f"{where}: event {event.name} has no producer"
            )
        if id(event) not in self.defined_events:
            # Loop-internal back-references (the same iteration) are
            # allowed only for events defined earlier in the same body;
            # walking is in order, so anything unseen is a forward or
            # out-of-scope reference.
            raise VerificationError(
                f"{where}: event {event.name} used before it is defined"
            )
        if len(use.indices) != event.rank:
            raise VerificationError(
                f"{where}: event {event.name} rank {event.rank} indexed "
                f"with {len(use.indices)} indices"
            )
        for index, dim in zip(use.indices, event.type):
            if index is BROADCAST:
                continue
            if isinstance(index, Const):
                if not 0 <= index.value < dim.extent:
                    raise VerificationError(
                        f"{where}: constant index {index.value} out of "
                        f"bounds for event dim {dim}"
                    )
            else:
                free = variables(index)
                unknown = free - self.scope_vars - _PROC_NAMES
                if unknown:
                    raise VerificationError(
                        f"{where}: event index {index!r} uses out-of-scope "
                        f"variables {sorted(unknown)}"
                    )

    def _check_ref(self, ref, op: Operation) -> None:
        buffer = self.fn.buffers.get(ref.root.uid)
        if buffer is None or buffer.tensor is not ref.root:
            raise VerificationError(
                f"op {op.uid}: tensor reference {ref!r} does not point "
                "into a declared buffer"
            )
        free = ref.free_variables()
        unknown = free - self.scope_vars - _PROC_NAMES
        if unknown:
            raise VerificationError(
                f"op {op.uid}: reference {ref!r} uses out-of-scope "
                f"variables {sorted(unknown)}"
            )

