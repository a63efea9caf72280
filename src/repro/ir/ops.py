"""IR operations and blocks (paper Figure 7).

Operations are mutable — compiler passes rewrite preconditions, move
operations between blocks, and promote event types in place. Each
asynchronous operation owns its result :class:`Event`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.events import Event, EventType, EventUse
from repro.machine.processor import ProcessorKind
from repro.numbering import next_number
from repro.sym import Var
from repro.tensors.tensor import TensorRef


class Operation:
    """Base class for IR operations.

    ``proc`` records the processor level on which the operation executes
    (filled by dependence analysis). Annotations that later passes
    assign are declared on the classes with their defaults, so an
    operation no pass has touched carries (and pickles) nothing extra.
    """

    #: Warp role, ``"dma"`` or ``"compute"``; assigned by warp
    #: specialization, read by the lowering.
    role = "compute"

    #: The references this op reads and writes (shallow: a loop's body
    #: is not its own access). Every pass that asks who reads or writes
    #: a tensor asks the ops.
    reads: Tuple[TensorRef, ...] = ()
    writes: Tuple[TensorRef, ...] = ()

    def __init__(
        self,
        preconds: Optional[List[EventUse]] = None,
        proc: Optional[ProcessorKind] = None,
    ):
        self.uid = next_number("op")
        self.preconds: List[EventUse] = list(preconds or [])
        self.result: Optional[Event] = None
        self.proc = proc

    def define_event(self, type_: EventType = ()) -> Event:
        event = Event(type_)
        event.producer = self
        self.result = event
        return event

    # -- generic traversal helpers --------------------------------------
    def tensor_uses(self) -> List[TensorRef]:
        """Tensor references read or written by this op (shallow)."""
        return [*self.reads, *self.writes]

    def nested_blocks(self) -> List["Block"]:
        return []

    def map_refs(self, rewrite: Callable[[TensorRef], TensorRef]) -> None:
        """Replace every tensor reference the op holds by ``rewrite(ref)``
        (shallow, like :attr:`reads` and :attr:`writes`)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.ir.printer import format_op

        return format_op(self)


class AllocOp(Operation):
    """Declare a buffer (fresh tensor allocation) in scope.

    Not evented: allocation is a compile-time naming construct. The
    buffer's placement (memory kind) lives on the :class:`Buffer`.
    """

    def __init__(self, buffer: "Any"):
        super().__init__()
        self.buffer = buffer


class CopyOp(Operation):
    """``ev = copy(src, dst), preconds`` — an asynchronous data movement.

    The lowering decides the mechanism (TMA, cp.async, register moves)
    from the source and destination memories. Pipelining records the
    write-after-read back-edges of Figure 12 here: iteration ``k`` of
    this copy may start only once ``war_consumers`` (operations of the
    same loop body) finished iteration ``k - war_distance``.
    """

    war_distance = 0
    war_consumers: Sequence[Operation] = ()

    def __init__(
        self,
        src: TensorRef,
        dst: TensorRef,
        preconds: Optional[List[EventUse]] = None,
        proc: Optional[ProcessorKind] = None,
    ):
        super().__init__(preconds, proc)
        if src.shape != dst.shape:
            raise IRError(
                f"copy shape mismatch: src {src!r} has shape {src.shape}, "
                f"dst {dst!r} has shape {dst.shape}"
            )
        self.src = src
        self.dst = dst
        self.define_event()

    @property
    def reads(self) -> Tuple[TensorRef, ...]:
        return (self.src,)

    @property
    def writes(self) -> Tuple[TensorRef, ...]:
        return (self.dst,)

    def map_refs(self, rewrite: Callable[[TensorRef], TensorRef]) -> None:
        self.src, self.dst = rewrite(self.src), rewrite(self.dst)


class CallOp(Operation):
    """``ev = call(f, args), preconds`` — a leaf-task invocation."""

    def __init__(
        self,
        function: str,
        args: Tuple[Any, ...],
        reads: Tuple[TensorRef, ...],
        writes: Tuple[TensorRef, ...],
        cost_kind: str = "simt",
        proc: Optional[ProcessorKind] = None,
        preconds: Optional[List[EventUse]] = None,
    ):
        super().__init__(preconds, proc)
        self.function = function
        self.args = tuple(args)
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.cost_kind = cost_kind
        self.define_event()

    def tensor_uses(self) -> List[TensorRef]:
        return [a for a in self.args if isinstance(a, TensorRef)]

    def map_refs(self, rewrite: Callable[[TensorRef], TensorRef]) -> None:
        self.args = tuple(
            rewrite(a) if isinstance(a, TensorRef) else a for a in self.args
        )
        self.reads = tuple(map(rewrite, self.reads))
        self.writes = tuple(map(rewrite, self.writes))


class Block:
    """A sequence of operations ending with an optional yielded event."""

    def __init__(
        self,
        ops: Optional[List[Operation]] = None,
        yield_use: Optional[EventUse] = None,
    ):
        self.ops: List[Operation] = list(ops or [])
        self.yield_use = yield_use

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def walk(self) -> Iterator[Operation]:
        """All operations in this block and nested blocks, pre-order."""
        for op in self.ops:
            yield op
            for block in op.nested_blocks():
                yield from block.walk()

    def index_of(self, op: Operation) -> int:
        for i, candidate in enumerate(self.ops):
            if candidate is op:
                return i
        raise IRError(f"operation not in block: {op.uid}")

    def all_blocks(self) -> Iterator["Block"]:
        """This block and every block nested in it, pre-order."""
        yield self
        for op in self.ops:
            for block in op.nested_blocks():
                yield from block.all_blocks()


class ForOp(Operation):
    """A sequential loop; its event is the completion of all iterations.

    ``pipeline`` is the software-pipelining depth warp specialization
    gave the loop (1: iterations do not overlap).
    """

    pipeline = 1

    def __init__(
        self,
        index: Var,
        extent: int,
        body: Optional[Block] = None,
        preconds: Optional[List[EventUse]] = None,
    ):
        super().__init__(preconds)
        if extent < 1:
            raise IRError(f"for loop extent must be >= 1, got {extent}")
        self.index = index
        self.extent = extent
        self.body = body or Block()
        self.define_event()

    def nested_blocks(self) -> List[Block]:
        return [self.body]


class PForOp(Operation):
    """A parallel loop; its event is an array over the iterations.

    ``proc`` names the processor level the iterations are mapped onto
    (warpgroup, warp, thread for implicit loops; block for the grid).
    """

    def __init__(
        self,
        index: Var,
        extent: int,
        proc: ProcessorKind,
        body: Optional[Block] = None,
        preconds: Optional[List[EventUse]] = None,
    ):
        super().__init__(preconds)
        if extent < 1:
            raise IRError(f"pfor extent must be >= 1, got {extent}")
        self.index = index
        self.extent = extent
        self.proc = proc
        self.body = body or Block()
        from repro.ir.events import EventDim

        self.define_event((EventDim(extent, proc),))

    def nested_blocks(self) -> List[Block]:
        return [self.body]
