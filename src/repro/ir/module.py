"""Buffers and IR functions."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir.ops import Block, PForOp
from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors.dtype import DType
from repro.tensors.tensor import LogicalTensor, TensorRef


class Buffer:
    """A tensor allocation in the IR.

    Dependence analysis creates a fresh buffer per task-argument copy
    (the copy-in/copy-out discipline); later passes remove most of them.
    Each buffer wraps a :class:`LogicalTensor` so the partitioning
    machinery can build references into it; the tensor is the buffer's
    identity, and its number is the one the printed IR shows.

    Attributes:
        tensor: the underlying logical tensor (identity + shape + dtype).
        memory: the mapped memory kind (possibly NONE — never
            materialized; the allocator rejects NONE buffers that survive
            to allocation with a physical access).
        is_argument: True for the kernel's own parameters.
        pipeline_depth: multi-buffering factor added by the pipelining
            transformation (the ``PIPE`` dimension of paper Figure 1b).
        smem_offset: byte offset assigned by the resource allocator.
        replication: ``(extent, proc)`` per flattened parallel loop the
            buffer was declared inside (one copy per processor), outermost
            first; written by vectorization.
        private_levels: names of the processor levels that each hold
            their own instance of this buffer (all its references sat in
            that level's flattened loop); written by vectorization.
    """

    replication: Tuple[Tuple[int, ProcessorKind], ...] = ()
    private_levels: FrozenSet[str] = frozenset()

    def __init__(
        self,
        tensor: LogicalTensor,
        memory: MemoryKind,
        is_argument: bool = False,
    ):
        self.tensor = tensor
        self.memory = memory
        self.is_argument = is_argument
        self.pipeline_depth = 1
        self.smem_offset: Optional[int] = None

    @property
    def name(self) -> str:
        return self.tensor.name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.tensor.shape

    @property
    def dtype(self) -> DType:
        return self.tensor.dtype

    def ref(self) -> TensorRef:
        return self.tensor.ref()

    def __repr__(self) -> str:
        dims = "x".join(map(str, self.shape))
        pipe = f" pipe={self.pipeline_depth}" if self.pipeline_depth > 1 else ""
        offset = "" if self.smem_offset is None else f" +{self.smem_offset}"
        return (
            f"buffer {self.name}#{self.tensor.uid} [{dims}:{self.dtype}] "
            f"@{self.memory.name.lower()}{pipe}{offset}"
        )


class IRFunction:
    """The IR for one compiled kernel.

    Attributes:
        name: kernel name.
        machine: target machine description.
        params: buffers for the kernel's tensor arguments (global memory).
        buffers: every buffer, keyed by the underlying tensor uid.
        body: the top-level block (usually a grid ``pfor`` over blocks).
    """

    def __init__(self, name: str, machine: MachineModel):
        self.name = name
        self.machine = machine
        self.params: List[Buffer] = []
        self.buffers: Dict[int, Buffer] = {}
        self.body = Block()
        self.metadata: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def add_param(
        self, name: str, shape: Sequence[int], dtype: DType
    ) -> Buffer:
        tensor = LogicalTensor(name, shape, dtype)
        buffer = Buffer(tensor, MemoryKind.GLOBAL, is_argument=True)
        self.params.append(buffer)
        return self.adopt_buffer(buffer)

    def add_buffer(
        self,
        name: str,
        shape: Sequence[int],
        dtype: DType,
        memory: MemoryKind,
    ) -> Buffer:
        tensor = LogicalTensor(name, shape, dtype)
        return self.adopt_buffer(Buffer(tensor, memory))

    def adopt_buffer(self, buffer: Buffer) -> Buffer:
        self.buffers[buffer.tensor.uid] = buffer
        return buffer

    def buffer_of(self, ref: TensorRef) -> Buffer:
        """The buffer a tensor reference points into."""
        uid = ref.root.uid
        if uid not in self.buffers:
            raise IRError(
                f"reference {ref!r} does not point into a declared buffer"
            )
        return self.buffers[uid]

    def walk(self):
        """All operations in the function, pre-order."""
        yield from self.body.walk()

    def grid_and_body(self) -> Tuple[int, Block]:
        """The launch grid and the per-thread-block body: the product of
        the nested ``pfor`` extents over BLOCK, and the block inside the
        innermost of them."""
        grid, block = 1, self.body
        while True:
            loops = [
                op
                for op in block.ops
                if isinstance(op, PForOp) and op.proc is ProcessorKind.BLOCK
            ]
            if not loops:
                return grid, block
            if len(loops) > 1:
                raise IRError(
                    "multiple grid-level parallel loops in one block; "
                    "fuse them in the logical description"
                )
            grid *= loops[0].extent
            block = loops[0].body

    def live_buffers(self) -> List[Buffer]:
        """Buffers actually referenced by some operation (or params)."""
        used = set()
        for op in self.walk():
            for ref in op.tensor_uses():
                used.add(ref.root.uid)
        out = []
        for buffer in self.buffers.values():
            if buffer.is_argument or buffer.tensor.uid in used:
                out.append(buffer)
        return out

    def buffers_in_memory(self, memory: MemoryKind) -> List[Buffer]:
        return [b for b in self.live_buffers() if b.memory is memory]

    def __getstate__(self):
        """Pickle without the functional interpreter's per-op plans:
        they are rebuilt on first use and would make a kernel's stored
        size depend on what it has run."""
        state = self.__dict__.copy()
        state.pop("_functional_plans", None)
        return state

    def __repr__(self) -> str:
        from repro.ir.printer import print_function

        return print_function(self)
