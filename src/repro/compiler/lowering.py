"""The one lowering of the final IR (paper section 4.2.6).

The paper's product is CUDA in which the event graph *is* the barriers
and the mapping *is* the TMA/``wgmma`` choice. Here that product has two
renderings — the :class:`~repro.gpusim.kernel.KernelSchedule` the
simulator times (:func:`schedule_of`, below) and the CUDA-like text
(:mod:`repro.compiler.codegen_cuda`) — and both are printed from the
:class:`LoweredKernel` built here, so neither can say something the
other did not. Everything either printer needs is decided once, in this
walk of the block body:

* each remaining operation is classified onto the hardware unit that
  executes it — TMA (or ``cp.async`` without it) for global<->shared
  copies, Tensor Core for wgmma calls, SIMT/SFU pipelines for
  arithmetic, shared-memory bandwidth for register staging. Copies into
  or out of never-materialized (NONE) buffers move register fragments;
* each precondition is resolved to the lowered operation that produces
  it (``Event.producer``): a dependence on a loop's completion becomes
  one on the loop's yielded operation, and a loop's own preconditions
  are spread over every operation in it;
* the warp role, pipeline depth and write-after-read back-edges are
  read off the IR, where ``warp-specialize`` declared them.

The lowered form is transient: it lives in ``PassContext.artifacts``
between the two backend passes and is not kept on the compiled kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CompileError
from repro.frontend.task import TaskRegistry
from repro.gpusim.kernel import Instr, KernelSchedule, Segment, threads_per_cta
from repro.ir.events import EventUse
from repro.ir.module import Buffer, IRFunction
from repro.ir.ops import AllocOp, Block, CallOp, CopyOp, ForOp, Operation, PForOp
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind

_PROC_LEVELS = ("warpgroup", "warp", "thread")

#: How widely a dependence synchronizes when both ends run in one role:
#: a point-wise use only orders instructions, a broadcast over threads
#: is a ``__syncwarp``, any wider broadcast a named barrier.
POINTWISE, WARP, BLOCK = range(3)


@dataclass
class Dep:
    """One resolved dependence: the producer and the widest broadcast
    among the uses that named it."""

    producer: "LoweredOp"
    sync: int = POINTWISE


@dataclass(eq=False)
class LoweredOp:
    """One instruction: the IR operation (its operands are the text's),
    the unit that runs it, its cost, and what it waits for.
    ``war_consumers`` finished iteration ``k - war_distance`` before
    iteration ``k`` of this copy may overwrite its slot, one of
    ``slots`` (the destination's multi-buffering depth)."""

    op: Operation
    kind: str
    label: str
    bytes_moved: int = 0
    flops: float = 0.0
    sfu_ops: float = 0.0
    slots: int = 1
    deps: List[Dep] = field(default_factory=list)
    war_distance: int = 0
    war_consumers: List["LoweredOp"] = field(default_factory=list)


@dataclass(eq=False)
class LoweredSegment:
    """A straight-line span (``index`` is None) or a main loop."""

    ops: List[LoweredOp]
    extent: int = 1
    pipeline: int = 1
    index: Optional[str] = None


@dataclass
class LoweredKernel:
    """A kernel as both backends print it."""

    name: str
    machine: str
    use_tma: bool
    params: List[Buffer]
    grid: int
    n_warpgroups: int
    warpspecialized: bool
    threads_per_cta: int
    smem: List[Buffer]
    smem_bytes: int
    regs_per_thread: int
    segments: List[LoweredSegment]


def lower(
    fn: IRFunction, registry: TaskRegistry, use_tma: Optional[bool] = None
) -> LoweredKernel:
    """Lower the final IR; ``use_tma=None`` defers to the machine."""
    if use_tma is None:
        use_tma = "tma_issue_cycles" in fn.machine.specs
    grid, body = fn.grid_and_body()
    extents = dict(
        {"warp": 4, "thread": 32, "warpgroup": 1},
        **fn.metadata.get("proc_extents", {}),
    )
    warpspec = fn.metadata.get("warpspec")
    warpspecialized = bool(warpspec is not None and warpspec.enabled)
    allocation = fn.metadata.get("allocation")
    return LoweredKernel(
        name=fn.name,
        machine=fn.machine.name,
        use_tma=use_tma,
        params=fn.params,
        grid=grid,
        n_warpgroups=extents["warpgroup"],
        warpspecialized=warpspecialized,
        threads_per_cta=threads_per_cta(extents["warpgroup"], warpspecialized),
        smem=fn.buffers_in_memory(MemoryKind.SHARED),
        smem_bytes=allocation.total_bytes if allocation else 0,
        regs_per_thread=allocation.registers_per_thread if allocation else 64,
        segments=_Lowering(fn, registry, extents, use_tma).lower_body(body),
    )


@dataclass
class _Lowering:
    fn: IRFunction
    registry: TaskRegistry
    extents: Dict[str, int]
    use_tma: bool
    #: Lowered operations by IR uid; producers precede their uses.
    lowered: Dict[int, LoweredOp] = field(default_factory=dict)

    def lower_body(self, body: Block) -> List[LoweredSegment]:
        segments: List[LoweredSegment] = []
        for op in body.ops:
            if isinstance(op, AllocOp):
                continue
            if isinstance(op, ForOp):
                segments.append(self._lower_loop(op))
            elif segments and segments[-1].index is None:
                segments[-1].ops.append(self._lower_op(op))
            else:
                segments.append(LoweredSegment([self._lower_op(op)]))
        return segments

    def _lower_loop(self, loop: ForOp) -> LoweredSegment:
        ops = [
            self._lower_op(op)
            for op in loop.body.ops
            if not isinstance(op, AllocOp)
        ]
        # Loop-entry dependencies apply to every instruction; they
        # resolve once (their producers live in earlier segments).
        entry = self._resolve(loop.preconds)
        for lowered in ops:
            for dep in entry:
                _add_dep(lowered.deps, dep.producer, dep.sync)
            if isinstance(lowered.op, CopyOp):
                # Consumers follow their copy in the body.
                lowered.war_consumers = [
                    self.lowered[c.uid] for c in lowered.op.war_consumers
                ]
        return LoweredSegment(ops, loop.extent, loop.pipeline, loop.index.name)

    def _lower_op(self, op: Operation) -> LoweredOp:
        if isinstance(op, CopyOp):
            lowered = self._lower_copy(op)
        elif isinstance(op, CallOp):
            lowered = self._lower_call(op)
        else:
            raise CompileError(
                f"cannot lower {type(op).__name__} {op.uid} in the block "
                "body: vectorization should have flattened every parallel "
                "loop, and a block-level main loop may not contain another "
                "loop — restructure the logical description to a single "
                "main loop"
            )
        lowered.deps = self._resolve(op.preconds)
        self.lowered[op.uid] = lowered
        return lowered

    def _resolve(self, preconds: List[EventUse]) -> List[Dep]:
        deps: List[Dep] = []
        for use in preconds:
            producer = use.event.producer
            if isinstance(producer, (ForOp, PForOp)):
                # A dependence on a loop's completion becomes a
                # dependence on the loop's yielded operation.
                yielded = producer.body.yield_use
                producer = yielded.event.producer if yielded else None
            lowered = self.lowered.get(producer.uid) if producer else None
            if lowered is not None:
                _add_dep(deps, lowered, _sync_of(use))
        return deps

    # ------------------------------------------------------------------
    def _replicas(self, refs) -> int:
        levels = set()
        for ref in refs:
            levels |= {
                name
                for name in ref.free_variables()
                if name in _PROC_LEVELS
            }
        return math.prod(self.extents.get(level, 1) for level in levels)

    def _lower_copy(self, op: CopyOp) -> LoweredOp:
        dst = self.fn.buffer_of(op.dst)
        src_mem, dst_mem = self.fn.buffer_of(op.src).memory, dst.memory
        none = MemoryKind.NONE
        if src_mem is none or dst_mem is none:
            # NONE buffers live in register fragments: moving them to or
            # from shared memory is real staging traffic; register-only
            # movement is free.
            other = dst_mem if src_mem is none else src_mem
            if other is MemoryKind.SHARED:
                kind = "smem_copy"
            elif other is MemoryKind.GLOBAL:
                kind = "st_global" if src_mem is none else "ld_global"
            else:
                kind = "nop"
        elif src_mem is MemoryKind.GLOBAL and dst_mem is MemoryKind.SHARED:
            kind = "tma_load" if self.use_tma else "cp_async"
        elif src_mem is MemoryKind.SHARED and dst_mem is MemoryKind.GLOBAL:
            kind = "tma_store" if self.use_tma else "st_global"
        elif src_mem is MemoryKind.GLOBAL and dst_mem is MemoryKind.REGISTER:
            kind = "ld_global"
        elif src_mem is MemoryKind.REGISTER and dst_mem is MemoryKind.GLOBAL:
            kind = "st_global"
        elif MemoryKind.SHARED in (src_mem, dst_mem):
            kind = "smem_copy"
        else:  # register-to-register
            kind = "nop"
        nbytes = op.src.size_bytes * self._replicas([op.src, op.dst])
        return LoweredOp(
            op=op,
            kind=kind,
            label=f"copy {op.src.root.name}->{op.dst.root.name}",
            bytes_moved=0 if kind == "nop" else nbytes,
            slots=dst.pipeline_depth,
            war_distance=op.war_distance,
        )

    def _lower_call(self, op: CallOp) -> LoweredOp:
        external = self.registry.external(op.function)
        replicas = self._replicas(list(op.tensor_uses()))
        shapes = [
            a.shape for a in op.args if hasattr(a, "shape")
        ]
        if external.flops_fn is not None:
            flops = external.flops_fn(shapes) * replicas
        else:
            flops = sum(math.prod(w.shape) for w in op.writes) * replicas
        kind = external.cost_kind
        return LoweredOp(
            op=op,
            kind=kind,
            label=op.function,
            flops=flops if kind != "sfu" else 0.0,
            sfu_ops=flops if kind == "sfu" else 0.0,
            # A staging call's work is counted in bytes staged.
            bytes_moved=int(flops) * 2 if kind == "smem_copy" else 0,
        )


def _sync_of(use: EventUse) -> int:
    procs = {dim.proc for dim in use.broadcast_dims}
    if not procs:
        return POINTWISE
    return WARP if procs == {ProcessorKind.THREAD} else BLOCK


def _add_dep(deps: List[Dep], producer: LoweredOp, sync: int) -> None:
    """One dependence per producer, as wide as its widest use."""
    for have in deps:
        if have.producer is producer:
            have.sync = max(have.sync, sync)
            return
    deps.append(Dep(producer, sync))


# ----------------------------------------------------------------------
# The simulator backend: the lowered kernel printed as a KernelSchedule
# ----------------------------------------------------------------------
def schedule_of(
    lowered: LoweredKernel, total_flops: float, unique_dram_bytes: float
) -> KernelSchedule:
    """The per-CTA schedule the simulator executes: resolved dependences
    become instruction dependencies and WAR distances, nothing is
    decided again."""
    return KernelSchedule(
        name=lowered.name,
        segments=[
            Segment(
                [
                    Instr(
                        uid=op.op.uid,
                        kind=op.kind,
                        role=op.op.role,
                        bytes_moved=op.bytes_moved,
                        flops=op.flops,
                        sfu_ops=op.sfu_ops,
                        deps=[dep.producer.op.uid for dep in op.deps],
                        war_distance=op.war_distance,
                        war_consumers=[c.op.uid for c in op.war_consumers],
                        label=op.label,
                    )
                    for op in segment.ops
                ],
                extent=segment.extent,
                pipeline=segment.pipeline,
            )
            for segment in lowered.segments
        ],
        grid=lowered.grid,
        n_warpgroups=lowered.n_warpgroups,
        warpspecialized=lowered.warpspecialized,
        smem_bytes_per_cta=lowered.smem_bytes,
        regs_per_thread=lowered.regs_per_thread,
        total_flops=total_flops,
        unique_dram_bytes=unique_dram_bytes,
        metadata={"machine": lowered.machine, "use_tma": lowered.use_tma},
    )
