"""Warp specialization and software pipelining (paper section 4.2.5).

Warp specialization partitions the block-level dependence graph between
a data-movement (DMA) warp and the compute warpgroups: all copies whose
source lives in global memory and destination in shared memory (and the
TMA stores back out) are assigned to the DMA warp; every other operation
belongs to the compute warpgroups. Dependence edges crossing the
partition become barrier synchronizations in generated code (Figure 12).

Pipelining unrolls a loop's dependence graph to the requested depth and
compacts it back, which in our IR amounts to: multi-buffering every
shared tile written by a DMA copy inside the loop (the ``PIPE``
dimension of Figure 1b) and recording backward write-after-read
dependencies so an asynchronous copy for iteration ``k`` begins only
after the consumers of its destination buffer finished iteration
``k - PIPE``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.ir.module import IRFunction
from repro.ir.ops import CallOp, CopyOp, ForOp, Operation
from repro.machine.memory import MemoryKind

DMA = "dma"
COMPUTE = "compute"


@dataclass
class WarpSpecReport:
    """Summary stored in ``fn.metadata['warpspec']``."""

    enabled: bool
    pipeline_depth: int
    dma_ops: int = 0
    compute_ops: int = 0
    crossing_edges: int = 0
    pipelined_buffers: List[str] = field(default_factory=list)


def specialize_warps(
    fn: IRFunction,
    enabled: bool = True,
    pipeline_depth: int = 1,
) -> WarpSpecReport:
    """Assign warp roles and pipeline the block-level main loops."""
    report = WarpSpecReport(enabled=enabled, pipeline_depth=pipeline_depth)
    _, body = fn.grid_and_body()
    for op in body.walk():
        op.role = _role_of(fn, op) if enabled else COMPUTE
        if op.role == DMA:
            report.dma_ops += 1
        else:
            report.compute_ops += 1
    report.crossing_edges = sum(
        use.event.producer.role != op.role
        for op in body.walk()
        for use in op.preconds
    )
    for op in body.ops:
        if isinstance(op, ForOp):
            pipelined = _pipeline_loop(fn, op, pipeline_depth)
            report.pipelined_buffers.extend(pipelined)
    fn.metadata["warpspec"] = report
    return report


def _role_of(fn: IRFunction, op: Operation) -> str:
    if isinstance(op, CopyOp):
        src = fn.buffers.get(op.src.root.uid)
        dst = fn.buffers.get(op.dst.root.uid)
        if src is None or dst is None:
            return COMPUTE
        if src.memory is MemoryKind.GLOBAL and dst.memory is (
            MemoryKind.SHARED
        ):
            return DMA
        if src.memory is MemoryKind.SHARED and dst.memory is (
            MemoryKind.GLOBAL
        ):
            return DMA
    if isinstance(op, CallOp) and op.cost_kind in ("tma_load", "tma_store"):
        return DMA
    return COMPUTE


def _pipeline_loop(
    fn: IRFunction, loop: ForOp, depth: int
) -> List[str]:
    """Multi-buffer DMA destinations and record backward dependencies."""
    loop.pipeline = depth
    pipelined: List[str] = []
    users: Dict[int, List[Operation]] = {}
    for op in loop.body.walk():
        for uid in {ref.root.uid for ref in op.tensor_uses()}:
            users.setdefault(uid, []).append(op)
    for op in loop.body.walk():
        if not isinstance(op, CopyOp) or op.role != DMA:
            continue
        dst = fn.buffers.get(op.dst.root.uid)
        if dst is None or dst.memory is not MemoryKind.SHARED:
            continue
        if dst.pipeline_depth < depth:
            dst.pipeline_depth = depth
            pipelined.append(dst.name)
        consumers = [
            other for other in users[dst.tensor.uid] if other is not op
        ]
        # Iteration k of this copy may start only once the consumers of
        # buffer slot (k mod depth) finished iteration k - depth. These
        # are the dashed backward edges of Figure 12.
        op.war_distance = depth
        op.war_consumers = consumers
    return pipelined
