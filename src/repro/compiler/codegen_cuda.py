"""CUDA C++ text backend (paper section 4.2.6).

Prints the lowered kernel (:mod:`repro.compiler.lowering`) as
human-readable, CUDA-like C++: warp-specialized role dispatch, a barrier
for every cross-role dependence (the producer arrives, each consumer
waits for the iteration it needs), TMA copies or ``cp.async`` with its
commit/wait as the lowering chose, ``wgmma`` invocations with
commit/wait groups, ``__syncwarp`` / named-barrier lowering of broadcast
event indices, and the pipelining back-edges: a multi-buffered copy
waits until the readers of its slot finished ``PIPE`` iterations ago.

This module decides nothing: instruction kinds, roles, dependences,
slots and the launch shape are read from the same lowered form the
simulator schedule is printed from, so the text says what was timed.
``tests/test_cuda_structure.py`` holds it to that — it recovers the
instruction stream per role, the barrier pairs, the shared-memory map
and the launch from the *text* and compares them with the schedule of
the same compile. The text is not compiled (no CUDA toolchain in this
environment): operands are IR references, not addresses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.compiler.lowering import (
    BLOCK, WARP, LoweredKernel, LoweredOp, LoweredSegment,
)
from repro.ir.ops import CallOp

_BARRIER = "__shared__ cuda::barrier<cuda::thread_scope_block>"
_SYNC = {WARP: "__syncwarp();", BLOCK: "named_barrier_wait();"}


def generate_cuda(lowered: LoweredKernel) -> str:
    """Render the lowered kernel as CUDA-like C++ source text."""
    return _CudaGen(lowered).run()


class _CudaGen:
    def __init__(self, kernel: LoweredKernel):
        self.kernel = kernel
        self.lines: List[str] = []
        self.indent = 0
        #: Per op: the segment it is in, the barrier its peers in the
        #: other role wait on, and the barrier a pipelined copy waits on
        #: for its slot (its readers arrive on it when done).
        self.segment_of: Dict[LoweredOp, LoweredSegment] = {}
        self.full: Dict[LoweredOp, str] = {}
        self.free: Dict[LoweredOp, str] = {}
        for segment in kernel.segments:
            for op in segment.ops:
                self.segment_of[op] = segment
                for dep in op.deps:
                    if dep.producer.op.role != op.op.role:
                        self.full.setdefault(
                            dep.producer, f"bar[{len(self.full)}]"
                        )
                if op.war_consumers:
                    self.free[op] = f"slot_free[{len(self.free)}]"

    def emit(self, text: str = "") -> None:
        self.lines.append("  " * self.indent + text if text else "")

    def block(self, head: str, body, *args) -> None:
        self.emit(head)
        self.indent += 1
        body(*args)
        self.indent -= 1

    def run(self) -> str:
        kernel = self.kernel
        name = _ident(kernel.name)
        params = ", ".join(
            f"{p.dtype.name}_t* {_ident(p.name)}" for p in kernel.params
        )
        self.emit("// Generated by the Cypress reproduction compiler.")
        self.emit(f"// kernel: {kernel.name}  machine: {kernel.machine}")
        self.emit("#include <cuda/barrier>")
        self.emit("#include <cute/tensor.hpp>")
        self.emit()
        self.block(f"__global__ void {name}_kernel({params}) {{", self._device)
        self.emit("}")
        self.emit()
        self.emit(f"void {name}({params}) {{")
        args = ", ".join(_ident(p.name) for p in kernel.params)
        self.emit(
            f"  {name}_kernel<<<{kernel.grid}, {kernel.threads_per_cta}>>>"
            f"({args});"
        )
        self.emit("}")
        return "\n".join(self.lines) + "\n"

    # ------------------------------------------------------------------
    def _device(self) -> None:
        for buffer in self.kernel.smem:
            dims = ", ".join(map(str, buffer.shape))
            depth = buffer.pipeline_depth
            pipe = f"[{depth}]" if depth > 1 else ""
            self.emit(
                f"__shared__ {buffer.dtype.name}_t "
                f"{_ident(buffer.name)}{pipe}[{dims}];"
                f"  // smem offset {buffer.smem_offset}"
            )
        for name, table in (("bar", self.full), ("slot_free", self.free)):
            if table:
                self.emit(f"{_BARRIER} {name}[{len(table)}];")
        if self.kernel.warpspecialized:
            self.block("if (warp_role() == DMA_WARP) {", self._role, "dma")
            self.block("} else {  // compute warpgroups", self._role, "compute")
            self.emit("}")
        else:
            self._role(None)

    def _role(self, role: Optional[str]) -> None:
        """Every segment, with the operations ``role`` executes."""
        for number, segment in enumerate(self.kernel.segments):
            ops = [op for op in segment.ops if role in (None, op.op.role)]
            if segment.index is None:
                self.emit(f"// segment {number}")
                self._ops(ops, segment)
                continue
            i = segment.index
            self.block(
                f"for (int {i} = 0; {i} < {segment.extent}; ++{i}) {{"
                f"  // segment {number}, software pipeline depth "
                f"{segment.pipeline}",
                self._ops, ops, segment,
            )
            self.emit("}")

    def _ops(self, ops: List[LoweredOp], segment: LoweredSegment) -> None:
        i = segment.index or "0"
        for op in ops:
            if op.war_consumers:
                self.emit(
                    f"if ({i} >= {op.war_distance}) "
                    f"{self.free[op]}.wait({i} - {op.war_distance});"
                )
            for dep in op.deps:
                if dep.producer.op.role != op.op.role:
                    home = self.segment_of[dep.producer]
                    # A producer in another segment completes once, at
                    # its last iteration.
                    when = i if home is segment else home.extent - 1
                    self.emit(f"{self.full[dep.producer]}.wait({when});")
                elif dep.sync:
                    self.emit(_SYNC[dep.sync])
            if isinstance(op.op, CallOp):
                self._call(op)
            else:
                self._copy(op, segment)
            if op in self.full:
                self.emit(f"{self.full[op]}.arrive();")
            for copy in segment.ops:
                if op in copy.war_consumers:
                    self.emit(f"{self.free[copy]}.arrive();")

    def _copy(self, op: LoweredOp, segment: LoweredSegment) -> None:
        src, dst = _ref(op.op.src), _ref(op.op.dst)
        slot = (
            f"[{segment.index} % {op.slots}]"
            if segment.index and op.slots > 1
            else ""
        )
        if op.kind == "tma_load":
            self.emit(
                f"if (elect_one_sync()) tma_load("
                f"&{_ident(op.op.dst.root.name)}{slot}, {src}, tx_barrier);"
            )
        elif op.kind == "cp_async":
            self.emit(f"cp_async(&{_ident(op.op.dst.root.name)}{slot}, {src});")
            self.emit("cp_async_commit_group();")
            self.emit("cp_async_wait_group<0>();")
        elif op.kind == "tma_store":
            self.emit(
                f"if (elect_one_sync()) tma_store("
                f"{dst}, &{_ident(op.op.src.root.name)});"
            )
        elif op.kind == "nop":
            self.emit(f"// nop: {src} -> {dst}")
        else:
            self.emit(f"copy({src}, {dst});  // {op.kind}")

    def _call(self, op: LoweredOp) -> None:
        args = ", ".join(
            _ref(a) if hasattr(a, "root") else repr(a) for a in op.op.args
        )
        if op.kind in ("wgmma", "mma_sync"):
            self.emit("warpgroup_arrive();")
            self.emit(f"{op.op.function}({args});  // {op.kind} -> tensor core")
            self.emit("warpgroup_commit_batch();")
            self.emit("warpgroup_wait<0>();")
        else:
            self.emit(f"{op.op.function}({args});  // {op.kind}")


def _ident(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _ref(ref) -> str:
    return repr(ref).replace('"', "'")
