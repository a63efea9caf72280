"""Resource servers for the CTA-level discrete-event simulation.

Each SM resource (TMA engine, Tensor Core pipeline, SIMT lanes, SFU,
shared-memory bandwidth) is modeled as a serial server with a service
time per request. Requests reserve the server no earlier than their
ready time; the server processes them in reservation order. Busy time is
tracked per resource so the whole-GPU model can apply multi-CTA
contention and roofline corrections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import SimulationError
from repro.gpusim.roofline import Roofline


@dataclass
class Resource:
    """A serial server with FIFO reservations."""

    name: str
    next_free: float = 0.0
    busy: float = 0.0

    def reserve(self, ready: float, service: float) -> float:
        """Reserve the resource at or after ``ready``; returns finish."""
        if service < 0:
            raise SimulationError(
                f"negative service time on {self.name}: {service}"
            )
        start = max(ready, self.next_free)
        finish = start + service
        self.next_free = finish
        self.busy += service
        return finish


class ResourcePool:
    """The per-SM resources one CTA contends for, plus service models
    at the rates of ``roof`` (a machine's
    :func:`~repro.gpusim.roofline.roofline`)."""

    def __init__(self, roof: Roofline):
        self.resources: Dict[str, Resource] = {
            name: Resource(name)
            for name in ("tma", "tensor", "simt", "sfu", "smem", "lsu")
        }
        # All service rates come from the shared roofline derivation so
        # the analytic cost model and the simulator agree on the
        # hardware's capabilities (repro.gpusim.roofline).
        self._tensor_flops_per_cycle = roof.tensor_flops_per_cycle
        self._simt_flops_per_cycle = roof.simt_flops_per_cycle
        self._sfu_ops_per_cycle = roof.sfu_ops_per_cycle
        self._smem_bytes_per_cycle = roof.smem_bytes_per_cycle
        # Per-SM copy throughput rides the L2: tile loads mostly hit in
        # L2 thanks to inter-CTA reuse (row/column panels shared across
        # a wave). Compulsory DRAM traffic is bounded separately by the
        # whole-device HBM roofline in the GPU model.
        self._global_bytes_per_cycle = roof.global_bytes_per_cycle
        self._global_latency = roof.global_latency_cycles
        self._tma_latency = roof.tma_latency_cycles
        self._tma_issue = roof.tma_issue_cycles
        self._cp_async_latency = roof.cp_async_latency_cycles
        self._cp_async_issue_per_16b = roof.cp_async_issue_cycles_per_16b
        self.has_tma = roof.has_tma

    # ------------------------------------------------------------------
    # Service/issue models per instruction kind
    # ------------------------------------------------------------------
    def issue_cycles(self, kind: str, bytes_moved: int) -> float:
        """Cycles the issuing warp is occupied by this instruction."""
        if kind in ("tma_load", "tma_store"):
            return self._tma_issue
        if kind == "cp_async":
            # cp.async occupies the issuing threads per 16B transaction —
            # the cost Triton pays for not using the TMA.
            return (
                max(1, bytes_moved // 16) * self._cp_async_issue_per_16b / 32.0
            )
        if kind in ("wgmma", "mma_sync"):
            return 8.0
        if kind == "nop":
            return 0.0
        return 4.0

    def completion(self, kind: str, ready: float, instr) -> float:
        """Reserve the servicing resource; return the completion time."""
        if kind in ("tma_load", "tma_store"):
            service = instr.bytes_moved / self._global_bytes_per_cycle
            finish = self.resources["tma"].reserve(ready, service)
            return finish + self._tma_latency
        if kind == "cp_async":
            service = instr.bytes_moved / self._global_bytes_per_cycle
            finish = self.resources["lsu"].reserve(ready, service)
            return finish + self._cp_async_latency
        if kind in ("ld_global", "st_global"):
            service = instr.bytes_moved / self._global_bytes_per_cycle
            finish = self.resources["lsu"].reserve(ready, service)
            return finish + self._global_latency
        if kind in ("wgmma", "mma_sync"):
            service = instr.flops / self._tensor_flops_per_cycle
            return self.resources["tensor"].reserve(ready, service)
        if kind == "simt":
            service = instr.flops / self._simt_flops_per_cycle
            return self.resources["simt"].reserve(ready, service)
        if kind == "sfu":
            service = instr.sfu_ops / self._sfu_ops_per_cycle
            return self.resources["sfu"].reserve(ready, service)
        if kind == "smem_copy":
            service = instr.bytes_moved / self._smem_bytes_per_cycle
            return self.resources["smem"].reserve(ready, service)
        if kind == "nop":
            return ready
        raise SimulationError(f"no completion model for kind {kind!r}")

    def busy_times(self) -> Dict[str, float]:
        return {name: res.busy for name, res in self.resources.items()}
