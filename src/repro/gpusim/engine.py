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
        # hardware's capabilities (repro.gpusim.roofline). Per-SM copy
        # throughput rides the L2: tile loads mostly hit in L2 thanks to
        # inter-CTA reuse (row/column panels shared across a wave).
        # Compulsory DRAM traffic is bounded separately by the
        # whole-device HBM roofline in the GPU model.
        r, copy = self.resources, roof.global_bytes_per_cycle
        # kinds -> (resource, work attribute, work per cycle, latency)
        models = {
            ("tma_load", "tma_store"):
                (r["tma"], "bytes_moved", copy, roof.tma_latency_cycles),
            ("cp_async",):
                (r["lsu"], "bytes_moved", copy, roof.cp_async_latency_cycles),
            ("ld_global", "st_global"):
                (r["lsu"], "bytes_moved", copy, roof.global_latency_cycles),
            ("wgmma", "mma_sync"):
                (r["tensor"], "flops", roof.tensor_flops_per_cycle, 0.0),
            ("simt",): (r["simt"], "flops", roof.simt_flops_per_cycle, 0.0),
            ("sfu",): (r["sfu"], "sfu_ops", roof.sfu_ops_per_cycle, 0.0),
            ("smem_copy",):
                (r["smem"], "bytes_moved", roof.smem_bytes_per_cycle, 0.0),
        }
        self._models = {k: m for kinds, m in models.items() for k in kinds}
        self._tma_issue = roof.tma_issue_cycles
        self._cp_async_issue_per_16b = roof.cp_async_issue_cycles_per_16b

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
        model = self._models.get(kind)
        if model is None:
            if kind == "nop":
                return ready
            raise SimulationError(f"no completion model for kind {kind!r}")
        resource, work, rate, latency = model
        return resource.reserve(ready, getattr(instr, work) / rate) + latency

    def busy_times(self) -> Dict[str, float]:
        return {name: res.busy for name, res in self.resources.items()}
