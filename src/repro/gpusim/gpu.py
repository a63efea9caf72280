"""Whole-GPU performance model.

Combines the detailed single-CTA simulation with grid-level effects:
occupancy, waves (the wave-quantization and launch-overhead penalties
visible at small problem sizes — the paper's Figure 14 gap at short
sequence lengths, absent a persistent-kernel optimization), multi-CTA
contention on each SM resource, the L2 and HBM bandwidth roofs, and
the deterministic power throttle the paper normalizes for by fixing
input distributions (section 5.1). Those effects are the one launch
model in :mod:`repro.gpusim.roofline` (:func:`~repro.gpusim.roofline.
occupancy`, :func:`~repro.gpusim.roofline.launch`), which the analytic
cost model ends in too; this module feeds it a simulated CTA and the
schedule's loaded and stored bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.gpusim.executor import simulate_cta
from repro.gpusim.kernel import KernelSchedule
from repro.gpusim.roofline import launch, occupancy, roofline
from repro.machine.machine import MachineModel


@dataclass(frozen=True)
class GpuResult:
    """Timing and throughput of a full kernel launch (read-only: a
    serving launch record shares one result among all its requests)."""

    name: str
    cycles: float
    seconds: float
    tflops: float
    grid: int
    waves: int
    ctas_per_sm: int
    cta_cycles: float
    clock_scale: float
    utilization: Dict[str, float]
    dram_gb: float

    def summary(self) -> str:
        """One-line human-readable timing summary for reports."""
        return (
            f"{self.name}: {self.tflops:7.1f} TFLOP/s  "
            f"({self.seconds * 1e3:.3f} ms, grid={self.grid}, "
            f"waves={self.waves}, occ={self.ctas_per_sm}/SM, "
            f"clock x{self.clock_scale:.3f})"
        )


def simulate_kernel(
    schedule: KernelSchedule, machine: MachineModel
) -> GpuResult:
    """Simulate a kernel launch; returns timing and TFLOP/s."""
    roof = roofline(machine)
    cta = simulate_cta(schedule, roof)
    ctas_per_sm = occupancy(
        roof,
        schedule.smem_bytes_per_cta,
        schedule.threads_per_cta,
        schedule.regs_per_thread,
    )
    total_loaded = schedule.bytes_loaded_per_cta() * schedule.grid
    total_stored = schedule.bytes_stored_per_cta() * schedule.grid
    timing = launch(
        roof,
        grid=schedule.grid,
        ctas_per_sm=ctas_per_sm,
        cta_cycles=cta.cycles,
        busy=cta.busy.values(),
        hbm_bytes=schedule.unique_dram_bytes + total_stored,
        l2_bytes=total_loaded + total_stored,
        total_flops=schedule.total_flops,
        persistent=bool(schedule.metadata.get("persistent")),
    )
    utilization = {
        name: (busy * ctas_per_sm * timing.effective_waves)
        / max(timing.cycles, 1.0)
        for name, busy in cta.busy.items()
    }
    return GpuResult(
        name=schedule.name,
        cycles=timing.cycles,
        seconds=timing.seconds,
        tflops=timing.tflops,
        grid=schedule.grid,
        waves=timing.waves,
        ctas_per_sm=ctas_per_sm,
        cta_cycles=cta.cycles,
        clock_scale=timing.clock_scale,
        utilization=utilization,
        dram_gb=(total_loaded + total_stored) / 1e9,
    )
