"""Whole-GPU performance model.

Combines the detailed single-CTA simulation with grid-level effects:

* **occupancy** — CTAs per SM limited by shared memory, registers, and
  thread count;
* **waves** — the grid executes in ``ceil(grid / (SMs * occupancy))``
  waves, which produces the wave-quantization and launch-overhead
  penalties visible at small problem sizes (the paper's Figure 14 gap at
  short sequence lengths, absent a persistent-kernel optimization);
* **multi-CTA contention** — CTAs co-resident on an SM share its TMA,
  Tensor Core, SIMT, and shared-memory bandwidth: a wave takes at least
  ``occupancy x`` each resource's busy time;
* **bandwidth roofs** — total global traffic is bounded by L2 bandwidth,
  and compulsory (unique) traffic by HBM bandwidth;
* **power throttling** — sustained Tensor Core utilization above the
  knee linearly reduces the clock toward the floor fraction, the effect
  the paper normalizes for by fixing input distributions (section 5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.gpusim.executor import CtaResult, simulate_cta
from repro.gpusim.kernel import KernelSchedule
from repro.gpusim.roofline import effective_waves as _effective_waves
from repro.gpusim.roofline import roofline, throttle_scale
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


def occupancy(schedule: KernelSchedule, machine: MachineModel) -> int:
    """CTAs resident per SM under shared-memory/register/thread limits."""
    roof = roofline(machine, strict=False)
    limit = roof.max_ctas_per_sm
    if schedule.smem_bytes_per_cta > 0:
        limit = min(
            limit, roof.smem_capacity_bytes // schedule.smem_bytes_per_cta
        )
    threads = schedule.threads_per_cta
    if threads > 0:
        limit = min(limit, roof.max_threads_per_sm // threads)
    regs = schedule.regs_per_thread * threads
    if regs > 0:
        limit = min(limit, roof.registers_per_sm // regs)
    return max(1, limit)


def simulate_kernel(
    schedule: KernelSchedule, machine: MachineModel
) -> GpuResult:
    """Simulate a kernel launch; returns timing and TFLOP/s."""
    cta = simulate_cta(schedule, machine)
    # Every machine rate comes from the shared (strict) roofline
    # derivation — the same numbers the analytic cost model consumes.
    roof = roofline(machine)
    sm_count = roof.sm_count
    clock_hz = roof.clock_hz

    ctas_per_sm = occupancy(schedule, machine)
    concurrent = sm_count * ctas_per_sm
    waves = max(1, math.ceil(schedule.grid / concurrent))

    # A wave is limited by the critical path of one CTA and by each SM
    # resource serving all co-resident CTAs.
    wave_cycles = cta.cycles
    for resource, busy in cta.busy.items():
        wave_cycles = max(wave_cycles, busy * ctas_per_sm)

    # Partial last wave: scale by its fill fraction for a smoother (and
    # more realistic, thanks to tail effects) estimate. Persistent
    # kernels (one CTA per SM consuming logical blocks off a queue)
    # avoid both the tail quantization and the per-CTA start cost.
    persistent = bool(schedule.metadata.get("persistent"))
    if persistent:
        effective_waves = max(schedule.grid / concurrent, 1.0)
        start_cycles = 0.0
    else:
        effective_waves = _effective_waves(schedule.grid, int(concurrent))
        start_cycles = roof.cta_start_cycles

    compute_cycles = effective_waves * wave_cycles + start_cycles

    # Bandwidth roofs over the whole launch.
    total_loaded = schedule.bytes_loaded_per_cta() * schedule.grid
    total_stored = schedule.bytes_stored_per_cta() * schedule.grid
    hbm_bytes_per_cycle = roof.hbm_bytes_per_cycle
    l2_bytes_per_cycle = roof.l2_bytes_per_cycle
    unique = schedule.unique_dram_bytes + total_stored
    hbm_floor = unique / hbm_bytes_per_cycle
    l2_floor = (total_loaded + total_stored) / l2_bytes_per_cycle
    cycles = max(compute_cycles, hbm_floor, l2_floor)

    # Deterministic throttle model (shared with the cost model).
    clock_scale = throttle_scale(roof, schedule.total_flops, cycles)
    cycles = cycles / clock_scale

    seconds = cycles / clock_hz + roof.kernel_launch_us * 1e-6
    tflops = schedule.total_flops / seconds / 1e12 if seconds > 0 else 0.0

    utilization = {
        name: (busy * ctas_per_sm * effective_waves) / max(cycles, 1.0)
        for name, busy in cta.busy.items()
    }
    return GpuResult(
        name=schedule.name,
        cycles=cycles,
        seconds=seconds,
        tflops=tflops,
        grid=schedule.grid,
        waves=waves,
        ctas_per_sm=ctas_per_sm,
        cta_cycles=cta.cycles,
        clock_scale=clock_scale,
        utilization=utilization,
        dram_gb=(total_loaded + total_stored) / 1e9,
    )
