"""Per-resource roofline numbers and the one launch model.

The discrete-event simulator (:mod:`repro.gpusim.engine`), the
whole-GPU model (:mod:`repro.gpusim.gpu`), and the analytic cost
model (:mod:`repro.tuner.costmodel`) all need the same derived
quantities: per-SM service rates for each resource, whole-device
bandwidth in bytes per cycle, latency and issue costs, and occupancy
limits. :func:`roofline` derives them from ``machine.specs``.

Both timing paths then end in the same two calls: :func:`occupancy`
(CTAs resident per SM) and :func:`launch` (waves, multi-CTA
contention, the HBM/L2 roofs, the power throttle and the launch
overhead). The simulator feeds them one simulated CTA, the cost model
one predicted CTA, so the predictor and the simulator can never
disagree about what the hardware is capable of or how a grid fills it
— only about how a particular schedule uses one CTA's resources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.machine.machine import MachineModel
from repro.machine.memory import MemoryKind


@dataclass(frozen=True)
class Roofline:
    """Derived machine rates, latencies, and limits (all per boost clock).

    Attributes:
        sm_count: streaming multiprocessors on the device.
        clock_hz: boost clock in Hz.
        tensor_flops_per_cycle: Tensor Core FLOPs per cycle per SM.
        simt_flops_per_cycle: SIMT FLOPs per cycle per SM.
        sfu_ops_per_cycle: special-function ops per cycle per SM.
        smem_bytes_per_cycle: shared-memory bandwidth per SM.
        global_bytes_per_cycle: per-SM global-copy service rate. Tile
            loads mostly hit in L2 thanks to inter-CTA reuse, so this
            rides the L2 bandwidth split across SMs; compulsory DRAM
            traffic is bounded separately by ``hbm_bytes_per_cycle``.
        global_latency_cycles: blocking global-access latency.
        tma_issue_cycles / tma_latency_cycles: TMA issue cost and
            completion latency (meaningful when ``has_tma``).
        cp_async_issue_cycles_per_16b / cp_async_latency_cycles: the
            Ampere-style async-copy costs used when the TMA is absent.
        has_tma: whether the machine exposes a TMA engine.
        hbm_bytes_per_cycle: whole-device HBM bandwidth.
        l2_bytes_per_cycle: whole-device L2 bandwidth.
        smem_capacity_bytes: shared memory per SM.
        registers_per_sm / max_threads_per_sm / max_ctas_per_sm:
            occupancy limits.
        cta_start_cycles: fixed per-launch CTA start cost.
        kernel_launch_us: host-side launch overhead in microseconds.
        throttle_knee / throttle_floor: the deterministic power model —
            sustained tensor utilization above the knee scales the
            clock linearly toward the floor fraction.
        tensor_peak_tflops: device dense FP16 Tensor Core peak.
    """

    sm_count: float
    clock_hz: float
    tensor_flops_per_cycle: float
    simt_flops_per_cycle: float
    sfu_ops_per_cycle: float
    smem_bytes_per_cycle: float
    global_bytes_per_cycle: float
    global_latency_cycles: float
    tma_issue_cycles: float
    tma_latency_cycles: float
    cp_async_issue_cycles_per_16b: float
    cp_async_latency_cycles: float
    has_tma: bool
    hbm_bytes_per_cycle: float
    l2_bytes_per_cycle: float
    smem_capacity_bytes: int
    registers_per_sm: int
    max_threads_per_sm: int
    max_ctas_per_sm: int
    cta_start_cycles: float
    kernel_launch_us: float
    throttle_knee: float
    throttle_floor: float
    tensor_peak_tflops: float

    def copy_latency_cycles(self) -> float:
        """Completion latency of the machine's bulk-copy mechanism."""
        return (
            self.tma_latency_cycles
            if self.has_tma
            else self.cp_async_latency_cycles
        )

    def copy_issue_cycles(self, bytes_moved: float) -> float:
        """Cycles the issuing warp spends launching one bulk copy."""
        if self.has_tma:
            return self.tma_issue_cycles
        return (
            max(1.0, bytes_moved / 16.0)
            * self.cp_async_issue_cycles_per_16b
            / 32.0
        )


def occupancy(
    roof: Roofline, smem_bytes: int, threads: int, regs_per_thread: int
) -> int:
    """CTAs resident per SM under the shared-memory, thread and register
    limits of one CTA (at least one)."""
    limit = roof.max_ctas_per_sm
    if smem_bytes > 0:
        limit = min(limit, roof.smem_capacity_bytes // smem_bytes)
    if threads > 0:
        limit = min(limit, roof.max_threads_per_sm // threads)
    regs = regs_per_thread * threads
    if regs > 0:
        limit = min(limit, roof.registers_per_sm // regs)
    return max(1, limit)


@dataclass(frozen=True)
class LaunchTiming:
    """One launch on the whole device, as :func:`launch` models it:
    the ``waves`` a full-occupancy grid needs, the ``effective_waves``
    actually charged, the launch ``cycles`` after the roofs and the
    throttle's ``clock_scale``, wall ``seconds`` with the host launch
    overhead, ``tflops``, and the two bandwidth roofs in cycles."""

    waves: int
    effective_waves: float
    cycles: float
    clock_scale: float
    seconds: float
    tflops: float
    hbm_floor: float
    l2_floor: float


def launch(
    roof: Roofline,
    *,
    grid: int,
    ctas_per_sm: int,
    cta_cycles: float,
    busy: Iterable[float],
    hbm_bytes: float,
    l2_bytes: float,
    total_flops: float,
    persistent: bool = False,
) -> LaunchTiming:
    """Time ``grid`` identical CTAs at ``ctas_per_sm`` on the device.

    Args:
        roof: the machine's derived roofline.
        grid: CTAs launched.
        ctas_per_sm: the occupancy (:func:`occupancy`).
        cta_cycles: one CTA's critical path.
        busy: one CTA's busy cycles on each contended SM resource.
        hbm_bytes: compulsory DRAM traffic of the whole launch.
        l2_bytes: total global traffic of the whole launch.
        total_flops: useful arithmetic of the launch.
        persistent: one CTA per SM consuming logical blocks off a
            queue, which avoids the tail quantization and the per-CTA
            start cost.
    """
    concurrent = roof.sm_count * ctas_per_sm
    # A wave is limited by the critical path of one CTA and by each SM
    # resource serving all co-resident CTAs.
    wave_cycles = cta_cycles
    for resource_busy in busy:
        wave_cycles = max(wave_cycles, resource_busy * ctas_per_sm)
    if persistent:
        waves = max(grid / concurrent, 1.0)
        start_cycles = 0.0
    else:
        # The partial last wave is scaled by its fill fraction, floored
        # at 0.35 (tail effects); the launch takes at least one wave.
        resident = int(concurrent)
        full, tail = divmod(grid, resident)
        waves = max(full + (max(0.35, tail / resident) if tail else 0.0), 1.0)
        start_cycles = roof.cta_start_cycles
    hbm_floor = hbm_bytes / roof.hbm_bytes_per_cycle
    l2_floor = l2_bytes / roof.l2_bytes_per_cycle
    cycles = max(waves * wave_cycles + start_cycles, hbm_floor, l2_floor)
    # The deterministic power throttle: sustained Tensor Core
    # utilization above the knee scales the clock linearly toward the
    # floor fraction.
    clock_scale = 1.0
    tensor_util = min(
        1.0,
        (total_flops / roof.tensor_peak_tflops / 1e12)
        * roof.clock_hz
        / max(cycles, 1.0),
    )
    knee = roof.throttle_knee
    if tensor_util > knee and knee < 1.0:
        over = min(1.0, (tensor_util - knee) / (1.0 - knee))
        clock_scale = 1.0 - (1.0 - roof.throttle_floor) * over
    cycles = cycles / clock_scale
    seconds = cycles / roof.clock_hz + roof.kernel_launch_us * 1e-6
    return LaunchTiming(
        waves=max(1, math.ceil(grid / concurrent)),
        effective_waves=waves,
        cycles=cycles,
        clock_scale=clock_scale,
        seconds=seconds,
        tflops=total_flops / seconds / 1e12 if seconds > 0 else 0.0,
        hbm_floor=hbm_floor,
        l2_floor=l2_floor,
    )


def roofline(machine: MachineModel) -> Roofline:
    """The :class:`Roofline` of ``machine``, derived from its current
    ``specs`` on every call (no memo: a machine whose specs change in
    place reads its new rates, as its ``content_key`` does). A caller
    that needs it several times derives it once and hands it down.

    Args:
        machine: the machine model to derive rates from. Must define
            SHARED/GLOBAL memories and the ``sm_count``, ``clock_ghz``,
            ``tensor_fp16_tflops`` and ``hbm_bandwidth_tb_s`` specs —
            fabricated rates would make every simulation and cost
            prediction silently wrong. Other missing specs fall back
            to the simulator's historical defaults.

    Returns:
        A frozen :class:`Roofline` with every derived quantity the
        simulator and the analytic cost model consume.

    Raises:
        MachineError: an essential spec is missing.
    """
    specs = machine.specs
    sm_count = machine.spec("sm_count")
    clock_hz = machine.spec("clock_ghz") * 1e9
    hbm_tb_s = machine.spec("hbm_bandwidth_tb_s")
    l2_tb_s = specs.get("l2_bandwidth_tb_s", hbm_tb_s * 3)
    return Roofline(
        sm_count=sm_count,
        clock_hz=clock_hz,
        tensor_flops_per_cycle=specs.get(
            "tensor_flops_per_cycle_per_sm", 1000.0
        ),
        simt_flops_per_cycle=specs.get("simt_flops_per_cycle_per_sm", 128.0),
        sfu_ops_per_cycle=specs.get("sfu_ops_per_cycle_per_sm", 16.0),
        smem_bytes_per_cycle=machine.memory(
            MemoryKind.SHARED
        ).bandwidth_bytes_per_cycle,
        global_bytes_per_cycle=l2_tb_s * 1e12 / (sm_count * clock_hz),
        global_latency_cycles=machine.memory(
            MemoryKind.GLOBAL
        ).latency_cycles,
        tma_issue_cycles=specs.get("tma_issue_cycles", 40.0),
        tma_latency_cycles=specs.get("tma_latency_cycles", 700.0),
        cp_async_issue_cycles_per_16b=specs.get(
            "cp_async_issue_cycles_per_16b", 1.0
        ),
        cp_async_latency_cycles=specs.get("cp_async_latency_cycles", 600.0),
        has_tma="tma_issue_cycles" in specs,
        hbm_bytes_per_cycle=hbm_tb_s * 1e12 / clock_hz,
        l2_bytes_per_cycle=l2_tb_s * 1e12 / clock_hz,
        smem_capacity_bytes=machine.memory(
            MemoryKind.SHARED
        ).capacity_bytes,
        registers_per_sm=int(specs.get("registers_per_sm", 65536)),
        max_threads_per_sm=int(specs.get("max_threads_per_sm", 2048)),
        max_ctas_per_sm=int(specs.get("max_ctas_per_sm", 32)),
        cta_start_cycles=specs.get("cta_start_cycles", 0.0),
        kernel_launch_us=specs.get("kernel_launch_us", 0.0),
        throttle_knee=specs.get("throttle_knee_utilization", 1.0),
        throttle_floor=specs.get("throttle_floor_fraction", 1.0),
        tensor_peak_tflops=machine.spec("tensor_fp16_tflops"),
    )
