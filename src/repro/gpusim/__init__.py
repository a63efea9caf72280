"""Discrete-event Hopper GPU simulator.

This package substitutes for the H100 hardware the paper evaluates on.
The compiler lowers programs into a :class:`KernelSchedule` — per-CTA
instruction streams for the DMA warp and each compute warpgroup, linked
by the event dependence graph — and the executor simulates one CTA's
streams against resource servers at H100 rates (TMA engine, Tensor
Core, SIMT pipelines, shared-memory bandwidth). The whole-GPU model adds
grid scheduling: occupancy, waves, launch overhead, DRAM/L2 bandwidth
roofs, and a deterministic power-throttle model. That grid arithmetic is
one launch model (:func:`~repro.gpusim.roofline.occupancy` and
:func:`~repro.gpusim.roofline.launch`), which the analytic cost model in
:mod:`repro.tuner.costmodel` ends in as well.
"""

from repro.gpusim.kernel import Instr, KernelSchedule, Segment
from repro.gpusim.engine import ResourcePool
from repro.gpusim.executor import CtaResult, simulate_cta
from repro.gpusim.gpu import GpuResult, simulate_kernel
from repro.gpusim.functional import interpret_function
from repro.gpusim.roofline import Roofline, roofline

__all__ = [
    "Instr",
    "Segment",
    "KernelSchedule",
    "ResourcePool",
    "simulate_cta",
    "CtaResult",
    "simulate_kernel",
    "GpuResult",
    "interpret_function",
    "Roofline",
    "roofline",
]
