"""Executable kernel schedules.

A :class:`KernelSchedule` is what the compiler's simulator backend
produces: a per-CTA program of :class:`Segment` s (straight-line spans or
loops), each holding :class:`Instr` uctions annotated with the resource
kind, data volume, warp role, and the dependence edges of the event
graph. Baseline systems (cuBLAS, Triton, ...) are modeled as alternative
generators of the same structure, so every system is timed by the same
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError

#: Instruction kinds understood by the executor, with the resource that
#: services them.
INSTR_KINDS = (
    "tma_load",   # TMA engine: global -> shared
    "tma_store",  # TMA engine: shared -> global
    "cp_async",   # SIMT-issued async copy (Ampere path / Triton default)
    "ld_global",  # blocking global load by threads
    "st_global",  # blocking global store by threads
    "wgmma",      # Tensor Core matrix multiply
    "mma_sync",   # Ampere-style warp-level tensor op
    "simt",       # general SIMT arithmetic
    "sfu",        # special function unit (exp, rsqrt)
    "smem_copy",  # register <-> shared staging traffic
    "nop",        # zero-cost logical operation
)


@dataclass
class Instr:
    """One instruction of a CTA schedule.

    Attributes:
        uid: identifier, unique within the schedule (IR op uid).
        kind: one of :data:`INSTR_KINDS`.
        role: ``"dma"`` or ``"compute"``.
        bytes_moved: payload for copy-like kinds.
        flops: arithmetic volume for mma/simt kinds.
        sfu_ops: special-function operation count.
        deps: uids this instruction waits on, same iteration.
        carried_deps: (uid, distance) pairs — wait on that uid's
            completion ``distance`` iterations ago (software-pipelining
            backward edges; ignored when iteration < distance).
        war_distance/war_consumers: iteration-k instance waits until the
            consumers finished iteration ``k - war_distance`` (buffer
            reuse in a multi-buffered pipeline).
        issue_cycles: cycles the issuing warp is occupied.
        label: human-readable tag for reports.
    """

    uid: int
    kind: str
    role: str = "compute"
    bytes_moved: int = 0
    flops: float = 0.0
    sfu_ops: float = 0.0
    deps: List[int] = field(default_factory=list)
    carried_deps: List[Tuple[int, int]] = field(default_factory=list)
    war_distance: int = 0
    war_consumers: List[int] = field(default_factory=list)
    issue_cycles: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in INSTR_KINDS:
            raise SimulationError(f"unknown instruction kind {self.kind!r}")


@dataclass
class Segment:
    """A straight-line span (extent == 1) or a loop of instructions."""

    instrs: List[Instr]
    extent: int = 1
    pipeline: int = 1

    def __post_init__(self) -> None:
        if self.extent < 1:
            raise SimulationError("segment extent must be >= 1")
        if self.pipeline < 1:
            raise SimulationError("pipeline depth must be >= 1")

    @property
    def is_loop(self) -> bool:
        return self.extent > 1


def threads_per_cta(n_warpgroups: int, warpspecialized: bool) -> int:
    """128 threads per compute warpgroup, and as many again for the DMA
    warpgroup of a warp-specialized kernel."""
    return 128 * (n_warpgroups + bool(warpspecialized))


@dataclass
class KernelSchedule:
    """A complete per-CTA schedule plus grid-level metadata."""

    name: str
    segments: List[Segment]
    grid: int
    n_warpgroups: int
    warpspecialized: bool
    smem_bytes_per_cta: int
    regs_per_thread: int
    total_flops: float
    unique_dram_bytes: float
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid < 1:
            raise SimulationError("grid must contain at least one CTA")
        if self.n_warpgroups < 1:
            raise SimulationError("need at least one compute warpgroup")
        seen = set()
        for segment in self.segments:
            for instr in segment.instrs:
                if instr.uid in seen:
                    raise SimulationError(
                        f"duplicate instruction uid {instr.uid}"
                    )
                seen.add(instr.uid)

    @property
    def threads_per_cta(self) -> int:
        return threads_per_cta(self.n_warpgroups, self.warpspecialized)

    def instruction_count(self) -> int:
        return sum(len(s.instrs) for s in self.segments)

    def dynamic_instruction_count(self) -> int:
        return sum(len(s.instrs) * s.extent for s in self.segments)

    def bytes_loaded_per_cta(self) -> float:
        """Global-memory bytes one CTA pulls in (all iterations)."""
        total = 0.0
        for segment in self.segments:
            for instr in segment.instrs:
                if instr.kind in ("tma_load", "cp_async", "ld_global"):
                    total += instr.bytes_moved * segment.extent
        return total

    def bytes_stored_per_cta(self) -> float:
        total = 0.0
        for segment in self.segments:
            for instr in segment.instrs:
                if instr.kind in ("tma_store", "st_global"):
                    total += instr.bytes_moved * segment.extent
        return total
