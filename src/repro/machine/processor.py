"""Processor kinds and levels of the hierarchical machine model."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ProcessorKind(enum.Enum):
    """The processor levels of the paper's abstract syntax (Figure 3).

    ``WARPGROUP`` is the level introduced for Hopper: a group of four
    warps (128 threads) capable of collectively initiating a Tensor Core
    operation. Members are ordered from outermost to innermost.
    """

    HOST = "host"
    BLOCK = "block"
    WARPGROUP = "warpgroup"
    WARP = "warp"
    THREAD = "thread"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessorKind.{self.name}"


#: Hierarchy order, outermost first. Lower index = closer to the host.
PROCESSOR_ORDER = (
    ProcessorKind.HOST,
    ProcessorKind.BLOCK,
    ProcessorKind.WARPGROUP,
    ProcessorKind.WARP,
    ProcessorKind.THREAD,
)


def depth_of(kind: ProcessorKind) -> int:
    """Depth of a processor kind in the hierarchy (HOST == 0)."""
    return PROCESSOR_ORDER.index(kind)


def is_intra_block(kind: ProcessorKind) -> bool:
    """True for levels whose parallel loops are implicit on a GPU.

    Parallel loops over warpgroups, warps, and threads do not become real
    loops in generated code: the hardware provides the parallelism. These
    are the loops the vectorization pass (section 4.2.2) flattens.
    """
    return kind in (
        ProcessorKind.WARPGROUP,
        ProcessorKind.WARP,
        ProcessorKind.THREAD,
    )


@dataclass(frozen=True)
class ProcessorLevel:
    """One level of a concrete machine's processor hierarchy.

    Attributes:
        kind: the abstract processor kind at this level.
        count: number of children of this kind per parent processor
            (e.g. 4 warps per warpgroup); for HOST this is 1.
        description: human-readable note about the physical realization.
    """

    kind: ProcessorKind
    count: int
    description: str = ""

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(
                f"processor level {self.kind} must have count >= 1, "
                f"got {self.count}"
            )
