"""The MachineModel: processor hierarchy plus memories."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import MachineError
from repro.machine.memory import MemoryKind, MemoryLevel
from repro.machine.processor import ProcessorKind, ProcessorLevel, depth_of


@dataclass(frozen=True)
class MachineModel:
    """A hierarchical description of a target machine (paper Figure 2).

    Attributes:
        name: identifier, e.g. ``"h100-sxm5"``.
        levels: processor levels ordered outermost-first; must start with
            HOST and respect the global processor order (levels may be
            skipped, e.g. a machine without warpgroups).
        memories: the concrete memories, keyed by kind.
        specs: free-form numeric parameters consumed by the simulator
            (clock rate, SM count, peak tensor TFLOPs, ...).
    """

    name: str
    levels: Tuple[ProcessorLevel, ...]
    memories: Dict[MemoryKind, MemoryLevel] = field(default_factory=dict)
    specs: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.levels:
            raise MachineError("a machine needs at least one processor level")
        if self.levels[0].kind is not ProcessorKind.HOST:
            raise MachineError("the outermost processor level must be HOST")
        depths = [depth_of(level.kind) for level in self.levels]
        if depths != sorted(depths) or len(set(depths)) != len(depths):
            raise MachineError(
                "processor levels must appear in hierarchy order without "
                f"duplicates, got {[l.kind.name for l in self.levels]}"
            )
        for kind, mem in self.memories.items():
            if kind is not mem.kind:
                raise MachineError(
                    f"memory registered under {kind} but describes {mem.kind}"
                )
            if not self.has_level(mem.visible_from):
                raise MachineError(
                    f"memory {kind.name} visible from missing level "
                    f"{mem.visible_from.name}"
                )

    # ------------------------------------------------------------------
    # Processor hierarchy queries
    # ------------------------------------------------------------------
    def has_level(self, kind: ProcessorKind) -> bool:
        """True when this machine exposes the given processor level."""
        return any(level.kind is kind for level in self.levels)

    # ------------------------------------------------------------------
    # Memory queries
    # ------------------------------------------------------------------
    def memory(self, kind: MemoryKind) -> MemoryLevel:
        """The concrete memory realizing ``kind``."""
        if kind is MemoryKind.NONE:
            raise MachineError("NONE is virtual; it has no MemoryLevel")
        if kind not in self.memories:
            raise MachineError(
                f"machine {self.name} has no {kind.name} memory"
            )
        return self.memories[kind]

    def is_visible(self, mem: MemoryKind, proc: ProcessorKind) -> bool:
        """Can processors of kind ``proc`` address memory ``mem``?

        NONE is visible everywhere by definition: mapping a tensor to NONE
        never requires a physical access.
        """
        if mem is MemoryKind.NONE:
            return True
        level = self.memory(mem)
        return depth_of(proc) >= depth_of(level.visible_from)

    def spec(self, key: str) -> float:
        """A numeric spec, raising a helpful error when missing."""
        if key not in self.specs:
            raise MachineError(
                f"machine {self.name} does not define spec {key!r}; "
                f"known specs: {sorted(self.specs)}"
            )
        return self.specs[key]

    def content_key(self) -> Tuple:
        """A repr-stable tuple of everything that describes this machine.

        The name, the processor levels, the memories and the specs, read
        from their current contents on every call. Two machines with one
        name but different specs have different keys.
        """
        return (
            self.name,
            tuple((level.kind.name, level.count) for level in self.levels),
            tuple(
                (kind.name, mem.capacity_bytes, mem.visible_from.name)
                for kind, mem in sorted(
                    self.memories.items(), key=lambda kv: kv[0].name
                )
            ),
            tuple(sorted(self.specs.items())),
        )

    def describe(self) -> str:
        """A human-readable summary, used by examples and docs."""
        lines = [f"machine {self.name}"]
        for level in self.levels:
            lines.append(
                f"  proc {level.kind.name.lower():10s} x{level.count:<4d} "
                f"{level.description}"
            )
        for kind in (MemoryKind.GLOBAL, MemoryKind.SHARED, MemoryKind.REGISTER):
            if kind in self.memories:
                mem = self.memories[kind]
                lines.append(
                    f"  mem  {kind.name.lower():10s} "
                    f"{mem.capacity_bytes} B, visible from "
                    f"{mem.visible_from.name.lower()}"
                )
        return "\n".join(lines)
