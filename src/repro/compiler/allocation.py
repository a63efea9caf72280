"""Shared-memory resource allocation (paper section 4.2.4, Figure 11).

Remaining shared-memory tensors must be bound to physical offsets inside
each SM's shared memory. The allocator starts from the *complete*
interference graph — every pair of buffers forced into independent
allocations — and removes auxiliary edges (pairs whose live ranges do
not truly overlap) one at a time until an assignment fits the
user-provided per-thread-block bound. Starting complete and relaxing
guarantees the chosen assignment performs a minimal amount of aliasing,
maximizing the parallelism available to the scheduler. When two buffers
end up aliased, event dependencies are inserted between the last readers
of one and the first writer of the next to prevent write-after-read
hazards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AllocationError
from repro.ir.module import Buffer, IRFunction
from repro.ir.ops import Block, ForOp, Operation, PForOp
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind

SMEM_ALIGN = 128  # TMA requires 128-byte aligned shared-memory boxes


@dataclass
class AllocationReport:
    """Result summary stored into ``fn.metadata['allocation']``."""

    total_bytes: int
    limit_bytes: int
    offsets: Dict[str, int]
    aliased_pairs: List[Tuple[str, str]]
    war_edges_added: int
    registers_per_thread: int


def allocate_shared(
    fn: IRFunction, limit_bytes: Optional[int] = None
) -> AllocationReport:
    """Assign shared-memory offsets; raises on impossible allocations."""
    if limit_bytes is None:
        limit_bytes = fn.machine.memory(MemoryKind.SHARED).capacity_bytes
    buffers = fn.buffers_in_memory(MemoryKind.SHARED)
    intervals, last_user, first_writer = _live_intervals(fn, buffers)
    sizes = {b.tensor.uid: _footprint(b) for b in buffers}

    minimum = max((sizes[b.tensor.uid] for b in buffers), default=0)
    if minimum > limit_bytes:
        biggest = max(buffers, key=lambda b: sizes[b.tensor.uid])
        raise AllocationError(
            f"shared-memory buffer {biggest.name!r} needs "
            f"{sizes[biggest.tensor.uid]} bytes alone, exceeding the "
            f"{limit_bytes}-byte bound; adjust the mapping (smaller tiles, "
            "shallower pipeline, or fewer tensors in shared memory)"
        )

    true_edges: Set[Tuple[int, int]] = set()
    aux_edges: Set[Tuple[int, int]] = set()
    for a, b in itertools.combinations(buffers, 2):
        key = _edge(a.tensor.uid, b.tensor.uid)
        if _overlaps(intervals[a.tensor.uid], intervals[b.tensor.uid]):
            true_edges.add(key)
        else:
            aux_edges.add(key)

    # Relaxation: drop auxiliary edges (largest footprint pairs first)
    # until the assignment fits. Equal footprints fall in uid order —
    # construction order, the same in every compile of one mapping —
    # never in the iteration order of the set.
    removable = sorted(
        aux_edges, key=lambda e: (-(sizes[e[0]] + sizes[e[1]]), e)
    )
    removed: Set[Tuple[int, int]] = set()
    while True:
        separate = (true_edges | aux_edges) - removed
        offsets, total = _first_fit(buffers, sizes, separate)
        if total <= limit_bytes:
            break
        if len(removed) == len(removable):
            raise AllocationError(
                f"cannot fit {total} bytes of shared-memory tensors into "
                f"the {limit_bytes}-byte bound even with maximal aliasing; "
                "the mapping must place fewer tensors in shared memory or "
                "raise the per-block limit"
            )
        removed.add(removable[len(removed)])

    for buffer in buffers:
        buffer.smem_offset = offsets[buffer.tensor.uid]

    aliased = _aliased_pairs(buffers, sizes, offsets, separate)
    war_added = _insert_war_edges(intervals, last_user, first_writer, aliased)

    report = AllocationReport(
        total_bytes=max(
            (offsets[b.tensor.uid] + sizes[b.tensor.uid] for b in buffers),
            default=0,
        ),
        limit_bytes=limit_bytes,
        offsets={b.name: offsets[b.tensor.uid] for b in buffers},
        aliased_pairs=[
            (_name(fn, a), _name(fn, b)) for a, b in aliased
        ],
        war_edges_added=war_added,
        registers_per_thread=_register_usage(fn),
    )
    fn.metadata["allocation"] = report
    return report


def _name(fn: IRFunction, uid: int) -> str:
    return fn.buffers[uid].name


def _edge(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _footprint(buffer: Buffer) -> int:
    """Bytes of shared memory one thread block needs for this buffer."""
    size = buffer.tensor.size_bytes * buffer.pipeline_depth
    for extent, proc in buffer.replication:
        # Warpgroup-replicated buffers need one copy per warpgroup;
        # warp/thread replication of a *shared* buffer is unusual but
        # handled the same way.
        size *= extent
    return _align(size)


def _align(size: int) -> int:
    return -(-size // SMEM_ALIGN) * SMEM_ALIGN


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------
def _live_intervals(
    fn: IRFunction, buffers: List[Buffer]
) -> Tuple[
    Dict[int, Tuple[int, int]], Dict[int, Operation], Dict[int, Operation]
]:
    """Live interval per buffer over a linearized operation order, with
    each buffer's last user and first writer in that order.

    An access inside a loop body extends liveness across the entire
    loop, since iterations interleave under pipelining.
    """
    spans: Dict[int, Tuple[int, int]] = {}
    loops_of: Dict[int, List[Operation]] = {}
    counter = itertools.count()

    def number(block: Block, enclosing: List[Operation]) -> None:
        for op in block.ops:
            loops_of[op.uid] = enclosing
            start = end = next(counter)
            if isinstance(op, (ForOp, PForOp)):
                number(op.body, enclosing + [op])
                end = next(counter)
            spans[op.uid] = (start, end)

    number(fn.body, [])

    wanted = {b.tensor.uid for b in buffers}
    intervals: Dict[int, Tuple[int, int]] = {}
    last_user: Dict[int, Operation] = {}
    first_writer: Dict[int, Operation] = {}
    for op in fn.walk():
        for ref in op.writes:
            if ref.root.uid in wanted:
                first_writer.setdefault(ref.root.uid, op)
        touched = {ref.root.uid for ref in op.tensor_uses()}
        for uid in touched & wanted:
            last_user[uid] = op
            # Grid-level parallel loops (one iteration per CTA) do not
            # extend liveness: each CTA has its own shared memory.
            enclosing = [
                loop
                for loop in loops_of.get(op.uid, [])
                if not (
                    isinstance(loop, PForOp)
                    and loop.proc is ProcessorKind.BLOCK
                )
            ]
            if enclosing:
                outermost = enclosing[0]
                lo, hi = spans[outermost.uid]
            else:
                lo, hi = spans[op.uid]
            if uid in intervals:
                old_lo, old_hi = intervals[uid]
                intervals[uid] = (min(old_lo, lo), max(old_hi, hi))
            else:
                intervals[uid] = (lo, hi)
    for buffer in buffers:
        intervals.setdefault(buffer.tensor.uid, (0, 0))
    return intervals, last_user, first_writer


def _overlaps(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


# ----------------------------------------------------------------------
# Offset assignment
# ----------------------------------------------------------------------
def _first_fit(
    buffers: List[Buffer],
    sizes: Dict[int, int],
    separate: Set[Tuple[int, int]],
) -> Tuple[Dict[int, int], int]:
    """First-fit offsets where edge-connected buffers must not overlap."""
    order = sorted(
        buffers, key=lambda b: (-sizes[b.tensor.uid], b.tensor.uid)
    )
    offsets: Dict[int, int] = {}
    for buffer in order:
        uid = buffer.tensor.uid
        size = sizes[uid]
        blocked = []
        for other_uid, other_off in offsets.items():
            if _edge(uid, other_uid) in separate:
                blocked.append((other_off, other_off + sizes[other_uid]))
        blocked.sort()
        offset = 0
        for lo, hi in blocked:
            if offset + size <= lo:
                break
            offset = max(offset, hi)
        offsets[uid] = offset
    total = max(
        (offsets[b.tensor.uid] + sizes[b.tensor.uid] for b in buffers),
        default=0,
    )
    return offsets, total


def _aliased_pairs(
    buffers: List[Buffer],
    sizes: Dict[int, int],
    offsets: Dict[int, int],
    separate: Set[Tuple[int, int]],
) -> List[Tuple[int, int]]:
    aliased = []
    for a, b in itertools.combinations(buffers, 2):
        ua, ub = a.tensor.uid, b.tensor.uid
        if _edge(ua, ub) in separate:
            continue
        a_range = (offsets[ua], offsets[ua] + sizes[ua])
        b_range = (offsets[ub], offsets[ub] + sizes[ub])
        if a_range[0] < b_range[1] and b_range[0] < a_range[1]:
            aliased.append((ua, ub))
    return aliased


# ----------------------------------------------------------------------
# Write-after-read synchronization for aliased buffers
# ----------------------------------------------------------------------
def _insert_war_edges(
    intervals: Dict[int, Tuple[int, int]],
    last_user: Dict[int, Operation],
    first_writer: Dict[int, Operation],
    aliased: List[Tuple[int, int]],
) -> int:
    added = 0
    for ua, ub in aliased:
        # Earlier-live buffer's last user must complete before the
        # later buffer's first writer starts.
        first, second = (ua, ub)
        if intervals[ub][1] < intervals[ua][0]:
            first, second = (ub, ua)
        last = last_user.get(first)
        writer = first_writer.get(second)
        if writer is None or last is None:
            continue
        if last.result is not None:
            use = last.result.use_all()
            if use not in writer.preconds:
                writer.preconds.append(use)
                added += 1
    return added


def _register_usage(fn: IRFunction) -> int:
    """Estimated registers per thread from REGISTER-memory buffers."""
    total_bytes = 0
    for buffer in fn.buffers_in_memory(MemoryKind.REGISTER):
        per_thread = buffer.tensor.size_bytes
        total_bytes += per_thread
    # 4 bytes per register, plus a fixed overhead for addresses/indices.
    return total_bytes // 4 + 40
