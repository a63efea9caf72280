"""CTA-level schedule execution.

Simulates one thread block's instruction streams: the DMA warp's stream
and one stream per compute warpgroup. Streams issue in order; an
instruction starts once its stream reaches it *and* its dependence
events have completed (the explicit-waits of warp-specialized code).
Asynchronous instructions occupy the stream only for their issue cost,
so a DMA warp can run ``PIPE`` iterations ahead, bounded exactly by the
backward write-after-read edges the pipelining pass recorded. A single
stream (no warp specialization) issues a pipelined loop's copies
``pipeline - 1`` iterations early: the unrolled multistage prefetch of
Ampere-style kernels (Figure 1a).

A dynamic instruction's id is its segment's base + iteration x the
segment's width + its position. One pass builds a row per static
instruction as its streams run it (a compute instruction's
per-warpgroup share, a copy as written): its issue cycles, whether it
blocks its stream, and its dependences as offsets from the instance's
id (a producer in another segment: its fixed last-iteration id). A
stream is a list of ``(row, id, iteration)``; per-id state is flat
lists. Each issue reserves through
:meth:`~repro.gpusim.engine.ResourcePool.completion`, the one service
model, which the differential oracle reads too.

An issue re-resolves only the stream head that advanced and the heads
that were blocked. A head's dependences are worked out when it becomes
the head (a uid in no segment raises then, once it applies), and its
ready time is cached once every instance of every dependence has
completed: completion times change only when an instance issues, so the
value is final, and so is the start time built on it (a stream's clock
moves only when it issues). Nothing outlives the call, and the schedule
is only read.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.gpusim.engine import ResourcePool
from repro.gpusim.kernel import Instr, KernelSchedule
from repro.gpusim.roofline import Roofline


@dataclass
class CtaResult:
    """Timing of one simulated CTA."""

    cycles: float
    busy: Dict[str, float]
    stream_cycles: Dict[str, float]
    dynamic_instructions: int


class _Row(NamedTuple):
    """One static instruction as its streams issue it."""

    instr: Instr  # as costed on its streams
    issue: float
    blocking: bool
    #: ``(gate, target, scale)`` per dependence (deps, carried deps,
    #: write-after-read consumers), on id ``target + scale * id`` from
    #: iteration ``gate`` on; ``scale`` 0 names another segment's id.
    deps: Tuple[Tuple[int, int, int], ...]
    unknown: Tuple[Tuple[int, int], ...]  # (gate, uid): in no segment
    instances: int  # stream instances: one per warpgroup for compute


#: One dynamic instruction on a stream: its row, id and iteration.
_Entry = Tuple[_Row, int, int]

_BLOCKING = ("simt", "sfu", "smem_copy", "ld_global", "st_global")


def simulate_cta(schedule: KernelSchedule, roof: Roofline) -> CtaResult:
    """Simulate one CTA of ``schedule`` at the rates of ``roof`` (a
    machine's :func:`~repro.gpusim.roofline.roofline`)."""
    pool = ResourcePool(roof)
    rows, bases = _rows(schedule, pool)
    streams = _build_streams(schedule, rows, bases)
    # Per id: instances still to issue, the latest finish among those
    # that have, and — once none is left — when the whole one completed.
    remaining: List[int] = []
    for seg_rows, segment in zip(rows, schedule.segments):
        remaining += [row.instances for row in seg_rows] * segment.extent
    latest = [0.0] * len(remaining)
    finished: List[Optional[float]] = [None] * len(remaining)
    stream_time: Dict[str, float] = {name: 0.0 for name in streams}
    cursor: Dict[str, int] = {name: 0 for name in streams}
    # Per unfinished stream: what its head waits on, and its feasible
    # start time — None while the head is blocked or not yet resolved.
    waits: Dict[str, List[int]] = {
        name: _waits(*entries[0]) for name, entries in streams.items()
        if entries
    }
    start: Dict[str, Optional[float]] = dict.fromkeys(waits)

    # Event-driven issue: among all stream heads whose dependencies are
    # met, process the one with the earliest feasible start time. This
    # keeps resource reservations close to time order (hardware FIFOs
    # serve requests as they arrive, not in an arbitrary stream order).
    while start:
        name = None
        for candidate, when in start.items():
            if when is None:
                ready = _deps_ready(waits[candidate], finished)
                if ready is None:
                    continue
                clock = stream_time[candidate]
                # max(clock, ready), spelled out: no call per resolution
                when = start[candidate] = ready if ready > clock else clock
            if name is None or when < begin:
                name, begin = candidate, when
        if name is None:
            raise SimulationError(
                "schedule deadlocked: circular dependence between "
                "instruction streams: "
                + "; ".join(
                    _blocked(n, streams[n][cursor[n]], waits[n], finished,
                             schedule, bases)
                    for n in start
                )
            )
        entries = streams[name]
        at = cursor[name]
        row, me, _ = entries[at]
        instr, issue, blocking, _, _, _ = row
        issued = begin + issue
        finish = pool.completion(instr.kind, issued, instr)
        stream_time[name] = finish if blocking else issued
        if finish > latest[me]:
            latest[me] = finish
        remaining[me] -= 1
        if not remaining[me]:
            finished[me] = latest[me]
        at = cursor[name] = at + 1
        if at == len(entries):
            del start[name]
        else:
            start[name] = None
            waits[name] = _waits(*entries[at])

    return CtaResult(
        cycles=max([*stream_time.values(), *finished, 0.0]),
        busy=pool.busy_times(),
        stream_cycles=dict(stream_time),
        dynamic_instructions=sum(len(e) for e in streams.values()),
    )


# ----------------------------------------------------------------------
# Rows and streams
# ----------------------------------------------------------------------
def _rows(
    schedule: KernelSchedule, pool: ResourcePool
) -> Tuple[List[List[_Row]], List[int]]:
    """Each segment's rows, and each segment's first id (then the total)."""
    segments = schedule.segments
    bases = [0]
    home: Dict[int, Tuple[int, int]] = {}
    for seg_idx, segment in enumerate(segments):
        bases.append(bases[-1] + segment.extent * len(segment.instrs))
        for pos, instr in enumerate(segment.instrs):
            home[instr.uid] = (seg_idx, pos)

    def edge(seg_idx: int, pos: int, uid: int, back: int):
        """``(gate, target, scale)`` of the dependence of ``pos`` in
        ``seg_idx`` on ``uid`` ``back`` iterations earlier; scale None
        if ``uid`` has no instance there (none, or a later iteration:
        past the last one in the end)."""
        other, at = home.get(uid, (None, None))
        if other is None or other == seg_idx and back < 0:
            return back, uid, None
        width = len(segments[other].instrs)
        if other == seg_idx:
            return back, at - pos - back * width, 1
        last = segments[other].extent - 1
        return back, bases[other] + last * width + at, 0

    n = schedule.n_warpgroups
    rows = []
    for seg_idx, segment in enumerate(segments):
        rows.append([])
        for pos, instr in enumerate(segment.instrs):
            # Work annotated on a compute instruction covers all
            # warpgroups; each stream executes 1/Nth of it.
            dma = instr.role == "dma"
            if not dma and n > 1:
                instr = replace(
                    instr,
                    bytes_moved=instr.bytes_moved // n,
                    flops=instr.flops / n,
                    sfu_ops=instr.sfu_ops / n,
                )
            edges = [*((uid, 0) for uid in instr.deps), *instr.carried_deps]
            if instr.war_distance > 0:
                war = instr.war_distance
                edges += [(uid, war) for uid in instr.war_consumers]
            deps = [edge(seg_idx, pos, uid, back) for uid, back in edges]
            rows[-1].append(_Row(
                instr,
                pool.issue_cycles(instr.kind, instr.bytes_moved),
                instr.kind in _BLOCKING,
                tuple(dep for dep in deps if dep[2] is not None),
                tuple((gate, uid) for gate, uid, s in deps if s is None),
                1 if dma else n,
            ))
    return rows, bases


def _build_streams(
    schedule: KernelSchedule, rows: List[List[_Row]], bases: List[int]
) -> Dict[str, List[_Entry]]:
    names = [f"wg{i}" for i in range(schedule.n_warpgroups)]
    compute = [[] for _ in names]
    streams: Dict[str, List[_Entry]] = dict(zip(names, compute))
    # a single warp issues each block-wide copy
    copy_stream = compute[0]
    if schedule.warpspecialized:
        copy_stream = streams["dma"] = []
    for seg_rows, base, segment in zip(rows, bases, schedule.segments):
        width = len(seg_rows)
        order = [
            (pos, k) for k in range(segment.extent) for pos in range(width)
        ]
        ahead = segment.pipeline - 1 if segment.is_loop else 0
        if ahead and not schedule.warpspecialized:
            # Multistage prefetch: a copy of iteration k issues just
            # before iteration k - ahead's other instructions (those of
            # k < ahead lead them all). A copy that depends on
            # same-iteration compute results (like the serialized B2
            # load of the modeled Triton Dual-GEMM) stays in place.
            early = {
                pos for pos, i in enumerate(segment.instrs)
                if i.role == "dma" and not i.deps
            }
            order.sort(key=lambda at: (at[1] - ahead, 0, at[0])
                       if at[0] in early else (at[1], 1, at[0]))
        for pos, k in order:
            row = seg_rows[pos]
            entry = (row, base + k * width + pos, k)
            if row.instr.role == "dma":
                copy_stream.append(entry)
            else:
                for entries in compute:
                    entries.append(entry)
    return streams


# ----------------------------------------------------------------------
# Dependence resolution
# ----------------------------------------------------------------------
def _waits(row: _Row, me: int, iteration: int) -> List[int]:
    """The ids the instance ``me`` of ``row`` at ``iteration`` waits on."""
    for gate, uid in row.unknown:
        if gate <= iteration:
            raise SimulationError(f"instruction depends on unknown uid {uid}")
    waits = []
    for gate, target, scale in row.deps:
        if gate <= iteration:
            waits.append(target + scale * me)
    return waits


def _deps_ready(
    waits: List[int], finished: List[Optional[float]]
) -> Optional[float]:
    """Latest completion among a head's dependencies, or None if some
    dependency has not fully completed yet. A time, once returned, is
    final: every instance it was taken over has issued."""
    ready = 0.0
    for dep in waits:
        time = finished[dep]
        if time is None:
            return None
        if time > ready:
            ready = time
    return ready


def _blocked(
    name: str, entry: _Entry, waits: List[int], finished: List,
    schedule: KernelSchedule, bases: List[int],
) -> str:
    """One deadlocked stream: its head and the first thing it waits on."""
    row, _, iteration = entry
    dep = next(dep for dep in waits if finished[dep] is None)
    segment = bisect_right(bases, dep) - 1
    instrs = schedule.segments[segment].instrs
    k, pos = divmod(dep - bases[segment], len(instrs))
    return (
        f"{name} is at {row.instr.label or row.instr.kind!r} "
        f"(uid {row.instr.uid}, iteration {iteration}) waiting on "
        f"uid {instrs[pos].uid} (segment {segment}, iteration {k})"
    )
