"""CTA-level schedule execution.

Simulates one thread block's instruction streams: the DMA warp's stream
and one stream per compute warpgroup. Streams issue in order; an
instruction starts once its stream reaches it *and* its dependence
events have completed (the explicit-waits of warp-specialized code).
Asynchronous instructions occupy the stream only for their issue cost,
so a DMA warp can run ``PIPE`` iterations ahead, bounded exactly by the
backward write-after-read edges the pipelining pass recorded.

For single-stream (non-warp-specialized) schedules, copies inside a
pipelined loop are issued ``pipeline - 1`` iterations early, modeling
the unrolled multistage prefetch of Ampere-style kernels (Figure 1a).

An issue re-resolves only the stream head that advanced and the heads
that were blocked. What a head waits on is worked out once, when it
becomes the head (a dependence in another segment through a
``uid -> (segment, last iteration)`` table built per call), and its
ready time is cached from the moment every instance of every dependence
has completed: completion times only ever change when an instance
issues, so from then on the value is final, and so is the start time
built on it (the stream's own clock moves only when that stream
issues). Nothing outlives the call, and the schedule is only read: the
per-warpgroup instruction variants live in a table local to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.gpusim.engine import ResourcePool
from repro.gpusim.kernel import Instr, KernelSchedule, Segment
from repro.gpusim.roofline import Roofline


@dataclass
class CtaResult:
    """Timing of one simulated CTA."""

    cycles: float
    busy: Dict[str, float]
    stream_cycles: Dict[str, float]
    dynamic_instructions: int


@dataclass
class _Item:
    """One dynamic instruction instance on a stream."""

    instr: Instr
    iteration: int
    segment: int


#: (segment, iteration, uid) of one dynamic instruction.
_Key = Tuple[int, int, int]


def simulate_cta(schedule: KernelSchedule, roof: Roofline) -> CtaResult:
    """Simulate one CTA of ``schedule`` at the rates of ``roof`` (a
    machine's :func:`~repro.gpusim.roofline.roofline`)."""
    pool = ResourcePool(roof)
    streams = _build_streams(schedule)
    # Instances of each dynamic instruction still to issue, the latest
    # finish among those that have, and — once none is left — the time
    # the instruction as a whole completed.
    remaining = _expected_instances(streams)
    latest: Dict[_Key, float] = {}
    finished: Dict[_Key, float] = {}
    home = {
        instr.uid: (seg_idx, segment.extent - 1)
        for seg_idx, segment in enumerate(schedule.segments)
        for instr in segment.instrs
    }
    stream_time: Dict[str, float] = {name: 0.0 for name in streams}
    cursor: Dict[str, int] = {name: 0 for name in streams}
    # Per unfinished stream: what its head waits on, and its feasible
    # start time — None while the head is blocked or not yet resolved.
    waits: Dict[str, List[_Key]] = {
        name: _dep_keys(items[0], remaining, home)
        for name, items in streams.items()
        if items
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
                when = start[candidate] = max(stream_time[candidate], ready)
            if name is None or when < start[name]:
                name = candidate
        if name is None:
            raise SimulationError(
                "schedule deadlocked: circular dependence between "
                "instruction streams: "
                + "; ".join(
                    _blocked(n, streams[n][cursor[n]], waits[n], finished)
                    for n in start
                )
            )
        items = streams[name]
        item = items[cursor[name]]
        begin = start[name]
        issue = pool.issue_cycles(item.instr.kind, item.instr.bytes_moved)
        finish = pool.completion(item.instr.kind, begin + issue, item.instr)
        blocking = item.instr.kind in ("simt", "sfu", "smem_copy",
                                       "ld_global", "st_global")
        stream_time[name] = finish if blocking else begin + issue
        key = (item.segment, item.iteration, item.instr.uid)
        latest[key] = max(latest.get(key, 0.0), finish)
        remaining[key] -= 1
        if not remaining[key]:
            finished[key] = latest[key]
        cursor[name] += 1
        if cursor[name] == len(items):
            del start[name]
        else:
            start[name] = None
            waits[name] = _dep_keys(items[cursor[name]], remaining, home)

    return CtaResult(
        cycles=max([*stream_time.values(), *finished.values(), 0.0]),
        busy=pool.busy_times(),
        stream_cycles=dict(stream_time),
        dynamic_instructions=sum(len(items) for items in streams.values()),
    )


# ----------------------------------------------------------------------
# Stream construction
# ----------------------------------------------------------------------
def _build_streams(schedule: KernelSchedule) -> Dict[str, List[_Item]]:
    names = [f"wg{i}" for i in range(schedule.n_warpgroups)]
    if schedule.warpspecialized:
        names.append("dma")
    streams: Dict[str, List[_Item]] = {name: [] for name in names}
    # Work annotated on a compute instruction covers all warpgroups;
    # each stream executes 1/Nth of it. One variant per instruction,
    # owned by this simulation — the schedule is shared and cached.
    n = schedule.n_warpgroups
    per_wg = {
        instr.uid: instr if n == 1 else replace(
            instr,
            bytes_moved=instr.bytes_moved // n,
            flops=instr.flops / n,
            sfu_ops=instr.sfu_ops / n,
        )
        for segment in schedule.segments
        for instr in segment.instrs
    }
    for seg_idx, segment in enumerate(schedule.segments):
        if schedule.warpspecialized:
            _emit_warpspec(streams, per_wg, seg_idx, segment)
        else:
            _emit_single(streams, per_wg, seg_idx, segment)
    return streams


def _emit_warpspec(
    streams: Dict[str, List[_Item]],
    per_wg: Dict[int, Instr],
    seg_idx: int,
    segment: Segment,
) -> None:
    for k in range(segment.extent):
        for instr in segment.instrs:
            if instr.role == "dma":
                streams["dma"].append(_Item(instr, k, seg_idx))
            else:
                for name, items in streams.items():
                    if name != "dma":
                        items.append(_Item(per_wg[instr.uid], k, seg_idx))


def _emit_single(
    streams: Dict[str, List[_Item]],
    per_wg: Dict[int, Instr],
    seg_idx: int,
    segment: Segment,
) -> None:
    """Single-stream emission with multistage prefetch reordering.

    Copies that depend on same-iteration compute results (like the
    serialized B2 load of the modeled Triton Dual-GEMM) cannot be
    prefetched; they stay in program position.
    """
    prefetch = segment.pipeline - 1 if segment.is_loop else 0
    copies = [
        i for i in segment.instrs if i.role == "dma" and not i.deps
    ]
    compute = [i for i in segment.instrs if i not in copies]
    schedule_rows: List[Tuple[Instr, int]] = []
    if prefetch > 0:
        for k in range(min(prefetch, segment.extent)):
            for instr in copies:
                schedule_rows.append((instr, k))
        for k in range(segment.extent):
            fetch_iter = k + prefetch
            if fetch_iter < segment.extent:
                for instr in copies:
                    schedule_rows.append((instr, fetch_iter))
            for instr in compute:
                schedule_rows.append((instr, k))
    else:
        for k in range(segment.extent):
            for instr in segment.instrs:
                schedule_rows.append((instr, k))
    for instr, k in schedule_rows:
        if instr.role == "dma":
            # a single warp issues each block-wide copy
            streams["wg0"].append(_Item(instr, k, seg_idx))
        else:
            for items in streams.values():
                items.append(_Item(per_wg[instr.uid], k, seg_idx))


# ----------------------------------------------------------------------
# Dependence resolution
# ----------------------------------------------------------------------
def _expected_instances(
    streams: Dict[str, List[_Item]]
) -> Dict[_Key, int]:
    """How many stream instances each dynamic instruction has.

    A compute instruction replicated across N warpgroups only counts as
    complete once all N instances finish (the warpgroup barrier).
    """
    expected: Dict[_Key, int] = {}
    for items in streams.values():
        for item in items:
            key = (item.segment, item.iteration, item.instr.uid)
            expected[key] = expected.get(key, 0) + 1
    return expected


def _dep_keys(
    item: _Item, expected: Dict[_Key, int], home: Dict[int, Tuple[int, int]]
) -> List[_Key]:
    """The dynamic instructions ``item`` waits on: same-iteration deps,
    carried deps, then write-after-read consumers."""
    instr, segment, iteration = item.instr, item.segment, item.iteration
    keys = [(segment, iteration, dep) for dep in instr.deps]
    keys += [
        (segment, iteration - distance, dep)
        for dep, distance in instr.carried_deps
        if distance <= iteration
    ]
    if 0 < instr.war_distance <= iteration:
        target = iteration - instr.war_distance
        keys += [(segment, target, uid) for uid in instr.war_consumers]
    for position, key in enumerate(keys):
        if key not in expected:
            # The producer lives in another segment (loop-external
            # dependence): it completes once, at its own final instance.
            uid = key[2]
            if uid not in home or home[uid][0] == segment:
                raise SimulationError(
                    f"instruction depends on unknown uid {uid}"
                )
            keys[position] = (*home[uid], uid)
    return keys


def _deps_ready(
    waits: List[_Key], finished: Dict[_Key, float]
) -> Optional[float]:
    """Latest completion among a head's dependencies, or None if some
    dependency has not fully completed yet. A time, once returned, is
    final: every instance it was taken over has issued."""
    ready = 0.0
    for key in waits:
        time = finished.get(key)
        if time is None:
            return None
        if time > ready:
            ready = time
    return ready


def _blocked(
    name: str, item: _Item, waits: List[_Key], finished: Dict[_Key, float]
) -> str:
    """One deadlocked stream: its head and the first thing it waits on."""
    segment, iteration, uid = next(k for k in waits if k not in finished)
    return (
        f"{name} is at {item.instr.label or item.instr.kind!r} "
        f"(uid {item.instr.uid}, iteration {item.iteration}) waiting on "
        f"uid {uid} (segment {segment}, iteration {iteration})"
    )
