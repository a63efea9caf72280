"""Differential oracle for ``gpusim.executor.simulate_cta``.

``reference_cta`` is the executor as it was before it cached anything,
written as plainly as possible: build the streams, then at every step
resolve *every* stream head from scratch — each dependence by looking
its completion up, a loop-external one by searching the other segments
— and issue the head that can start earliest (first stream wins a tie).
``simulate_cta`` must agree with it field for field, or raise the same
error class, on drawn schedules and on every schedule the compiler
emits for the paper points and the registered default buckets.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro import api
from repro.errors import SimulationError
from repro.gpusim import Instr, KernelSchedule, Segment
from repro.gpusim.engine import ResourcePool
from repro.gpusim.executor import simulate_cta
from repro.gpusim.kernel import INSTR_KINDS
from repro.gpusim.roofline import roofline
from repro.kernels import KERNEL_BUILDERS

from test_copy_elim_golden import cases


# ----------------------------------------------------------------------
# The naive reference
# ----------------------------------------------------------------------
def _reference_streams(schedule):
    """name -> [(instr as costed on that stream, segment, iteration)]."""
    n = schedule.n_warpgroups
    streams = {f"wg{i}": [] for i in range(n)}
    if schedule.warpspecialized:
        streams["dma"] = []
    for seg_idx, seg in enumerate(schedule.segments):
        ahead = seg.pipeline - 1 if seg.extent > 1 else 0
        if schedule.warpspecialized or ahead == 0:
            rows = [(i, k) for k in range(seg.extent) for i in seg.instrs]
        else:
            # Single stream: dependence-free copies run ``ahead``
            # iterations early (multistage prefetch).
            early = [i for i in seg.instrs if i.role == "dma" and not i.deps]
            rest = [i for i in seg.instrs if i not in early]
            rows = [(i, k) for k in range(min(ahead, seg.extent)) for i in early]
            for k in range(seg.extent):
                if k + ahead < seg.extent:
                    rows += [(i, k + ahead) for i in early]
                rows += [(i, k) for i in rest]
        for instr, k in rows:
            if instr.role == "dma":
                name = "dma" if schedule.warpspecialized else "wg0"
                streams[name].append((instr, seg_idx, k))
                continue
            share = instr if n == 1 else replace(
                instr, bytes_moved=instr.bytes_moved // n,
                flops=instr.flops / n, sfu_ops=instr.sfu_ops / n,
            )
            for wg in range(n):
                streams[f"wg{wg}"].append((share, seg_idx, k))
    return streams


def reference_cta(schedule, roof):
    """``(cycles, busy, stream_cycles, dynamic_instructions)``."""
    pool = ResourcePool(roof)
    streams = _reference_streams(schedule)
    expected, counts, completion = {}, {}, {}
    for items in streams.values():
        for instr, seg, k in items:
            expected[seg, k, instr.uid] = expected.get((seg, k, instr.uid), 0) + 1

    def done_at(seg, k, uid):
        if (seg, k, uid) not in expected:
            others = [
                (index, other.extent - 1)
                for index, other in enumerate(schedule.segments)
                if index != seg and any(i.uid == uid for i in other.instrs)
            ]
            if not others:
                raise SimulationError(f"unknown uid {uid}")
            seg, k = others[0]
        if counts.get((seg, k, uid), 0) < expected[seg, k, uid]:
            return None
        return completion[seg, k, uid]

    def ready_at(instr, seg, k):
        waits = [(k, dep) for dep in instr.deps]
        waits += [(k - d, dep) for dep, d in instr.carried_deps if k - d >= 0]
        if instr.war_distance > 0 and k - instr.war_distance >= 0:
            waits += [(k - instr.war_distance, c) for c in instr.war_consumers]
        ready = 0.0
        for target, uid in waits:
            time = done_at(seg, target, uid)
            if time is None:
                return None
            ready = max(ready, time)
        return ready

    clock = {name: 0.0 for name in streams}
    cursor = {name: 0 for name in streams}
    dynamic = sum(len(items) for items in streams.values())
    for _ in range(dynamic):
        best = None
        for name, items in streams.items():
            if cursor[name] == len(items):
                continue
            ready = ready_at(*items[cursor[name]])
            if ready is None:
                continue
            start = max(clock[name], ready)
            if best is None or start < best[0]:
                best = (start, name)
        if best is None:
            raise SimulationError("deadlock")
        start, name = best
        instr, seg, k = streams[name][cursor[name]]
        issue = pool.issue_cycles(instr.kind, instr.bytes_moved)
        finish = pool.completion(instr.kind, start + issue, instr)
        blocking = instr.kind in (
            "simt", "sfu", "smem_copy", "ld_global", "st_global"
        )
        clock[name] = finish if blocking else start + issue
        key = (seg, k, instr.uid)
        completion[key] = max(completion.get(key, 0.0), finish)
        counts[key] = counts.get(key, 0) + 1
        cursor[name] += 1
    cycles = max([*clock.values(), *completion.values(), 0.0])
    return cycles, pool.busy_times(), clock, dynamic


def _outcome(simulate, schedule, roof):
    try:
        result = simulate(schedule, roof)
    except SimulationError:
        return SimulationError
    if simulate is simulate_cta:
        return (
            result.cycles, result.busy, result.stream_cycles,
            result.dynamic_instructions,
        )
    return result


def assert_agrees(schedule, machine):
    roof = roofline(machine)
    want = _outcome(reference_cta, schedule, roof)
    assert _outcome(simulate_cta, schedule, roof) == want
    return want


# ----------------------------------------------------------------------
# Drawn schedules
# ----------------------------------------------------------------------
@st.composite
def schedules(draw):
    """Small schedules: 1-4 segments of 1-4 instructions, extents 1-6,
    warp-specialized or single-stream with pipeline 1-3, 1-3 warpgroups,
    same-iteration, carried, write-after-read and cross-segment
    dependences. Most draws are live; one edge in ten may point anywhere
    (a later instruction, a later segment, a uid that does not exist),
    so deadlocks and dangling dependences are drawn too."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    uids = iter(range(1, 100))
    layout = [[next(uids) for _ in range(size)] for size in sizes]
    everything = [uid for seg in layout for uid in seg] + [99]
    segments = []
    for seg_idx, seg_uids in enumerate(layout):
        earlier = [uid for seg in layout[:seg_idx] for uid in seg]
        instrs = []
        for position, uid in enumerate(seg_uids):
            def edges(pool, max_size=2):
                if draw(st.integers(0, 9)) == 0:
                    pool = everything
                if not pool:
                    return []
                return draw(st.lists(
                    st.sampled_from(pool), max_size=max_size, unique=True
                ))

            war_distance = draw(st.integers(0, 3))
            instrs.append(Instr(
                uid=uid,
                kind=draw(st.sampled_from(INSTR_KINDS)),
                role=draw(st.sampled_from(("dma", "compute"))),
                bytes_moved=draw(st.sampled_from((0, 48, 4096, 32768))),
                flops=draw(st.sampled_from((0.0, 1.0e3, 3.0e6))),
                sfu_ops=draw(st.sampled_from((0.0, 512.0))),
                deps=edges(seg_uids[:position] + earlier),
                carried_deps=[
                    (dep, draw(st.integers(1, 3))) for dep in edges(seg_uids)
                ],
                war_distance=war_distance,
                war_consumers=edges(seg_uids) if war_distance else [],
            ))
        segments.append(Segment(
            instrs,
            extent=draw(st.integers(1, 6)),
            pipeline=draw(st.integers(1, 3)),
        ))
    return KernelSchedule(
        name="drawn", segments=segments, grid=1,
        n_warpgroups=draw(st.integers(1, 3)),
        warpspecialized=draw(st.booleans()),
        smem_bytes_per_cta=0, regs_per_thread=32,
        total_flops=1.0, unique_dram_bytes=1.0,
    )


def test_drawn_schedules_agree_with_the_reference(hopper):
    seen = {"ran": 0, "raised": 0}

    @settings(max_examples=600)
    @given(schedule=schedules())
    def check(schedule):
        want = assert_agrees(schedule, hopper)
        seen["raised" if want is SimulationError else "ran"] += 1

    check()
    # The strategy reaches both sides.
    assert seen["ran"] >= 300 and seen["raised"] >= 20, seen


# ----------------------------------------------------------------------
# Every schedule the compiler emits for the fixed cases
# ----------------------------------------------------------------------
def test_compiled_schedules_agree_with_the_reference(hopper, ampere):
    """The 20 paper points, the registered default buckets and the
    small numeric cases, on Hopper and (gemm families) Ampere."""
    machines = {"hopper": hopper, "ampere": ampere}
    paper = 0
    for label, machine, family, shape, params in cases():
        target = machines[machine]
        kernel = api.compile_kernel(
            KERNEL_BUILDERS[family](target, **shape, **params)
        )
        want = assert_agrees(kernel.schedule, target)
        assert want is not SimulationError, label
        paper += label.startswith("paper:")
    assert paper == 20
