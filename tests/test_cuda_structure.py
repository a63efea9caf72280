"""The CUDA text says what the simulator timed.

Nothing here can compile the text, so it is checked structurally:
:func:`parse` accounts for every line of the device function and
recovers, per warp role and segment, the instruction stream (kind, call
name, slot index), each barrier's arrive and wait sites, the
shared-memory map and the launch shape; :func:`check` compares all of it
with the ``KernelSchedule`` (and allocation) of the same compile. Both
are printed from one lowered form, so a disagreement is a printer bug.
"""

import re

import pytest

from repro.machine import ampere_machine, hopper_machine
from test_lowered_form import compile_case, schedule_cases

MACHINES = {"hopper": hopper_machine(), "ampere": ampere_machine()}

_SMEM = re.compile(
    r"__shared__ \w+_t (\w+?)(?:\[(\d+)\])?\[[\d, ]+\];  // smem offset (\d+)$"
)
_BARRIER = re.compile(r"__shared__ cuda::barrier<\S+> (\w+)\[(\d+)\];")
_FOR = re.compile(
    r"for \(int (\w+) = 0; \1 < (\d+); \+\+\1\) \{"
    r"  // segment (\d+), software pipeline depth (\d+)$"
)
_WAR_WAIT = re.compile(
    r"if \((\w+) >= (\d+)\) (slot_free\[\d+\])\.wait\(\1 - \2\);$"
)
_WAIT = re.compile(r"(bar\[\d+\])\.wait\((\w+)\);$")
_ARRIVE = re.compile(r"((?:bar|slot_free)\[\d+\])\.arrive\(\);$")
_SLOT = r"&(\w+?)(?:\[(\w+) % (\d+)\])?, "
_STATEMENTS = (
    ("tma_load", re.compile(r"if \(elect_one_sync\(\)\) tma_load\(" + _SLOT)),
    ("cp_async", re.compile(r"cp_async\(" + _SLOT)),
    ("tma_store", re.compile(r"if \(elect_one_sync\(\)\) tma_store\(")),
    ("nop", re.compile(r"// nop: ")),
    ("copy", re.compile(r"copy\(.*\);  // (?P<kind>\w+)$")),
    ("tensor_core", re.compile(
        r"(?P<name>\w+)\(.*\);  // (?P<kind>\w+) -> tensor core$")),
    ("call", re.compile(r"(?P<name>\w+)\(.*\);  // (?P<kind>\w+)$")),
)
#: Lines that must surround a statement of that form, in order.
_BEFORE = {"tensor_core": ["warpgroup_arrive();"]}
_AFTER = {
    "tensor_core": ["warpgroup_commit_batch();", "warpgroup_wait<0>();"],
    "cp_async": ["cp_async_commit_group();", "cp_async_wait_group<0>();"],
}
_SYNCS = ("__syncwarp();", "named_barrier_wait();")


def parse(source):
    lines = [line.strip() for line in source.splitlines()]
    start = next(i for i, l in enumerate(lines) if l.startswith("__global__"))
    end = lines.index("}", start)
    while lines[end + 1] != "":
        end = lines.index("}", end + 1)
    out = dict(smem={}, barriers=[], roles={})
    role, segment, op = None, None, None
    waits, war_wait, pending = [], None, []
    body = iter(lines[start + 1:end])
    for line in body:
        if m := _SMEM.match(line):
            out["smem"][m[1]] = (int(m[2] or 1), int(m[3]))
        elif m := _BARRIER.match(line):
            out["barriers"] += [f"{m[1]}[{n}]" for n in range(int(m[2]))]
        elif line == "if (warp_role() == DMA_WARP) {":
            role = "dma"
        elif line == "} else {  // compute warpgroups":
            role = "compute"
        elif line == "}":
            segment = None
        elif (m := re.match(r"// segment (\d+)$", line)) or (
            m := _FOR.match(line)
        ):
            loop = m.re is _FOR
            segment = dict(
                number=int(m[3] if loop else m[1]),
                index=m[1] if loop else None,
                extent=int(m[2]) if loop else 1,
                pipeline=int(m[4]) if loop else 1,
                ops=[],
            )
            out["roles"].setdefault(role, []).append(segment)
        elif m := _WAR_WAIT.match(line):
            assert war_wait is None and m[1] == segment["index"]
            war_wait = (m[3], int(m[2]))
        elif m := _WAIT.match(line):
            waits.append((m[1], m[2]))
        elif line in _SYNCS or line in _BEFORE["tensor_core"]:
            pending.append(line)
        elif m := _ARRIVE.match(line):
            op["arrives"].append(m[1])
        else:
            for form, pattern in _STATEMENTS:
                if m := pattern.match(line):
                    break
            else:
                raise AssertionError(f"unrecognised line: {line!r}")
            want = _BEFORE.get(form, [])
            assert pending[len(pending) - len(want):] == want, line
            for expected in _AFTER.get(form, []):
                assert next(body) == expected, line
            groups = m.groupdict()
            op = dict(
                form=form,
                kind=groups.get("kind", form),
                name=groups.get("name"),
                slot=m.groups() if form in ("tma_load", "cp_async") else None,
                waits=waits, war_wait=war_wait, arrives=[],
            )
            segment["ops"].append(op)
            waits, war_wait, pending = [], None, []
    assert not (waits or war_wait or pending)
    launch = re.search(r"_kernel<<<(\d+), (\d+)>>>\(", source)
    out["launch"] = (int(launch[1]), int(launch[2]))
    return out


def _form_of(instr):
    if not instr.label.startswith("copy "):
        return "tensor_core" if instr.kind in ("wgmma", "mma_sync") else "call"
    return instr.kind if instr.kind in (
        "tma_load", "cp_async", "tma_store", "nop"
    ) else "copy"


def check(kernel):
    """Every structural fact of the text against the schedule."""
    schedule, text = kernel.schedule, parse(kernel.cuda_source)
    assert text["launch"] == (schedule.grid, schedule.threads_per_cta)
    shared = {
        re.sub(r"\W", "_", b.name): (b.pipeline_depth, b.smem_offset)
        for b in kernel.final_ir.buffers.values()
        if b.name in kernel.allocation.offsets
    }
    assert text["smem"] == shared
    assert sorted(text["roles"]) == (
        ["compute", "dma"] if schedule.warpspecialized else [None]
    )

    home = {  # instruction uid -> its segment
        instr.uid: s
        for s, segment in enumerate(schedule.segments)
        for instr in segment.instrs
    }
    arrives, waits, war_waits = {}, [], {}
    for role, segments in text["roles"].items():
        assert [seg["number"] for seg in segments] == list(
            range(len(schedule.segments))
        )
        for seg, timed in zip(segments, schedule.segments):
            assert (seg["extent"], seg["pipeline"]) == (
                timed.extent, timed.pipeline
            )
            mine = [
                i for i in timed.instrs
                if role is None or i.role == role
            ]
            assert [(o["form"], o["kind"]) for o in seg["ops"]] == [
                (_form_of(i), i.kind) for i in mine
            ]
            for op, instr in zip(seg["ops"], mine):
                if op["name"] is not None:
                    assert op["name"] == instr.label
                if op["slot"] is not None:
                    name, index, depth = op["slot"]
                    slots = text["smem"][name][0]
                    if seg["index"] is None or slots == 1:
                        assert index is None
                    else:
                        assert (index, int(depth)) == (seg["index"], slots)
                for name in op["arrives"]:
                    arrives.setdefault(name, []).append(instr.uid)
                for name, when in op["waits"]:
                    waits.append((name, when, instr.uid, seg))
                if op["war_wait"] is not None:
                    assert op["war_wait"][0] not in war_waits
                    war_waits[op["war_wait"][0]] = (
                        instr.uid, op["war_wait"][1]
                    )

    # Cross-role dependences: one barrier per producer, arrived on once
    # and waited on by exactly the instructions that depend on it, for
    # the iteration the simulator resolves the dependence to.
    role_of = {
        i.uid: i.role for seg in schedule.segments for i in seg.instrs
    }
    crossing = {
        (dep, i.uid)
        for seg in schedule.segments for i in seg.instrs for dep in i.deps
        if role_of[dep] != i.role
    }
    full = {n: uids for n, uids in arrives.items() if n.startswith("bar")}
    assert all(len(uids) == 1 for uids in full.values())
    assert {(full[n][0], uid) for n, _, uid, _ in waits} == crossing
    assert len(waits) == len(crossing)
    for name, when, uid, seg in waits:
        produced_in = home[full[name][0]]
        if produced_in == seg["number"]:
            assert when == (seg["index"] or "0")
        else:
            assert when == str(schedule.segments[produced_in].extent - 1)

    # Pipelining back-edges: one slot-free barrier per pipelined copy,
    # waited on at its distance, released by each of its consumers.
    war = {
        i.uid: (sorted(i.war_consumers), i.war_distance)
        for seg in schedule.segments for i in seg.instrs if i.war_consumers
    }
    assert {
        copy: (sorted(arrives[name]), distance)
        for name, (copy, distance) in war_waits.items()
    } == war
    assert sorted(text["barriers"]) == sorted([*full, *war_waits])
    return text


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_the_text_matches_the_schedule(machine):
    checked = 0
    for label, where, *case in schedule_cases():
        if where == machine:
            try:
                check(compile_case(MACHINES, where, *case))
            except AssertionError as error:
                raise AssertionError(f"{label}: {error}") from error
            checked += 1
    assert checked == {"hopper": 124, "ampere": 82}[machine]


# ----------------------------------------------------------------------
# The five ways the two walks used to disagree, one assertion each
# ----------------------------------------------------------------------
def _gemm(machine, **params):
    shape = dict(m=512, n=512, k=256)
    return compile_case(MACHINES, machine, "gemm", shape, params)


def _ops(text, role):
    return [op for seg in text["roles"][role] for op in seg["ops"]]


def _kinds(kernel):
    return [i.kind for seg in kernel.schedule.segments for i in seg.instrs]


def test_ampere_text_issues_the_cp_async_the_schedule_runs():
    kernel = _gemm("ampere")
    assert _kinds(kernel).count("cp_async") == 2
    assert "tma_load(" not in kernel.cuda_source
    assert kernel.cuda_source.count("cp_async(") == 2


def test_slots_are_indexed_by_the_loop_variable_and_only_inside_loops():
    kernel = compile_case(
        MACHINES, "hopper", "flash_attention3",
        dict(heads=1, seq=256, head_dim=128), {},
    )
    source = kernel.cuda_source
    assert "[k %" not in source
    loop = re.search(r"for \(int (\w+) = 0;", source)[1]
    assert set(re.findall(r"\[(\w+) % \d+\]", source)) == {loop}
    before_loop = source[:source.index("for (int")]
    assert "tma_load(" in before_loop and "%" not in before_loop


def test_pipelined_copies_wait_for_their_slot_to_be_free():
    kernel = _gemm("hopper", pipeline=3)
    text = check(kernel)
    loads = [op for op in _ops(text, "dma") if op["form"] == "tma_load"]
    assert [op["war_wait"][1] for op in loads] == [3, 3]
    mma = next(o for o in _ops(text, "compute") if o["form"] == "tensor_core")
    assert sorted(mma["arrives"]) == sorted(op["war_wait"][0] for op in loads)


def test_a_loops_own_preconditions_are_waited_on_inside_it():
    kernel = _gemm("hopper")
    text = check(kernel)
    dma_loop = text["roles"]["dma"][1]
    entry = {
        name for op in dma_loop["ops"] for name, when in op["waits"]
    }
    released_before_the_loop = {
        name for op in text["roles"]["compute"][0]["ops"]
        for name in op["arrives"]
    }
    assert entry and entry <= released_before_the_loop


def test_staging_copies_are_printed_as_copies():
    kernel = _gemm("hopper")
    assert "smem_copy" in _kinds(kernel)
    assert "// logical copy" not in kernel.cuda_source
    staged = [
        op for op in _ops(check(kernel), "compute")
        if (op["form"], op["kind"]) == ("copy", "smem_copy")
    ]
    assert len(staged) == _kinds(kernel).count("smem_copy")
