"""The lowering is the same function it was before it had two printers,
and the final IR carries everything it reads.

``tests/golden_schedules.json`` was recorded *before* the simulator
schedule and the CUDA text were printed from one lowered form
(``PYTHONPATH=src python tests/test_lowered_form.py`` re-records it —
only on a deliberate change to what is scheduled). For every case of
:func:`schedule_cases` it holds the instruction count and a SHA-256 of
:func:`schedule_form`: the whole ``KernelSchedule`` with uids taken out —
dependences and write-after-read consumers as instruction *positions*,
buffer names in labels by order of first appearance.

The recording commit is the parent of that change plus the allocator's
two total sort keys and nothing else. The parent itself has no single
answer where tiles of equal size alias (set-iteration order decides):
59 of the 206 cases read differently when the cases are compiled
forwards and backwards, 25 more agree both ways on another of the tied
orders than the keys pick, and the other 122 read the same with and
without the keys.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.compiler.passes import (
    CompileOptions, PassContext, PassManager,
)
from repro.compiler.pipeline import _block_instance
from repro.errors import CompileError
from repro.gpusim.gpu import simulate_kernel
from repro.ir import clone_function, print_function
from repro.kernels import KERNEL_BUILDERS
from repro.machine import ampere_machine, hopper_machine
from test_copy_elim_golden import default_buckets, renumbered

GOLDEN = Path(__file__).with_name("golden_schedules.json")
NO_CACHE = CompileOptions(cache=False)


def schedule_cases():
    """``(label, machine name, family, shape, builder params)``: every
    registered family's default buckets on both machines with warp
    specialization on and off, and pipeline depth 1-3 on GEMM and FA3."""
    out = []

    def add(machine, family, shape, params):
        dims = "x".join(f"{k}{v}" for k, v in shape.items())
        knobs = ",".join(f"{k}={params[k]}" for k in sorted(params))
        out.append((
            f"{family}@{machine}/{dims}/{knobs or 'default'}",
            machine, family, shape, params,
        ))

    for family, shape in default_buckets():
        for machine in ("hopper", "ampere"):
            add(machine, family, shape, {})
            add(machine, family, shape, dict(warpspecialize=False))
        if family in ("gemm", "flash_attention3"):
            for depth in (1, 2, 3):
                add("hopper", family, shape, dict(pipeline=depth))
    return out


def compile_case(machines, machine, family, shape, params):
    build = KERNEL_BUILDERS[family](machines[machine], **shape, **params)
    return api.compile_kernel(build, options=NO_CACHE)


def schedule_form(schedule):
    """A ``KernelSchedule`` as plain data with no uid in it."""
    position = {
        instr.uid: [s, i]
        for s, segment in enumerate(schedule.segments)
        for i, instr in enumerate(segment.instrs)
    }
    labels = renumbered(
        "\n".join(
            instr.label
            for segment in schedule.segments
            for instr in segment.instrs
        )
    ).split("\n")
    label = iter(labels)
    return dict(
        grid=schedule.grid,
        warpgroups=schedule.n_warpgroups,
        warpspecialized=schedule.warpspecialized,
        threads=schedule.threads_per_cta,
        smem=schedule.smem_bytes_per_cta,
        regs=schedule.regs_per_thread,
        metadata=schedule.metadata,
        segments=[
            dict(
                extent=segment.extent,
                pipeline=segment.pipeline,
                instrs=[
                    dict(
                        kind=instr.kind,
                        role=instr.role,
                        bytes=instr.bytes_moved,
                        flops=instr.flops,
                        sfu_ops=instr.sfu_ops,
                        label=next(label),
                        deps=[position.get(d) for d in instr.deps],
                        carried=[
                            [position.get(d), n]
                            for d, n in instr.carried_deps
                        ],
                        war_distance=instr.war_distance,
                        war_consumers=[
                            position.get(c) for c in instr.war_consumers
                        ],
                        issue=instr.issue_cycles,
                    )
                    for instr in segment.instrs
                ],
            )
            for segment in schedule.segments
        ],
    )


def digest(schedule):
    text = json.dumps(schedule_form(schedule), sort_keys=True)
    return dict(
        instrs=sum(len(segment.instrs) for segment in schedule.segments),
        sha=hashlib.sha256(text.encode()).hexdigest(),
    )


def compute_digests():
    machines = {"hopper": hopper_machine(), "ampere": ampere_machine()}
    return {
        label: digest(compile_case(machines, *case).schedule)
        for label, *case in schedule_cases()
    }


def test_every_schedule_matches_the_recorded_digest():
    golden = json.loads(GOLDEN.read_text())
    got = compute_digests()
    assert sorted(got) == sorted(golden)
    wrong = {k: (got[k], golden[k]) for k in golden if got[k] != golden[k]}
    assert not wrong, f"{len(wrong)} of {len(golden)} differ: {wrong}"
    assert len(golden) == 206


def _lower_again(kernel, build, fn, passes=("lower-schedule",)):
    """Run backend passes over ``fn`` the way the compile did."""
    ctx = PassContext(
        spec=build.spec,
        kernel_name=build.name,
        arg_shapes=build.arg_shapes,
        arg_dtypes=build.arg_dtypes,
        total_flops=build.total_flops,
        unique_dram_bytes=build.unique_dram_bytes,
        options=kernel.metadata["options"],
        block_mapping=_block_instance(build.spec),
    )
    PassManager(passes).run(fn, ctx)
    return ctx.artifacts


@pytest.mark.parametrize(
    "family, shape",
    [
        ("gemm", dict(m=2048, n=2048, k=2048)),
        ("flash_attention3", dict(heads=4, seq=1024, head_dim=128)),
    ],
)
def test_a_clone_of_the_final_ir_lowers_to_the_same_program(
    hopper, family, shape
):
    """Roles, pipeline depths and write-after-read edges are IR fields
    the clone copies; as undeclared attributes they were dropped, and
    the clone of the default GEMM ran 77,186 cycles, not 74,449."""
    build = KERNEL_BUILDERS[family](hopper, **shape)
    kernel = api.compile_kernel(build, options=NO_CACHE)
    clone = clone_function(kernel.final_ir)
    again = _lower_again(kernel, build, clone)["schedule"]
    assert [s.pipeline for s in again.segments] == [
        s.pipeline for s in kernel.schedule.segments
    ]
    assert schedule_form(again) == schedule_form(kernel.schedule)
    assert simulate_kernel(again, hopper) == simulate_kernel(
        kernel.schedule, hopper
    )
    # The clone's back-edges name the clone's own operations.
    ops = {id(op) for op in clone.walk()}
    consumers = [
        c for op in clone.walk() for c in getattr(op, "war_consumers", ())
    ]
    assert consumers and all(id(c) in ops for c in consumers)


def test_the_final_ir_prints_what_the_last_two_passes_decided(hopper):
    build = KERNEL_BUILDERS["gemm"](hopper, 512, 512, 256)
    kernel = api.compile_kernel(build, options=NO_CACHE)
    text = print_function(kernel.final_ir)
    assert text.count(" @dma") == kernel.warpspec.dma_ops == 3
    assert text.count(" pipe=3, {") == 1  # the main loop
    assert text.count(" war(3: e") == 2  # the A and B tile loads
    for name, offset in kernel.allocation.offsets.items():
        assert re.search(rf"buffer {name}#\d+ .*@shared.* \+{offset}\n", text)
    # Nothing is annotated before those passes ran.
    before = print_function(kernel.dependence_ir)
    assert not re.search(r"@dma| pipe=\d+, | war\(|@shared.* \+\d", before)


def test_codegen_cuda_without_the_lowering_names_the_missing_pass(hopper):
    build = KERNEL_BUILDERS["gemm"](hopper, 512, 512, 256)
    kernel = api.compile_kernel(build, options=NO_CACHE)
    with pytest.raises(CompileError, match="lower-schedule"):
        _lower_again(kernel, build, kernel.final_ir, ("codegen-cuda",))
    both = _lower_again(
        kernel, build, kernel.final_ir, ("lower-schedule", "codegen-cuda")
    )
    assert both["cuda_source"] == kernel.cuda_source


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n"
    )
