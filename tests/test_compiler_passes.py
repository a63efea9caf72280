"""Tests for the compiler passes on the real GEMM program.

Each pass is checked through its observable contract on the Figure-5
GEMM: dependence analysis produces the copy-in/copy-out event graph,
vectorization flattens every intra-block pfor and records extents, copy
elimination leaves only physical data movements, allocation respects the
shared-memory bound and aliases disjoint live ranges, and warp
specialization assigns global<->shared copies to the DMA role with
multi-buffered destinations.
"""

import itertools

import pytest

from repro.compiler import allocation
from repro.compiler.allocation import allocate_shared
from repro.compiler.copy_elim import eliminate_copies
from repro.compiler.dependence import DependenceAnalysis
from repro.compiler.vectorize import vectorize
from repro.compiler.warpspec import DMA, specialize_warps
from repro.errors import AllocationError, CompileError, PrivilegeError
from repro.ir.events import BROADCAST
from repro.ir.module import IRFunction
from repro.ir.ops import CallOp, CopyOp, ForOp, PForOp
from repro.ir.verifier import verify_function
from repro.kernels import KERNEL_BUILDERS
from repro.kernels.gemm import build_gemm
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind, is_intra_block
from repro.sym import Var
from repro.tensors import f16


@pytest.fixture(scope="module")
def machine():
    from repro.machine import hopper_machine

    return hopper_machine()


@pytest.fixture(scope="module")
def small_build(machine):
    return build_gemm(
        machine, 256, 256, 128, tile_m=128, tile_n=256, tile_k=64
    )


def _ops(fn, op_type):
    return [op for op in fn.walk() if isinstance(op, op_type)]


def _dependence_ir(build):
    fn = DependenceAnalysis(build.spec, build.name).run(
        build.arg_shapes, build.arg_dtypes
    )
    verify_function(fn)
    return fn


class TestDependenceAnalysis:
    def test_grid_pfor_structure(self, small_build):
        fn = _dependence_ir(small_build)
        grid = [
            op
            for op in fn.body.ops
            if isinstance(op, PForOp) and op.proc is ProcessorKind.BLOCK
        ]
        assert len(grid) == 1
        assert grid[0].extent == 2  # 256 / 128 row tiles

    def test_copy_in_copy_out_discipline(self, small_build):
        fn = _dependence_ir(small_build)
        copies = _ops(fn, CopyOp)
        # every launch introduced fresh-allocation copies
        assert len(copies) > 10

    def test_k_loop_present(self, small_build):
        fn = _dependence_ir(small_build)
        loops = _ops(fn, ForOp)
        assert any(loop.extent == 2 for loop in loops)  # K / 64

    def test_wgmma_leaf_reached(self, small_build):
        fn = _dependence_ir(small_build)
        calls = _ops(fn, CallOp)
        assert any(c.function == "wgmma_f16" for c in calls)

    def test_broadcast_preconditions_after_pfor(self, small_build):
        fn = _dependence_ir(small_build)
        found = False
        for op in fn.walk():
            for use in op.preconds:
                if BROADCAST in use.indices:
                    found = True
        assert found, "pfor completions must be consumed via broadcast"

    def test_privilege_violation_detected(self, machine):
        """A read-only task launching a writer must be rejected."""
        from repro.frontend import (
            Inner,
            Leaf,
            MappingSpec,
            TaskMapping,
            TaskRegistry,
            call_external,
            external_function,
            launch,
            task,
            use_registry,
        )

        reg = TaskRegistry()
        with use_registry(reg):
            @external_function("w", cost_kind="simt")
            def w(x):
                x[...] = 0

            @task("writer", Leaf, writes=["x"])
            def writer_leaf(x):
                call_external("w", x)

            @task("reader", Inner, reads=["x"])
            def reader_inner(x):
                launch("writer", x)

        spec = MappingSpec(
            [
                TaskMapping(
                    instance="reader",
                    variant="reader_inner",
                    proc=ProcessorKind.HOST,
                    mems=(MemoryKind.GLOBAL,),
                    entrypoint=True,
                    calls=("writer",),
                ),
                TaskMapping(
                    instance="writer",
                    variant="writer_leaf",
                    proc=ProcessorKind.BLOCK,
                    mems=(MemoryKind.GLOBAL,),
                ),
            ],
            reg,
            machine,
        )
        with pytest.raises(PrivilegeError):
            DependenceAnalysis(spec, "bad").run([(64, 64)], [f16])


class TestVectorize:
    def test_no_intra_block_pfors_left(self, small_build):
        fn = _dependence_ir(small_build)
        vectorize(fn)
        verify_function(fn)
        for op in fn.walk():
            if isinstance(op, PForOp):
                assert not is_intra_block(op.proc)

    def test_proc_extents_recorded(self, small_build):
        fn = _dependence_ir(small_build)
        vectorize(fn)
        extents = fn.metadata["proc_extents"]
        assert extents["warpgroup"] == 2
        assert extents["warp"] == 4
        assert extents["thread"] == 32

    def test_events_promoted(self, small_build):
        fn = _dependence_ir(small_build)
        vectorize(fn)
        promoted = [
            op.result
            for op in fn.walk()
            if op.result is not None and op.result.rank >= 3
        ]
        assert promoted, "thread-level ops must have 3-d event arrays"

    def test_a_used_event_of_a_pfor_that_yields_nothing_is_rejected(
        self, machine
    ):
        fn = IRFunction("no_yield", machine)
        a = fn.add_param("A", (8, 8), f16)
        b = fn.add_buffer("B", (8, 8), f16, MemoryKind.SHARED)
        loop = PForOp(Var("i"), 4, ProcessorKind.WARP)
        loop.body.append(CopyOp(a.ref(), b.ref()))
        fn.body.append(loop)
        fn.body.append(
            CopyOp(b.ref(), a.ref(), preconds=[loop.result.use_all()])
        )
        with pytest.raises(
            CompileError, match="pfor over WARP yields nothing but its event"
        ):
            vectorize(fn)

    def test_an_unused_event_of_a_pfor_that_yields_nothing_is_dropped(
        self, machine
    ):
        fn = IRFunction("no_yield", machine)
        a = fn.add_param("A", (8, 8), f16)
        b = fn.add_buffer("B", (8, 8), f16, MemoryKind.SHARED)
        loop = PForOp(Var("i"), 4, ProcessorKind.WARP)
        loop.body.append(CopyOp(a.ref(), b.ref()))
        fn.body.append(loop)
        vectorize(fn)
        assert [type(op) for op in fn.body.ops] == [CopyOp]


class TestCopyElimination:
    def _final(self, build):
        fn = _dependence_ir(build)
        vectorize(fn)
        eliminate_copies(fn)
        verify_function(fn)
        return fn

    def test_no_global_to_global_copies(self, small_build):
        fn = self._final(small_build)
        for op in _ops(fn, CopyOp):
            src = fn.buffers[op.src.root.uid].memory
            dst = fn.buffers[op.dst.root.uid].memory
            assert not (
                src is MemoryKind.GLOBAL and dst is MemoryKind.GLOBAL
            ), f"renaming copy survived: {op!r}"

    def test_tma_loads_remain_in_loop(self, small_build):
        fn = self._final(small_build)
        loops = _ops(fn, ForOp)
        k_loop = loops[0]
        tma = [
            op
            for op in k_loop.body.ops
            if isinstance(op, CopyOp)
            and fn.buffers[op.src.root.uid].memory is MemoryKind.GLOBAL
            and fn.buffers[op.dst.root.uid].memory is MemoryKind.SHARED
        ]
        assert len(tma) == 2  # one A tile, one B tile

    def test_accumulator_hoisted_out_of_loop(self, small_build):
        """Spill hoisting must move the register round trip out."""
        fn = self._final(small_build)
        k_loop = _ops(fn, ForOp)[0]
        for op in k_loop.body.ops:
            if isinstance(op, CopyOp):
                src = fn.buffers[op.src.root.uid].memory
                dst = fn.buffers[op.dst.root.uid].memory
                assert MemoryKind.REGISTER not in (src, dst), (
                    "per-iteration register spill survived hoisting"
                )

    def test_copy_count_reduced(self, small_build):
        before = _dependence_ir(small_build)
        n_before = len(_ops(before, CopyOp))
        fn = self._final(small_build)
        n_after = len(_ops(fn, CopyOp))
        assert n_after < n_before / 2


class TestAllocation:
    def _prepared(self, build):
        fn = _dependence_ir(build)
        vectorize(fn)
        eliminate_copies(fn)
        return fn

    def test_fits_machine_bound(self, small_build, machine):
        fn = self._prepared(small_build)
        report = allocate_shared(fn)
        assert report.total_bytes <= report.limit_bytes
        assert report.registers_per_thread > 0

    def test_offsets_respect_interference(self, small_build):
        fn = self._prepared(small_build)
        report = allocate_shared(fn)
        buffers = fn.buffers_in_memory(MemoryKind.SHARED)
        # A and B tiles are live simultaneously: must not overlap.
        offsets = report.offsets
        named = {b.name: b for b in buffers}
        a_name = next(n for n in offsets if n.startswith("A_gemm"))
        b_name = next(n for n in offsets if n.startswith("B_gemm"))
        size = {
            name: named[name].tensor.size_bytes * named[name].pipeline_depth
            for name in (a_name, b_name)
        }
        a0, a1 = offsets[a_name], offsets[a_name] + size[a_name]
        b0 = offsets[b_name]
        assert b0 >= a1 or b0 + size[b_name] <= a0

    def test_impossible_allocation_raises(self, small_build):
        fn = self._prepared(small_build)
        with pytest.raises(AllocationError):
            allocate_shared(fn, limit_bytes=1024)

    @pytest.mark.parametrize(
        "family, shape, pairs",
        [
            ("gemm", dict(m=4096, n=4096, k=4096), 0),
            ("flash_attention3", dict(heads=16, seq=4096, head_dim=128), 1),
        ],
    )
    def test_walks_do_not_grow_with_aliased_pairs(
        self, machine, monkeypatch, family, shape, pairs
    ):
        """Complexity guard: two ``live_buffers`` reads plus the
        liveness walk, which also finds each buffer's last user and
        first writer for the WAR edges of every aliased pair."""
        fn = self._prepared(KERNEL_BUILDERS[family](machine, **shape))
        walk = IRFunction.walk
        calls = []
        monkeypatch.setattr(
            IRFunction, "walk", lambda self: calls.append(1) or walk(self)
        )
        report = allocate_shared(fn)
        assert len(report.aliased_pairs) == pairs
        assert len(calls) == 3


#: The default build of every registered family at its 4096 paper point.
PAPER_4096 = [
    ("gemm", dict(m=4096, n=4096, k=4096)),
    ("batched_gemm", dict(batch=4, m=4096, n=4096, k=4096)),
    ("dual_gemm", dict(m=4096, n=4096, k=4096)),
    ("gemm_reduction", dict(m=4096, n=4096, k=4096)),
    ("flash_attention2", dict(heads=16, seq=4096, head_dim=128)),
    ("flash_attention3", dict(heads=16, seq=4096, head_dim=128)),
]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: shared memory is allocated before "
    "warp specialization multi-buffers it, so a pipelined ring runs "
    "over its neighbour",
)
@pytest.mark.parametrize(
    "family, shape", PAPER_4096, ids=[family for family, _ in PAPER_4096]
)
def test_live_shared_buffers_share_no_bytes_unless_aliased(
    machine, family, shape
):
    """Gate 1 of ROADMAP item 1, over the final IR: two shared buffers
    live at the same time share no byte (``smem_offset`` plus the
    footprint after ``warp-specialize``) unless the allocator recorded
    them as an aliased pair."""
    from repro import api

    fn = api.compile_kernel(KERNEL_BUILDERS[family](machine, **shape)).final_ir
    buffers = fn.buffers_in_memory(MemoryKind.SHARED)
    intervals, _, _ = allocation._live_intervals(fn, buffers)
    aliased = {
        frozenset(pair) for pair in fn.metadata["allocation"].aliased_pairs
    }
    overlapping = []
    for a, b in itertools.combinations(buffers, 2):
        if not allocation._overlaps(
            intervals[a.tensor.uid], intervals[b.tensor.uid]
        ):
            continue
        a_end = a.smem_offset + allocation._footprint(a)
        b_end = b.smem_offset + allocation._footprint(b)
        if a.smem_offset < b_end and b.smem_offset < a_end:
            if frozenset((a.name, b.name)) not in aliased:
                overlapping.append((a.name, b.name))
    assert not overlapping


class TestWarpSpecialization:
    def _prepared(self, build):
        fn = _dependence_ir(build)
        vectorize(fn)
        eliminate_copies(fn)
        allocate_shared(fn)
        return fn

    def test_dma_role_assignment(self, small_build):
        fn = self._prepared(small_build)
        report = specialize_warps(fn, enabled=True, pipeline_depth=3)
        assert report.dma_ops >= 2
        assert report.compute_ops > 0
        _, body = fn.grid_and_body()
        for op in body.walk():
            if isinstance(op, CopyOp):
                src = fn.buffers[op.src.root.uid].memory
                dst = fn.buffers[op.dst.root.uid].memory
                if src is MemoryKind.GLOBAL and dst is MemoryKind.SHARED:
                    assert op.role == DMA

    def test_pipelined_buffers_multibuffered(self, small_build):
        fn = self._prepared(small_build)
        specialize_warps(fn, enabled=True, pipeline_depth=3)
        shared = fn.buffers_in_memory(MemoryKind.SHARED)
        pipelined = [b for b in shared if b.pipeline_depth == 3]
        assert len(pipelined) == 2  # the A and B tiles

    def test_backward_war_edges_recorded(self, small_build):
        fn = self._prepared(small_build)
        specialize_warps(fn, enabled=True, pipeline_depth=3)
        k_loop = _ops(fn, ForOp)[0]
        dma_copies = [
            op
            for op in k_loop.body.ops
            if isinstance(op, CopyOp) and getattr(op, "role", "") == DMA
        ]
        for copy in dma_copies:
            assert copy.war_distance == 3
            assert copy.war_consumers

    def test_disabled_means_all_compute(self, small_build):
        fn = self._prepared(small_build)
        report = specialize_warps(fn, enabled=False, pipeline_depth=1)
        assert report.dma_ops == 0
