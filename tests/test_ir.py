"""Tests for the event IR: events, ops, printer, verifier."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import IRError, VerificationError
from repro.ir import (
    BROADCAST,
    Block,
    Buffer,
    CopyOp,
    Event,
    EventDim,
    EventUse,
    ForOp,
    IRFunction,
    PForOp,
    print_function,
    verify_function,
)
from repro.machine import hopper_machine
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.numbering import fresh_numbering, next_number
from repro.sym import Const, Var
from repro.tensors import LogicalTensor, f16


def _fn_with_buffers():
    fn = IRFunction("test", hopper_machine())
    a = fn.add_param("A", (8, 8), f16)
    b = fn.add_buffer("B", (8, 8), f16, MemoryKind.SHARED)
    return fn, a, b


class TestEvents:
    def test_unit_event(self):
        e = Event()
        assert e.is_unit
        assert e.use().indices == ()

    def test_array_event_indexing(self):
        e = Event((EventDim(4, ProcessorKind.WARP),))
        use = e.use(Const(2))
        assert BROADCAST not in use.indices
        all_use = e.use_all()
        assert all_use.indices == (BROADCAST,)
        assert all_use.broadcast_dims[0].proc is ProcessorKind.WARP

    def test_index_arity_checked(self):
        e = Event((EventDim(4, ProcessorKind.WARP),))
        with pytest.raises(IRError):
            e.use()

    def test_use_equality(self):
        e = Event((EventDim(4, ProcessorKind.WARP),))
        assert e.use(Const(1)) == e.use(Const(1))
        assert e.use(Const(1)) != e.use(BROADCAST)


class TestOps:
    def test_copy_shape_check(self):
        fn, a, b = _fn_with_buffers()
        with pytest.raises(IRError):
            CopyOp(a.ref(), fn.add_buffer(
                "C", (4, 4), f16, MemoryKind.SHARED).ref())

    def test_copy_produces_unit_event(self):
        fn, a, b = _fn_with_buffers()
        copy = CopyOp(a.ref(), b.ref())
        assert copy.result.is_unit
        assert copy.result.producer is copy

    def test_pfor_produces_array_event(self):
        loop = PForOp(Var("i"), 4, ProcessorKind.WARP)
        assert loop.result.type == (EventDim(4, ProcessorKind.WARP),)

    def test_block_walk_recurses(self):
        fn, a, b = _fn_with_buffers()
        loop = ForOp(Var("k"), 2)
        loop.body.append(CopyOp(a.ref(), b.ref()))
        block = Block([loop])
        assert len(list(block.walk())) == 2


class TestNumbering:
    def test_outside_a_compile_the_numbering_never_restarts(self):
        before = LogicalTensor("x", (1,), f16).uid
        with fresh_numbering():
            assert LogicalTensor("x", (1,), f16).uid == 0
        assert LogicalTensor("x", (1,), f16).uid > before

    def test_threads_share_one_process_numbering_and_own_fresh_ones(self):
        def draw(fresh):
            if not fresh:
                return [next_number("op") for _ in range(2000)]
            with fresh_numbering():
                return [next_number("op") for _ in range(2000)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                runs = list(pool.map(draw, [True, False] * 4, timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert all(run == list(range(2000)) for run in runs[0::2])
        shared = [n for run in runs[1::2] for n in run]
        assert len(set(shared)) == len(shared) == 8000


class TestVerifier:
    def test_valid_function(self):
        fn, a, b = _fn_with_buffers()
        c1 = CopyOp(a.ref(), b.ref())
        fn.body.append(c1)
        c2 = CopyOp(b.ref(), a.ref(), preconds=[c1.result.use()])
        fn.body.append(c2)
        verify_function(fn)

    def test_use_before_def_rejected(self):
        fn, a, b = _fn_with_buffers()
        c2 = CopyOp(b.ref(), a.ref())
        c1 = CopyOp(a.ref(), b.ref(), preconds=[c2.result.use()])
        fn.body.append(c1)
        fn.body.append(c2)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_undeclared_buffer_rejected(self):
        fn, a, b = _fn_with_buffers()
        rogue = Buffer(LogicalTensor("rogue", (8, 8), f16), MemoryKind.SHARED)
        fn.body.append(CopyOp(a.ref(), rogue.ref()))
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_a_number_from_another_numbering_declares_nothing(self):
        with fresh_numbering():
            fn, a, b = _fn_with_buffers()
        with fresh_numbering():
            twin = LogicalTensor("A", (8, 8), f16)
        assert twin.uid == a.tensor.uid and twin != a.tensor
        fn.body.append(CopyOp(twin.ref(), b.ref()))
        with pytest.raises(VerificationError, match="declared buffer"):
            verify_function(fn)

    def test_out_of_scope_loop_var_rejected(self):
        from repro.tensors.partition import partition_by_blocks

        fn, a, b = _fn_with_buffers()
        p = partition_by_blocks(a.ref(), (4, 8))
        fn.body.append(CopyOp(p[Var("zz"), 0], fn.add_buffer(
            "D", (4, 8), f16, MemoryKind.SHARED).ref()))
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_constant_event_index_bounds(self):
        fn, a, b = _fn_with_buffers()
        loop = PForOp(Var("i"), 4, ProcessorKind.WARP)
        loop.body.append(CopyOp(a.ref(), b.ref()))
        loop.body.yield_use = loop.body.ops[0].result.use()
        fn.body.append(loop)
        bad = CopyOp(b.ref(), a.ref(), preconds=[loop.result.use(Const(7))])
        fn.body.append(bad)
        with pytest.raises(VerificationError):
            verify_function(fn)


class TestPrinter:
    def test_prints_events_and_buffers(self):
        fn, a, b = _fn_with_buffers()
        c1 = CopyOp(a.ref(), b.ref())
        fn.body.append(c1)
        text = print_function(fn)
        assert "param" in text
        assert "copy(" in text
        assert c1.result.name in text

    def test_prints_loops(self):
        fn, a, b = _fn_with_buffers()
        loop = ForOp(Var("k"), 3)
        loop.body.append(CopyOp(a.ref(), b.ref()))
        fn.body.append(loop)
        text = print_function(fn)
        assert "for k in [0, 3)" in text


class TestCloneFunction:
    """The pre-pass snapshot clone used by ``compile_program``."""

    def _looped_fn(self):
        fn, a, b = _fn_with_buffers()
        c1 = CopyOp(a.ref(), b.ref())
        fn.body.append(c1)
        loop = PForOp(
            Var("i"), 4, ProcessorKind.WARP, preconds=[c1.result.use()]
        )
        loop.body.append(CopyOp(b.ref(), a.ref()))
        loop.body.yield_use = loop.body.ops[0].result.use()
        fn.body.append(loop)
        fn.body.append(
            CopyOp(b.ref(), a.ref(), preconds=[loop.result.use_all()])
        )
        return fn, a, b

    def test_clone_verifies_and_prints_identically(self):
        from repro.ir import clone_function

        fn, _, _ = self._looped_fn()
        clone = clone_function(fn)
        verify_function(clone)
        assert len(list(clone.walk())) == len(list(fn.walk()))

    def test_event_identities_are_remapped(self):
        from repro.ir import clone_function

        fn, _, _ = self._looped_fn()
        clone = clone_function(fn)
        originals = {id(op.result) for op in fn.walk() if op.result}
        for op in clone.walk():
            if op.result is not None:
                assert id(op.result) not in originals
            for use in op.preconds:
                assert id(use.event) not in originals

    def test_pass_mutations_do_not_leak_into_snapshot(self):
        from repro.ir import clone_function
        from repro.ir.events import EventDim

        fn, a, b = self._looped_fn()
        snapshot = clone_function(fn)
        # Mutations of the kinds passes perform on the working copy:
        fn.buffers[b.tensor.uid].pipeline_depth = 3
        first = fn.body.ops[0]
        first.preconds = [fn.body.ops[1].result.use_all()]
        first.result.type = (EventDim(2, ProcessorKind.WARP),)
        assert snapshot.buffers[b.tensor.uid].pipeline_depth == 1
        assert snapshot.body.ops[0].preconds == []
        assert snapshot.body.ops[0].result.is_unit
