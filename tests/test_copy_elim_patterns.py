"""Unit tests for individual copy-elimination patterns on hand-built IR.

The end-to-end tests validate copy elimination through the functional
executor; these tests pin each Figure-10 pattern's structural behaviour
in isolation.
"""

import pytest

from element_oracle import element_coords
from repro.compiler.copy_elim import eliminate_copies
from repro.ir import CallOp, CopyOp, ForOp, IRFunction
from repro.ir.verifier import verify_function
from repro.machine import hopper_machine
from repro.machine.memory import MemoryKind
from repro.sym import Var
from repro.tensors import f16
from repro.tensors.partition import partition_by_blocks


def _fn():
    return IRFunction("t", hopper_machine())


def _call(fn, name, reads=(), writes=(), preconds=None):
    return CallOp(
        function=name,
        args=tuple(reads) + tuple(writes),
        reads=tuple(reads),
        writes=tuple(writes),
        preconds=list(preconds or []),
    )


class TestSelfCopy:
    def test_removed_and_events_forwarded(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        producer = fn.body.append(_call(fn, "init", writes=(a.ref(),)))
        self_copy = fn.body.append(
            CopyOp(a.ref(), a.ref(), preconds=[producer.result.use()])
        )
        consumer = fn.body.append(
            _call(fn, "use", reads=(a.ref(),),
                  preconds=[self_copy.result.use()])
        )
        eliminate_copies(fn)
        assert self_copy not in fn.body.ops
        # the consumer now depends directly on the producer
        assert any(u.event is producer.result for u in consumer.preconds)
        verify_function(fn)


class TestRoundTripAlias:
    def test_temp_aliased_onto_source(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        temp = fn.add_buffer("T", (8, 8), f16, MemoryKind.NONE)
        cin = fn.body.append(CopyOp(a.ref(), temp.ref()))
        work = fn.body.append(
            _call(fn, "work", reads=(temp.ref(),), writes=(temp.ref(),),
                  preconds=[cin.result.use()])
        )
        cout = fn.body.append(
            CopyOp(temp.ref(), a.ref(), preconds=[work.result.use()])
        )
        after = fn.body.append(
            _call(fn, "after", reads=(a.ref(),),
                  preconds=[cout.result.use()])
        )
        eliminate_copies(fn)
        assert cin not in fn.body.ops and cout not in fn.body.ops
        # the work op now reads and writes A directly
        assert work.writes[0].root.uid == a.tensor.uid
        # ordering is preserved through the forwarded events
        assert any(u.event is work.result for u in after.preconds)
        verify_function(fn)


class TestForwarding:
    def test_same_memory_copy_in_renamed(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        temp = fn.add_buffer("T", (8, 8), f16, MemoryKind.GLOBAL)
        copy = fn.body.append(CopyOp(a.ref(), temp.ref()))
        reader = fn.body.append(_call(fn, "r", reads=(temp.ref(),),
                                      preconds=[copy.result.use()]))
        eliminate_copies(fn)
        assert copy not in fn.body.ops
        assert reader.reads[0].root.uid == a.tensor.uid

    def test_cross_memory_copy_kept(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        smem = fn.add_buffer("S", (8, 8), f16, MemoryKind.SHARED)
        copy = fn.body.append(CopyOp(a.ref(), smem.ref()))
        fn.body.append(_call(fn, "r", reads=(smem.ref(),),
                             preconds=[copy.result.use()]))
        eliminate_copies(fn)
        assert copy in fn.body.ops  # real data movement survives

    def test_piece_references_recompose(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        temp = fn.add_buffer("T", (8, 8), f16, MemoryKind.NONE)
        copy = fn.body.append(CopyOp(a.ref(), temp.ref()))
        piece = partition_by_blocks(temp.ref(), (4, 8))[1, 0]
        reader = fn.body.append(_call(fn, "r", reads=(piece,),
                                      preconds=[copy.result.use()]))
        eliminate_copies(fn)
        ref = reader.reads[0]
        assert ref.root.uid == a.tensor.uid
        assert ref.shape == (4, 8)
        # element mapping survived the recomposition
        coords = element_coords(ref)
        assert coords[0, 0, 0] == 4


class TestDuplicateAndRedundant:
    def test_duplicate_copy_removed(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        smem = fn.add_buffer("S", (8, 8), f16, MemoryKind.SHARED)
        c1 = fn.body.append(CopyOp(a.ref(), smem.ref()))
        c2 = fn.body.append(CopyOp(a.ref(), smem.ref(),
                                   preconds=[c1.result.use()]))
        consumer = fn.body.append(_call(fn, "r", reads=(smem.ref(),),
                                        preconds=[c2.result.use()]))
        eliminate_copies(fn)
        survivors = [op for op in fn.body.ops if isinstance(op, CopyOp)]
        assert len(survivors) == 1
        assert any(
            u.event is survivors[0].result for u in consumer.preconds
        )

    def test_redundant_loads_share_one_buffer(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        s1 = fn.add_buffer("S1", (8, 8), f16, MemoryKind.SHARED)
        s2 = fn.add_buffer("S2", (8, 8), f16, MemoryKind.SHARED)
        c1 = fn.body.append(CopyOp(a.ref(), s1.ref()))
        c2 = fn.body.append(CopyOp(a.ref(), s2.ref()))
        r1 = fn.body.append(_call(fn, "r1", reads=(s1.ref(),),
                                  preconds=[c1.result.use()]))
        r2 = fn.body.append(_call(fn, "r2", reads=(s2.ref(),),
                                  preconds=[c2.result.use()]))
        eliminate_copies(fn)
        survivors = [op for op in fn.body.ops if isinstance(op, CopyOp)]
        assert len(survivors) == 1
        assert r1.reads[0].root.uid == r2.reads[0].root.uid
        # the second reader still waits for the surviving load
        assert any(u.event is survivors[0].result for u in r2.preconds)

    def test_different_sources_not_merged(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        b = fn.add_param("B", (8, 8), f16)
        s1 = fn.add_buffer("S1", (8, 8), f16, MemoryKind.SHARED)
        s2 = fn.add_buffer("S2", (8, 8), f16, MemoryKind.SHARED)
        fn.body.append(CopyOp(a.ref(), s1.ref()))
        fn.body.append(CopyOp(b.ref(), s2.ref()))
        fn.body.append(_call(fn, "r", reads=(s1.ref(), s2.ref())))
        eliminate_copies(fn)
        survivors = [op for op in fn.body.ops if isinstance(op, CopyOp)]
        assert len(survivors) == 2


class TestHoisting:
    def test_spill_pair_hoisted(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        reg = fn.add_buffer("R", (8, 8), f16, MemoryKind.REGISTER)
        loop = ForOp(Var("k"), 4)
        cin = loop.body.append(CopyOp(a.ref(), reg.ref()))
        work = loop.body.append(
            _call(fn, "w", reads=(reg.ref(),), writes=(reg.ref(),),
                  preconds=[cin.result.use()])
        )
        cout = loop.body.append(
            CopyOp(reg.ref(), a.ref(), preconds=[work.result.use()])
        )
        loop.body.yield_use = cout.result.use()
        fn.body.append(loop)
        eliminate_copies(fn)
        assert cin in fn.body.ops and cout in fn.body.ops
        assert cin not in loop.body.ops and cout not in loop.body.ops
        assert fn.body.index_of(cin) < fn.body.index_of(loop)
        assert fn.body.index_of(loop) < fn.body.index_of(cout)
        # the copy-out waits for the whole loop
        assert any(u.event is loop.result for u in cout.preconds)

    def test_invariant_read_only_copy_hoisted(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        smem = fn.add_buffer("S", (8, 8), f16, MemoryKind.SHARED)
        loop = ForOp(Var("k"), 4)
        cin = loop.body.append(CopyOp(a.ref(), smem.ref()))
        loop.body.append(_call(fn, "w", reads=(smem.ref(),),
                               preconds=[cin.result.use()]))
        fn.body.append(loop)
        eliminate_copies(fn)
        assert cin in fn.body.ops and cin not in loop.body.ops

    def test_variant_copy_not_hoisted(self):
        fn = _fn()
        a = fn.add_param("A", (8, 8), f16)
        smem = fn.add_buffer("S", (4, 8), f16, MemoryKind.SHARED)
        loop = ForOp(Var("k"), 2)
        pieces = partition_by_blocks(a.ref(), (4, 8))
        cin = loop.body.append(CopyOp(pieces[Var("k"), 0], smem.ref()))
        loop.body.append(_call(fn, "w", reads=(smem.ref(),),
                               preconds=[cin.result.use()]))
        fn.body.append(loop)
        eliminate_copies(fn)
        assert cin in loop.body.ops  # depends on k: stays put
