"""Tests for the frontend: tasks, privileges, tracer, mappings."""

import pytest

from repro.errors import (
    MappingError,
    TraceError,
    TunableError,
)
from repro.frontend import (
    Inner,
    Leaf,
    MappingSpec,
    TaskMapping,
    TaskRegistry,
    call_external,
    launch,
    make_tensor,
    prange,
    srange,
    trace_variant,
    tunable,
)
from repro.frontend.privileges import Privilege
from repro.frontend.stmts import LaunchStmt, LoopStmt
from repro.machine import hopper_machine
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.tensors import LogicalTensor, f16


@pytest.fixture()
def registry():
    reg = TaskRegistry()

    @reg.external_function("noop", cost_kind="simt")
    def noop(x):
        pass

    @reg.task("leafy", Leaf, reads=["x"], writes=["x"])
    def leafy_impl(x):
        call_external("noop", x)

    return reg


class TestPrivileges:
    def test_covers(self):
        assert Privilege.READ_WRITE.covers(Privilege.READ)
        assert Privilege.READ_WRITE.covers(Privilege.WRITE)
        assert not Privilege.READ.covers(Privilege.WRITE)
        assert not Privilege.WRITE.covers(Privilege.READ)

    def test_combine(self):
        assert Privilege.combine(True, True) is Privilege.READ_WRITE
        assert Privilege.combine(True, False) is Privilege.READ
        with pytest.raises(ValueError):
            Privilege.combine(False, False)

    def test_flags(self):
        assert Privilege.READ.reads and not Privilege.READ.writes
        assert Privilege.WRITE.writes and not Privilege.WRITE.reads


class TestTaskRegistration:
    def test_variant_recorded(self, registry):
        v = registry.variant("leafy_impl")
        assert v.task_name == "leafy"
        assert v.is_leaf

    def test_signature_mismatch_rejected(self, registry):
        with pytest.raises(TraceError):
            @registry.task("leafy", Inner, writes=["y"])
            def other_variant(y, z):
                pass

    def test_unknown_privilege_param(self, registry):
        with pytest.raises(TraceError):
            @registry.task("bad", Leaf, reads=["nope"])
            def bad_variant(x):
                pass

    def test_unknown_variant_lookup(self, registry):
        with pytest.raises(TraceError):
            registry.variant("missing")

    def test_duplicate_external(self, registry):
        with pytest.raises(TraceError):
            @registry.external_function("noop", cost_kind="simt")
            def noop2(x):
                pass


class TestTracer:
    def test_trace_records_launch(self, registry):
        @registry.task("top", Inner, writes=["x"])
        def top_impl(x):
            launch("leafy", x)

        t = LogicalTensor("x", (8, 8), f16)
        trace = trace_variant(registry.variant("top_impl"), [t], {}, registry)
        assert len(trace.statements) == 1
        assert isinstance(trace.statements[0], LaunchStmt)

    def test_trace_records_loops(self, registry):
        @registry.task("loopy", Inner, writes=["x"])
        def loopy_impl(x):
            for _ in srange(4):
                launch("leafy", x)
            for _ in prange(2, 3):
                launch("leafy", x)

        t = LogicalTensor("x", (8, 8), f16)
        trace = trace_variant(
            registry.variant("loopy_impl"), [t], {}, registry
        )
        loops = [s for s in trace.statements if isinstance(s, LoopStmt)]
        assert len(loops) == 2
        assert not loops[0].parallel and loops[0].extents == (4,)
        assert loops[1].parallel and loops[1].extents == (2, 3)

    def test_empty_loop_elided(self, registry):
        @registry.task("empty", Inner, writes=["x"])
        def empty_impl(x):
            for _ in srange(0):
                launch("leafy", x)

        t = LogicalTensor("x", (8, 8), f16)
        trace = trace_variant(
            registry.variant("empty_impl"), [t], {}, registry
        )
        assert trace.statements == []

    def test_unbound_tunable(self, registry):
        @registry.task("tuny", Inner, writes=["x"])
        def tuny_impl(x):
            tunable("MISSING")

        t = LogicalTensor("x", (8, 8), f16)
        with pytest.raises(TunableError):
            trace_variant(registry.variant("tuny_impl"), [t], {}, registry)

    def test_leaf_cannot_launch(self, registry):
        @registry.task("badleaf", Leaf, writes=["x"])
        def badleaf_impl(x):
            launch("leafy", x)

        t = LogicalTensor("x", (8, 8), f16)
        with pytest.raises(TraceError):
            trace_variant(
                registry.variant("badleaf_impl"), [t], {}, registry
            )

    def test_inner_cannot_call_external(self, registry):
        @registry.task("badinner", Inner, writes=["x"])
        def badinner_impl(x):
            call_external("noop", x)

        t = LogicalTensor("x", (8, 8), f16)
        with pytest.raises(TraceError):
            trace_variant(
                registry.variant("badinner_impl"), [t], {}, registry
            )

    def test_outside_trace_context(self):
        with pytest.raises(TraceError):
            make_tensor((4,), f16)

    def test_wrong_arg_count(self, registry):
        t = LogicalTensor("x", (8, 8), f16)
        with pytest.raises(TraceError):
            trace_variant(registry.variant("leafy_impl"), [t, t], {}, registry)

    def test_make_tensor_recorded(self, registry):
        @registry.task("alloc", Inner, writes=["x"])
        def alloc_impl(x):
            tmp = make_tensor((4, 4), f16, name="tmp")
            launch("leafy", tmp)

        t = LogicalTensor("x", (8, 8), f16)
        trace = trace_variant(
            registry.variant("alloc_impl"), [t], {}, registry
        )
        assert len(trace.local_tensors) == 1
        assert trace.local_tensors[0].name == "tmp"


class TestMappingValidation:
    def _leaf_mapping(self, **overrides):
        base = dict(
            instance="leafy_impl",
            variant="leafy_impl",
            proc=ProcessorKind.BLOCK,
            mems=(MemoryKind.SHARED,),
        )
        base.update(overrides)
        return TaskMapping(**base)

    def test_valid_spec(self, registry):
        machine = hopper_machine()

        @registry.task("root", Inner, writes=["x"])
        def root_impl(x):
            launch("leafy", x)

        spec = MappingSpec(
            [
                TaskMapping(
                    instance="root",
                    variant="root_impl",
                    proc=ProcessorKind.HOST,
                    mems=(MemoryKind.GLOBAL,),
                    entrypoint=True,
                    calls=("leafy_impl",),
                ),
                self._leaf_mapping(),
            ],
            registry,
            machine,
        )
        assert spec.entrypoint.instance == "root"
        child = spec.dispatch(spec.entrypoint, "leafy")
        assert child.instance == "leafy_impl"

    def test_memory_visibility_enforced(self, registry):
        machine = hopper_machine()
        with pytest.raises(MappingError):
            MappingSpec(
                [
                    self._leaf_mapping(
                        proc=ProcessorKind.HOST,
                        mems=(MemoryKind.SHARED,),
                        entrypoint=True,
                    )
                ],
                registry,
                machine,
            )

    def test_mems_arity_enforced(self, registry):
        machine = hopper_machine()
        with pytest.raises(MappingError):
            MappingSpec(
                [self._leaf_mapping(mems=(), entrypoint=True)],
                registry,
                machine,
            )

    def test_needs_entrypoint(self, registry):
        machine = hopper_machine()
        with pytest.raises(MappingError):
            MappingSpec([self._leaf_mapping()], registry, machine).entrypoint

    def test_cycle_detected(self, registry):
        machine = hopper_machine()

        @registry.task("a_task", Inner, writes=["x"])
        def a_impl(x):
            launch("b_task", x)

        @registry.task("b_task", Inner, writes=["x"])
        def b_impl(x):
            launch("a_task", x)

        with pytest.raises(MappingError):
            MappingSpec(
                [
                    TaskMapping(
                        instance="a",
                        variant="a_impl",
                        proc=ProcessorKind.HOST,
                        mems=(MemoryKind.GLOBAL,),
                        entrypoint=True,
                        calls=("b",),
                    ),
                    TaskMapping(
                        instance="b",
                        variant="b_impl",
                        proc=ProcessorKind.HOST,
                        mems=(MemoryKind.GLOBAL,),
                        calls=("a",),
                    ),
                ],
                registry,
                machine,
            )

    def test_child_cannot_be_shallower(self, registry):
        machine = hopper_machine()

        @registry.task("deep2", Inner, writes=["x"])
        def deep2_impl(x):
            launch("leafy", x)

        with pytest.raises(MappingError):
            MappingSpec(
                [
                    TaskMapping(
                        instance="deep2",
                        variant="deep2_impl",
                        proc=ProcessorKind.BLOCK,
                        mems=(MemoryKind.GLOBAL,),
                        entrypoint=True,
                        # calls an instance at the shallower HOST level
                        calls=("leafy_up",),
                    ),
                    self._leaf_mapping(
                        instance="leafy_up",
                        proc=ProcessorKind.HOST,
                        mems=(MemoryKind.GLOBAL,),
                    ),
                ],
                registry,
                machine,
            )
