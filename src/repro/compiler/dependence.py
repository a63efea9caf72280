"""Dependence analysis (paper section 4.2.1).

Consumes the task-based logical description plus the mapping
specification and produces event IR. The analysis is an in-order
traversal of the instantiated task tree that maintains, per buffer, the
event of its last writer and the events of readers since that write.
Every task launch follows the copy-in/copy-out discipline (the paper's
four lowering steps), which keeps the analysis local to one task variant
at a time; the copy elimination pass later removes the redundant copies
this introduces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import CompileError, PrivilegeError
from repro.frontend.context import trace_variant
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.frontend.privileges import Privilege
from repro.frontend.stmts import (
    CallExternalStmt,
    LaunchStmt,
    LoopStmt,
    MakeTensorStmt,
)
from repro.frontend.task import TaskVariant
from repro.ir.events import EventUse
from repro.ir.module import Buffer, IRFunction
from repro.ir.ops import AllocOp, Block, CallOp, CopyOp, ForOp, PForOp
from repro.machine.memory import MemoryKind
from repro.machine.processor import ProcessorKind
from repro.numbering import next_number
from repro.tensors.dtype import DType
from repro.tensors.regions import prove_iterations_disjoint
from repro.tensors.tensor import TensorRef


@dataclass
class _BufferState:
    """Dependence state of one buffer during the traversal."""

    last_write: Optional[EventUse] = None
    readers: List[EventUse] = field(default_factory=list)

    def clone(self) -> "_BufferState":
        return _BufferState(self.last_write, list(self.readers))


class _State:
    """Per-buffer dependence state with a read/write journal.

    The journal lets loop lowering summarize which outer buffers the loop
    body touched, so the loop's completion event can replace the body's
    fine-grained events in the outer state.
    """

    def __init__(self) -> None:
        self.by_uid: Dict[int, _BufferState] = {}
        self.read_journal: Set[int] = set()
        self.write_journal: Set[int] = set()

    def of(self, uid: int) -> _BufferState:
        return self.by_uid.setdefault(uid, _BufferState())

    def deps_for_read(self, uid: int) -> List[EventUse]:
        state = self.of(uid)
        return [state.last_write] if state.last_write is not None else []

    def deps_for_write(self, uid: int) -> List[EventUse]:
        state = self.of(uid)
        deps = list(state.readers)
        if state.last_write is not None:
            deps.append(state.last_write)
        return deps

    def register_read(self, uid: int, use: EventUse) -> None:
        self.of(uid).readers.append(use)
        self.read_journal.add(uid)

    def register_write(self, uid: int, use: EventUse) -> None:
        state = self.of(uid)
        state.last_write = use
        state.readers = []
        self.write_journal.add(uid)

    def clone(self) -> "_State":
        out = _State()
        out.by_uid = {uid: st.clone() for uid, st in self.by_uid.items()}
        return out


class DependenceAnalysis:
    """Lowers one entrypoint instance into an :class:`IRFunction`."""

    def __init__(self, spec: MappingSpec, kernel_name: str):
        self.spec = spec
        self.registry = spec.registry
        self.machine = spec.machine
        self.kernel_name = kernel_name

    # ------------------------------------------------------------------
    def run(
        self,
        arg_shapes: Sequence[Tuple[int, ...]],
        arg_dtypes: Sequence[DType],
        scalar_args: Optional[Dict[str, Any]] = None,
    ) -> IRFunction:
        """Lower the mapped program applied to arguments of these shapes."""
        root = self.spec.entrypoint
        variant = self.spec.variant_of(root)
        tensor_params = variant.tensor_params
        if len(arg_shapes) != len(tensor_params):
            raise CompileError(
                f"entrypoint {variant.variant_name!r} has "
                f"{len(tensor_params)} tensor parameters, got "
                f"{len(arg_shapes)} argument shapes"
            )
        fn = IRFunction(self.kernel_name, self.machine)
        fn.metadata["entry_instance"] = root.instance
        args: List[Any] = []
        shape_iter = iter(zip(arg_shapes, arg_dtypes))
        scalar_args = dict(scalar_args or {})
        for param in variant.params:
            if param in variant.privileges:
                shape, dtype = next(shape_iter)
                buffer = fn.add_param(param, shape, dtype)
                args.append(buffer.ref())
            else:
                if param not in scalar_args:
                    raise CompileError(
                        f"missing scalar argument {param!r} for entrypoint"
                    )
                args.append(scalar_args[param])
        state = _State()
        privileges = {
            fn.params[i].tensor.uid: variant.privilege_of(name)
            for i, name in enumerate(tensor_params)
        }
        self._lower_variant(
            fn, fn.body, state, root, variant, args, privileges
        )
        return fn

    # ------------------------------------------------------------------
    # Variant bodies
    # ------------------------------------------------------------------
    def _lower_variant(
        self,
        fn: IRFunction,
        block: Block,
        state: _State,
        mapping: TaskMapping,
        variant: TaskVariant,
        args: Sequence[Any],
        privileges: Dict[int, Privilege],
    ) -> None:
        trace = trace_variant(variant, args, mapping.tunables, self.registry)
        for tensor in trace.local_tensors:
            # Locals have no mapped home; they materialize only through
            # the fresh allocations of callee arguments (NONE memory).
            fn.adopt_buffer(Buffer(tensor, MemoryKind.NONE))
            privileges[tensor.uid] = Privilege.READ_WRITE
        self._lower_stmts(
            fn, block, state, mapping, trace.statements, privileges
        )

    def _lower_stmts(
        self,
        fn: IRFunction,
        block: Block,
        state: _State,
        mapping: TaskMapping,
        stmts: Sequence[Any],
        privileges: Dict[int, Privilege],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, MakeTensorStmt):
                block.append(AllocOp(fn.buffers[stmt.tensor.uid]))
            elif isinstance(stmt, LaunchStmt):
                self._lower_launch(fn, block, state, mapping, stmt, privileges)
            elif isinstance(stmt, LoopStmt):
                self._lower_loop(fn, block, state, mapping, stmt, privileges)
            elif isinstance(stmt, CallExternalStmt):
                raise CompileError(
                    "call_external outside a leaf task variant"
                )
            else:
                raise CompileError(f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def _lower_loop(
        self,
        fn: IRFunction,
        block: Block,
        state: _State,
        mapping: TaskMapping,
        stmt: LoopStmt,
        privileges: Dict[int, Privilege],
    ) -> None:
        # Multi-dimensional domains become nested loops, one per index.
        self._lower_loop_dim(
            fn, block, state, mapping, stmt, privileges, dim=0
        )

    def _lower_loop_dim(
        self,
        fn: IRFunction,
        block: Block,
        state: _State,
        mapping: TaskMapping,
        stmt: LoopStmt,
        privileges: Dict[int, Privilege],
        dim: int,
    ) -> None:
        index = stmt.indices[dim]
        extent = stmt.extents[dim]
        innermost = dim == len(stmt.indices) - 1
        body_state = state.clone()
        body_state.read_journal = set()
        body_state.write_journal = set()
        body = Block()
        if innermost:
            if stmt.parallel:
                self._check_prange_disjoint(stmt, mapping)
            self._lower_stmts(
                fn, body, body_state, mapping, stmt.body, privileges
            )
        else:
            self._lower_loop_dim(
                fn, body, body_state, mapping, stmt, privileges, dim + 1
            )
        if not body.ops:
            return
        if stmt.parallel:
            proc = self._prange_proc(stmt, mapping)
            loop = PForOp(index, extent, proc, body)
        else:
            loop = ForOp(index, extent, body)
            loop.proc = mapping.proc
        self._set_body_yield(body)
        self._hoist_outer_preconds(loop, body)
        block.append(loop)
        # Summarize the body's effects with the loop's completion event.
        loop_use = (
            loop.result.use_all()
            if isinstance(loop, PForOp)
            else loop.result.use()
        )
        for uid in body_state.write_journal:
            state.register_write(uid, loop_use)
        for uid in body_state.read_journal - body_state.write_journal:
            state.register_read(uid, loop_use)

    def _set_body_yield(self, body: Block) -> None:
        for op in reversed(body.ops):
            if op.result is not None:
                if op.result.is_unit:
                    body.yield_use = op.result.use()
                else:
                    body.yield_use = op.result.use_all()
                return

    def _hoist_outer_preconds(self, loop, body: Block) -> None:
        """Move body preconditions on outer events up to the loop.

        This gives the Figure-8b shape: the ``for`` op carries ``{e6}``
        while the first in-body copy carries ``{}``. Sequential-iteration
        ordering is implicit in ``ForOp``, so hoisting is sound.
        """
        inner_events = {
            id(op.result) for op in body.walk() if op.result is not None
        }
        hoisted: List[EventUse] = []
        for op in body.walk():
            keep = []
            for use in op.preconds:
                if id(use.event) in inner_events:
                    keep.append(use)
                elif use not in hoisted:
                    hoisted.append(use)
            op.preconds = keep
        for use in hoisted:
            if use not in loop.preconds:
                loop.preconds.append(use)

    def _prange_proc(
        self, stmt: LoopStmt, mapping: TaskMapping
    ) -> ProcessorKind:
        procs = set()

        def visit(stmts) -> None:
            for inner in stmts:
                if isinstance(inner, LaunchStmt):
                    child = self.spec.dispatch(
                        mapping, inner.task_name, inner.to
                    )
                    procs.add(child.proc)
                elif isinstance(inner, LoopStmt):
                    visit(inner.body)

        visit(stmt.body)
        if not procs:
            # A prange with no direct launches parallelizes at the
            # current level.
            return mapping.proc
        if len(procs) > 1:
            raise CompileError(
                f"prange in instance {mapping.instance!r} launches tasks "
                f"mapped to multiple processor levels: "
                f"{sorted(p.name for p in procs)}"
            )
        return procs.pop()

    def _check_prange_disjoint(
        self, stmt: LoopStmt, mapping: TaskMapping
    ) -> None:
        """Verify parallel iterations perform no aliasing writes.

        Write pairs are first proved disjoint *analytically* over the
        whole iteration domain by the region algebra
        (:func:`repro.tensors.regions.prove_iterations_disjoint` — the
        affine separating-axis argument). Pairs the proof cannot resolve
        fall back to sampling, which is *not* sound: every loop variable
        takes the same position, and only the joint points (0, …),
        (1, …) and (last, …) are compared with each other through
        :meth:`TensorRef.may_alias`. It catches off-by-one tilings but
        misses writes that alias between iterations differing in one
        variable only: ``gemm_reduction``'s column tiles all write their
        row tile of ``y``, and once the grid has three row tiles or more
        no two sampled points share one, so the kernel compiles (the
        strict xfail ``test_gemm_reduction_column_tiles_alias_y[3]``
        pins this miss). ROADMAP items 2b and 4 will fix it.
        """
        writes: List[Tuple[TensorRef, Privilege]] = []
        for inner in stmt.body:
            if not isinstance(inner, LaunchStmt):
                continue
            child = self.spec.dispatch(mapping, inner.task_name, inner.to)
            variant = self.spec.variant_of(child)
            for name, ref in zip(
                variant.tensor_params, inner.tensor_args()
            ):
                privilege = variant.privilege_of(name)
                if privilege.writes:
                    writes.append((ref, privilege))
        if not writes:
            return
        loop_vars = {v.name for v in stmt.indices}
        for ref, _ in writes:
            if not ref.free_variables() & loop_vars:
                raise PrivilegeError(
                    f"prange in instance {mapping.instance!r} writes "
                    f"{ref!r} identically from every iteration"
                )
        domain = tuple(
            (var.name, extent)
            for var, extent in zip(stmt.indices, stmt.extents)
        )
        unresolved = [
            (ref_a, ref_b)
            for (ref_a, _), (ref_b, _)
            in itertools.combinations_with_replacement(writes, 2)
            if not prove_iterations_disjoint(ref_a, ref_b, domain)
        ]
        if not unresolved:
            return
        samples = self._sample_envs(stmt)
        for ref_a, ref_b in unresolved:
            for env_a, env_b in itertools.combinations(samples, 2):
                try:
                    a = _bind(ref_a, env_a)
                    b = _bind(ref_b, env_b)
                except Exception:
                    continue
                if a.may_alias(b):
                    raise PrivilegeError(
                        f"prange in instance {mapping.instance!r} performs "
                        f"aliasing writes: {ref_a!r} under {env_a} overlaps "
                        f"{ref_b!r} under {env_b}"
                    )

    def _sample_envs(self, stmt: LoopStmt) -> List[Dict[str, int]]:
        names = [v.name for v in stmt.indices]
        points: List[Tuple[int, ...]] = []
        lows = tuple(0 for _ in stmt.extents)
        highs = tuple(extent - 1 for extent in stmt.extents)
        seconds = tuple(min(1, extent - 1) for extent in stmt.extents)
        for point in (lows, seconds, highs):
            if point not in points:
                points.append(point)
        return [dict(zip(names, p)) for p in points]

    # ------------------------------------------------------------------
    # Launches (the four copy-in/copy-out steps)
    # ------------------------------------------------------------------
    def _lower_launch(
        self,
        fn: IRFunction,
        block: Block,
        state: _State,
        mapping: TaskMapping,
        stmt: LaunchStmt,
        privileges: Dict[int, Privilege],
    ) -> None:
        child = self.spec.dispatch(mapping, stmt.task_name, stmt.to)
        variant = self.spec.variant_of(child)
        tensor_params = variant.tensor_params
        tensor_args = stmt.tensor_args()
        mems = dict(zip(tensor_params, child.mems))

        # Privilege containment (paper section 3.2).
        for name, ref in zip(tensor_params, tensor_args):
            requested = variant.privilege_of(name)
            held = privileges.get(ref.root.uid, Privilege.READ_WRITE)
            if not held.covers(requested):
                raise PrivilegeError(
                    f"instance {mapping.instance!r} holds {held.name} on "
                    f"{ref.root!r} but launches {variant.variant_name!r} "
                    f"requesting {requested.name}"
                )

        # Step 1: fresh allocations per tensor argument.
        fresh: Dict[str, Buffer] = {}
        for name, ref in zip(tensor_params, tensor_args):
            buffer = fn.add_buffer(
                f"{name}_{variant.variant_name}_{next_number('buffer')}",
                ref.shape,
                ref.dtype,
                mems[name],
            )
            fresh[name] = buffer

        # Step 2: copy-in for read arguments.
        for name, ref in zip(tensor_params, tensor_args):
            if not variant.privilege_of(name).reads:
                continue
            copy = CopyOp(
                src=ref,
                dst=fresh[name].ref(),
                preconds=state.deps_for_read(ref.root.uid),
                proc=mapping.proc,
            )
            block.append(copy)
            state.register_read(ref.root.uid, copy.result.use())
            state.register_write(
                fresh[name].tensor.uid, copy.result.use()
            )

        # Step 3: recursively lower the callee.
        child_args: List[Any] = []
        tensor_iter = iter(tensor_params)
        arg_iter = iter(tensor_args)
        for param, arg in zip(variant.params, stmt.args):
            if param in variant.privileges:
                next(tensor_iter)
                next(arg_iter)
                child_args.append(fresh[param].ref())
            else:
                child_args.append(arg)
        child_privileges = dict(privileges)
        for name in tensor_params:
            child_privileges[fresh[name].tensor.uid] = variant.privilege_of(
                name
            )
        if variant.is_leaf:
            self._lower_leaf(
                fn, block, state, child, variant, child_args
            )
        else:
            self._lower_variant(
                fn, block, state, child, variant, child_args,
                child_privileges,
            )

        # Step 4: copy-out for written arguments.
        for name, ref in zip(tensor_params, tensor_args):
            if not variant.privilege_of(name).writes:
                continue
            buffer = fresh[name]
            preconds = state.deps_for_read(buffer.tensor.uid)
            preconds += state.deps_for_write(ref.root.uid)
            copy = CopyOp(
                src=buffer.ref(),
                dst=ref,
                preconds=_dedup(preconds),
                proc=mapping.proc,
            )
            block.append(copy)
            state.register_read(buffer.tensor.uid, copy.result.use())
            state.register_write(ref.root.uid, copy.result.use())

    # ------------------------------------------------------------------
    # Leaf tasks
    # ------------------------------------------------------------------
    def _lower_leaf(
        self,
        fn: IRFunction,
        block: Block,
        state: _State,
        mapping: TaskMapping,
        variant: TaskVariant,
        args: Sequence[Any],
    ) -> None:
        trace = trace_variant(variant, args, mapping.tunables, self.registry)
        param_priv = {}
        for param, arg in zip(variant.params, args):
            if param in variant.privileges and isinstance(arg, TensorRef):
                param_priv[arg.root.uid] = variant.privilege_of(param)
        for stmt in trace.statements:
            if not isinstance(stmt, CallExternalStmt):
                raise CompileError(
                    f"leaf variant {variant.variant_name!r} may only "
                    f"contain call_external statements, found {stmt!r}"
                )
            external = self.registry.external(stmt.function)
            reads: List[TensorRef] = []
            writes: List[TensorRef] = []
            preconds: List[EventUse] = []
            for ref in stmt.tensor_args():
                privilege = param_priv.get(
                    ref.root.uid, Privilege.READ_WRITE
                )
                if privilege.reads:
                    reads.append(ref)
                    preconds += state.deps_for_read(ref.root.uid)
                if privilege.writes:
                    writes.append(ref)
                    preconds += state.deps_for_write(ref.root.uid)
            call = CallOp(
                function=stmt.function,
                args=stmt.args,
                reads=tuple(reads),
                writes=tuple(writes),
                cost_kind=external.cost_kind,
                proc=mapping.proc,
                preconds=_dedup(preconds),
            )
            block.append(call)
            use = call.result.use()
            for ref in reads:
                state.register_read(ref.root.uid, use)
            for ref in writes:
                state.register_write(ref.root.uid, use)


def _dedup(uses: List[EventUse]) -> List[EventUse]:
    out: List[EventUse] = []
    for use in uses:
        if use not in out:
            out.append(use)
    return out


def _bind(ref: TensorRef, env: Dict[str, int]) -> TensorRef:
    """Substitute loop indices into a reference's partition path."""
    from repro.sym import substitute, Const

    bindings = {name: Const(value) for name, value in env.items()}
    path = tuple(
        (partition, tuple(substitute(e, bindings) for e in index))
        for partition, index in ref.path
    )
    return TensorRef(ref.root, path)
