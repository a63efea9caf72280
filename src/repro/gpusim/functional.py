"""Functional (numpy) execution of IR functions.

Executes an :class:`IRFunction` with real data, honoring the sequential
semantics the compiler must preserve: operations run in program order,
sequential loops iterate, parallel loops iterate sequentially (the
semantics of ``prange`` are *as if* it were ``srange``), and flattened
processor dimensions (references containing ``warp_id()`` etc.) are
enumerated exhaustively. Works on the IR as dependence analysis leaves
it and at every stage from copy elimination on, the final IR included
(``Stage.FINAL`` is what ``api.run_functional`` interprets by default):
storage is keyed by tensor uid, one array per buffer and per instance of
the processor levels it is private to, so the shared-memory offsets that
``allocate-shared`` assigns — two buffers in the same bytes — are not
modelled. Vectorized IR that copy elimination has not yet cleaned is the
one stage it cannot run.

Tensor accesses go through :meth:`TensorRef.read`/``write``, which
resolve each reference to a numpy view once per environment and
memoise that on the reference; what this module adds is one
:class:`_OpPlan` per op and request, holding everything about the op
that does not depend on the processor instance.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import FunctionalError
from repro.frontend.task import ExternalFunction, TaskRegistry
from repro.ir.module import IRFunction
from repro.ir.ops import (
    AllocOp,
    Block,
    CallOp,
    CopyOp,
    ForOp,
    Operation,
    PForOp,
)
from repro.tensors.mma_partition import MmaPartition
from repro.tensors.tensor import TensorRef

#: The flattened processor levels, outermost first, each with the
#: extent it has when the function's ``proc_extents`` metadata is
#: silent. The one table: a reference's free variable is a processor
#: index to enumerate exactly when it is a key here.
_PROC_LEVELS = {"block": 1, "warpgroup": 1, "warp": 4, "thread": 32}


def interpret_function(
    fn: IRFunction,
    registry: TaskRegistry,
    inputs: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Execute ``fn`` on numpy inputs; returns arrays per parameter."""
    interp = _Interpreter(fn, registry)
    return interp.run(inputs)


class _Operand:
    """One tensor argument of an op, resolved against its buffer.

    ``key`` names the array a processor instance sees: buffers private
    to flattened processor levels (per-thread register fragments) get
    one array per instance of those levels, every other buffer one.
    """

    __slots__ = ("ref", "shape", "dtype", "uid", "private", "written")

    def __init__(self, fn: IRFunction, ref: TensorRef, written: bool):
        buffer = fn.buffers.get(ref.root.uid)
        if buffer is None:
            raise FunctionalError(f"reference {ref!r} has no declared buffer")
        self.ref = ref
        self.shape = buffer.shape
        self.dtype = buffer.dtype.to_numpy()
        self.uid = ref.root.uid
        levels = sorted(buffer.private_levels)
        self.private = itemgetter(*levels) if levels else None
        self.written = written

    def key(self, bound: Mapping[str, int]) -> Tuple:
        if self.private is None:
            return (self.uid,)
        return (self.uid, self.private(bound))


class _OpPlan:
    """What one ``CopyOp``/``CallOp`` needs per processor instance.

    Built once per op and request, so the loop over the (up to
    128-way) flattened processor instances only binds indices, picks
    arrays and moves data.

    Attributes:
        args: the op's arguments in order; tensor arguments as
            :class:`_Operand`, anything else as it was.
        levels: processor levels the references mention, outermost
            first — the instance space, minus what a loop binds.
        external: the callee of a ``CallOp``.
        leaders: levels of a collective call, whose index-0 members
            alone execute it.
    """

    __slots__ = ("args", "levels", "external", "leaders")

    def __init__(
        self,
        fn: IRFunction,
        args: Tuple[Any, ...],
        written: set,
        external: Optional[ExternalFunction] = None,
    ):
        self.external = external
        self.leaders: Tuple[str, ...] = ()
        refs = [a for a in args if isinstance(a, TensorRef)]
        free = set().union(*(ref.free_variables() for ref in refs))
        self.levels = tuple(level for level in _PROC_LEVELS if level in free)
        if external is not None and external.collective:
            # The implementation runs once per collective group on the
            # whole operands: drop the per-warp/thread fragmenting.
            self.leaders = tuple({
                partition.proc.value
                for ref in refs
                for partition, _ in ref.path
                if isinstance(partition, MmaPartition)
            })
            args = tuple(
                _strip_mma(a) if isinstance(a, TensorRef) else a
                for a in args
            )
        self.args = tuple(
            _Operand(fn, a, a.root.uid in written)
            if isinstance(a, TensorRef)
            else a
            for a in args
        )


def _as_dtype(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    return array if array.dtype == dtype else array.astype(dtype)


def _strip_mma(ref: TensorRef) -> TensorRef:
    path = list(ref.path)
    while path and isinstance(path[-1][0], MmaPartition):
        path.pop()
    return TensorRef(ref.root, tuple(path))


class _Interpreter:
    def __init__(self, fn: IRFunction, registry: TaskRegistry):
        self.fn = fn
        self.registry = registry
        self.storage: Dict[Tuple, np.ndarray] = {}
        self.proc_extents = {
            **_PROC_LEVELS, **fn.metadata.get("proc_extents", {})
        }
        self.plans: Dict[Operation, _OpPlan] = {}

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        for param in self.fn.params:
            if param.name not in inputs:
                raise FunctionalError(
                    f"missing input for parameter {param.name!r}"
                )
            array = np.array(
                inputs[param.name], dtype=param.dtype.to_numpy()
            )
            if tuple(array.shape) != param.shape:
                raise FunctionalError(
                    f"input {param.name!r} has shape {array.shape}, "
                    f"expected {param.shape}"
                )
            self.storage[(param.tensor.uid,)] = array
        self._run_block(self.fn.body, {})
        return {
            p.name: self.storage[(p.tensor.uid,)] for p in self.fn.params
        }

    def _array_for(
        self, operand: _Operand, bound: Mapping[str, int]
    ) -> np.ndarray:
        key = operand.key(bound)
        array = self.storage.get(key)
        if array is None:
            array = self.storage[key] = np.zeros(
                operand.shape, dtype=operand.dtype
            )
        return array

    # ------------------------------------------------------------------
    def _run_block(self, block: Block, env: Dict[str, int]) -> None:
        for op in block.ops:
            if isinstance(op, AllocOp):
                continue
            if isinstance(op, (ForOp, PForOp)):
                for k in range(op.extent):
                    inner = dict(env)
                    inner[op.index.name] = k
                    self._run_block(op.body, inner)
                continue
            if isinstance(op, (CopyOp, CallOp)):
                self._run_instances(op, env)
                continue
            raise FunctionalError(f"cannot interpret op {op!r}")

    # ------------------------------------------------------------------
    def _plan(self, op: Operation) -> _OpPlan:
        plan = self.plans.get(op)
        if plan is None:
            if isinstance(op, CopyOp):
                plan = _OpPlan(
                    self.fn, (op.src, op.dst), {op.dst.root.uid}
                )
            else:
                plan = _OpPlan(
                    self.fn,
                    op.args,
                    {w.root.uid for w in op.writes},
                    self.registry.external(op.function),
                )
            self.plans[op] = plan
        return plan

    def _run_instances(self, op: Operation, env: Dict[str, int]) -> None:
        """Run ``op`` on every flattened processor instance.

        The instances cover the processor indices the op's references
        mention and no enclosing loop binds. ``bound`` starts with
        every level at zero, which is also the instance a private
        buffer is keyed by on levels the op does not fan out over.
        """
        plan = self._plan(op)
        levels = [level for level in plan.levels if level not in env]
        bound = {**dict.fromkeys(_PROC_LEVELS, 0), **env}
        run = self._copy if plan.external is None else self._call

        def instances():
            for combo in itertools.product(
                *(range(self.proc_extents[level]) for level in levels)
            ):
                bound.update(zip(levels, combo))
                yield bound

        for arg in plan.args:
            if isinstance(arg, _Operand):
                arg.ref.resolve_views(instances())
        for instance in instances():
            run(plan, instance)

    def _copy(self, plan: _OpPlan, bound: Dict[str, int]) -> None:
        src, dst = plan.args
        value = src.ref.read(self._array_for(src, bound), bound)
        dst.ref.write(
            self._array_for(dst, bound), _as_dtype(value, dst.dtype), bound
        )

    def _call(self, plan: _OpPlan, bound: Dict[str, int]) -> None:
        # Only the index-0 member of each collective level executes.
        if any(bound[level] for level in plan.leaders):
            return
        call_args = [
            arg.ref.read(self._array_for(arg, bound), bound)
            if isinstance(arg, _Operand)
            else arg
            for arg in plan.args
        ]
        plan.external.numpy_impl(*call_args)
        for arg, array in zip(plan.args, call_args):
            if isinstance(arg, _Operand) and arg.written:
                arg.ref.write(
                    self._array_for(arg, bound),
                    _as_dtype(array, arg.dtype),
                    bound,
                )
