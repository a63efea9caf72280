"""Functional (numpy) execution of IR functions.

Executes an :class:`IRFunction` with real data, honoring the sequential
semantics the compiler must preserve: operations run in program order,
sequential loops iterate, parallel loops iterate sequentially (the
semantics of ``prange`` are *as if* it were ``srange``), and flattened
processor dimensions (references containing ``warp_id()`` etc.) are
enumerated exhaustively, in index order. Works on the IR as dependence
analysis leaves it and at every stage from copy elimination on, the
final IR included (``Stage.FINAL`` is what ``api.run_functional``
interprets by default): each buffer is one flat array, with one slot
per instance of the processor levels it is private to, so the
shared-memory offsets that ``allocate-shared`` assigns — two buffers in
the same bytes — are not modelled. Vectorized IR that copy elimination
has not yet cleaned is the one stage it cannot run.

A copy or call whose references name processor levels, or that writes
a buffer private to them, runs once per enclosing-loop environment on a
batch of all its instances. Each level extent is split into its prime
digits (thread 32 → 2·2·2·2·2), and each operand becomes one strided
view with a leading axis per digit: the per-instance offsets that
``regions.view_of`` gives are fitted with one stride per digit, and the
fit is checked against every instance. A read-only operand's stride-0
digits are size-1 axes that numpy broadcasts (every thread reading
the same ``B`` columns is one copy, not one per thread). External
implementations act on the trailing axes (see
:class:`~repro.frontend.task.ExternalFunction`), so one call serves the
batch. Batching is decided once per op and environment: it
requires that no instance writes an element another instance reads or
writes. Where that fails, or where a reference names an index the
environment leaves unbound, the instances run one at a time, in index
order, as batches of one through :meth:`TensorRef.read`/``write``. The
per-op plans and fitted layouts are kept on the interpreted
:class:`IRFunction` (dropped when it is pickled), so a kernel's later
requests only look them up.

A batch moves data in machine words where it can: when a view's
innermost axis is a contiguous run whose bytes a ``uint64`` or
``uint32`` tiles (a fragment's column pair of two f16 is one 4-byte
word), that axis is read and written as words and the bytes are
reinterpreted as the operand's dtype; a copy of one dtype moves both
sides in the same word, as one ``np.copyto`` with no intermediate where
the source's strides allow. An interpretation runs wholly on its
caller's thread: a batch is not split across threads, which helps one
request on an idle host but costs more than it saves once concurrent
requests fill the cores.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

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
from repro.tensors.regions import view_of
from repro.tensors.tensor import TensorRef

#: The flattened processor levels, outermost first, each with the
#: extent it has when the function's ``proc_extents`` metadata is
#: silent. The one table: a reference's free variable is a processor
#: index to enumerate exactly when it is a key here.
_PROC_LEVELS = {"block": 1, "warpgroup": 1, "warp": 4, "thread": 32}

#: Environments one op keeps a fitted layout for. The shipped kernels
#: need a few per op; a large grid interpreted functionally refits the
#: rest on each visit instead of growing with the grid.
_LAYOUT_LIMIT = 1024

#: Machine words a contiguous run of elements moves in, widest first.
_WORDS = (np.dtype(np.uint64), np.dtype(np.uint32))


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

    A buffer is one flat array: ``slots`` copies of its elements laid
    end to end, one per instance of the processor levels it is private
    to (per-thread register fragments), and one for every other buffer.
    ``places`` gives each private level's weight in the slot number.
    """

    __slots__ = (
        "pos", "ref", "uid", "shape", "size", "dtype", "slots", "places",
        "names", "written",
    )

    def __init__(
        self,
        pos: int,
        fn: IRFunction,
        ref: TensorRef,
        written: bool,
        extents: Mapping[str, int],
    ):
        buffer = fn.buffers.get(ref.root.uid)
        if buffer is None:
            raise FunctionalError(f"reference {ref!r} has no declared buffer")
        self.pos = pos
        self.ref = ref
        self.uid = ref.root.uid
        self.shape = buffer.shape
        self.size = ref.root.size
        self.dtype = buffer.dtype.to_numpy()
        self.written = written
        private = [level for level in _PROC_LEVELS
                   if level in buffer.private_levels]
        self.places: List[Tuple[str, int]] = []
        self.slots = 1
        for level in reversed(private):
            self.places.append((level, self.slots))
            self.slots *= extents[level]
        self.names = ref.free_variables() | set(private)

    def slot(self, bound: Mapping[str, int]) -> int:
        return sum(bound[level] * place for level, place in self.places)

    def root(self, flat: np.ndarray, bound: Mapping[str, int]) -> np.ndarray:
        """The buffer instance ``bound`` sees, shaped as the buffer."""
        if self.slots == 1:
            return flat.reshape(self.shape)
        start = self.slot(bound) * self.size
        return flat[start:start + self.size].reshape(self.shape)

    def view(self, bound: Mapping[str, int]):
        """``regions.view_of`` within one slot, or ``None`` when
        ``bound`` leaves an index of the reference unbound."""
        if self.ref.is_whole:
            return (self.shape, *(slice(0, n) for n in self.shape))
        try:
            return view_of(self.ref, bound)
        except KeyError:
            return None  # unbound index: the one-at-a-time path raises


class _OpPlan:
    """Everything about one ``CopyOp``/``CallOp`` that no environment
    changes, and the layouts fitted per environment.

    Attributes:
        source: what the plan was built from; a pass that rewrites the
            op or its buffers in place makes it stale.
        args: the op's arguments in order; tensor arguments as
            :class:`_Operand`, anything else as it was.
        operands: the tensor arguments alone.
        levels: processor levels the references mention or a written
            buffer is private to, outermost first, minus the leaders —
            the instance space, less what a loop binds.
        leaders: levels of a collective call, whose index-0 members
            alone execute it.
        names: every variable a layout depends on; the layouts are
            keyed by the values the environment gives them.
        layouts: environment key -> :class:`_Layout`, or ``None`` when
            the instances run one at a time.
        external: the callee of a ``CallOp``.
    """

    __slots__ = (
        "source", "args", "operands", "levels", "leaders", "names",
        "layouts", "external",
    )

    def __init__(
        self,
        fn: IRFunction,
        source: Tuple,
        args: Tuple[Any, ...],
        written: Tuple[bool, ...],
        extents: Mapping[str, int],
        external: Optional[ExternalFunction] = None,
    ):
        self.source = source
        self.external = external
        refs = [a for a in args if isinstance(a, TensorRef)]
        self.leaders: Tuple[str, ...] = ()
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
            _Operand(pos, fn, a, flag, extents)
            if isinstance(a, TensorRef)
            else a
            for pos, (a, flag) in enumerate(zip(args, written))
        )
        self.operands = [a for a in self.args if isinstance(a, _Operand)]
        free = set().union(*(operand.ref.free_variables()
                             for operand in self.operands))
        # Every instance writes its own slot of a private buffer, named
        # in the reference or not.
        free.update(level for operand in self.operands if operand.written
                    for level, _ in operand.places)
        self.levels = tuple(
            level for level in _PROC_LEVELS
            if level in free and level not in self.leaders
        )
        self.names = tuple(sorted(
            set(self.leaders).union(*(o.names for o in self.operands))
        ))
        self.layouts: Dict[Tuple, Optional[_Layout]] = {}


class _Layout:
    """All instances of an op at once, for one environment: a batch.

    ``views[pos]`` is ``(offset, shape, strides, dtype)`` in bytes over
    the operand's flat array: ``lead`` digit axes, then the ``view_of``
    axes. Where the innermost view axis is a contiguous run whose bytes
    machine words tile, ``dtype`` is that word (``uint32``/``uint64``)
    and the run is an axis of words: a Figure-4 column pair moves as
    one word. ``shapes[pos]`` is the shape of a value read: the digit
    axes, then the reference's shape.
    """

    __slots__ = ("lead", "views", "shapes")

    def __init__(
        self, lead: int, views: List[Optional[Tuple]],
        shapes: List[Optional[Tuple[int, ...]]],
    ):
        self.lead = lead
        self.views = views
        self.shapes = shapes

    def _array(self, storage: "_Interpreter", operand: _Operand) -> np.ndarray:
        offset, shape, strides, dtype = self.views[operand.pos]
        return np.ndarray(shape, dtype, storage.flat(operand), offset, strides)

    def read(self, storage: "_Interpreter", operand: _Operand) -> np.ndarray:
        array = self._array(storage, operand).copy()
        if array.dtype != operand.dtype:  # words: reinterpret the bytes
            array = array.reshape(array.shape[:self.lead] + (-1,)).view(
                operand.dtype
            )
        return array.reshape(self.shapes[operand.pos])

    def write(
        self, storage: "_Interpreter", operand: _Operand, value: np.ndarray
    ) -> None:
        target = self._array(storage, operand)
        lead = self.lead
        if target.dtype != operand.dtype:  # words: reinterpret the bytes
            value = np.ascontiguousarray(value)
            value = value.reshape(value.shape[:lead] + (-1,)).view(
                target.dtype
            )
        target[...] = value.reshape(value.shape[:lead] + target.shape[lead:])

    def copy(
        self, storage: "_Interpreter", src: _Operand, dst: _Operand
    ) -> None:
        """``dst = src`` on every instance, for operands of one dtype
        whose views move the same unit (element or word). The source
        is reshaped to the destination's view lengths, a view wherever
        its strides allow, so most copies build no intermediate array."""
        source = self._array(storage, src)
        target = self._array(storage, dst)
        lead = self.lead
        np.copyto(
            target, source.reshape(source.shape[:lead] + target.shape[lead:])
        )


class _Instance:
    """One instance of an op: a batch of one, through the reference."""

    __slots__ = ("bound",)

    def __init__(self, bound: Mapping[str, int]):
        self.bound = bound

    def read(self, storage: "_Interpreter", operand: _Operand) -> np.ndarray:
        root = operand.root(storage.flat(operand), self.bound)
        return operand.ref.read(root, self.bound)

    def write(
        self, storage: "_Interpreter", operand: _Operand, value: np.ndarray
    ) -> None:
        root = operand.root(storage.flat(operand), self.bound)
        operand.ref.write(root, value, self.bound)


def _as_dtype(array: np.ndarray, dtype: np.dtype) -> np.ndarray:
    return array if array.dtype == dtype else array.astype(dtype)


def _strip_mma(ref: TensorRef) -> TensorRef:
    path = list(ref.path)
    while path and isinstance(path[-1][0], MmaPartition):
        path.pop()
    return TensorRef(ref.root, tuple(path))


def _prime_digits(extent: int) -> List[int]:
    """``extent``'s prime factors, ascending (``[]`` for 1)."""
    digits, prime = [], 2
    while extent > 1:
        while extent % prime == 0:
            digits.append(prime)
            extent //= prime
        prime += 1
    return digits


def _c_strides(shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Element strides of a C-contiguous array of ``shape``."""
    strides, step = [], 1
    for extent in reversed(shape):
        strides.append(step)
        step *= extent
    return tuple(reversed(strides))


def _fit_strides(offsets: np.ndarray, radices: List[int]):
    """One stride per digit such that every offset is ``offsets[0]``
    plus the digit-weighted strides, or ``None`` when no such fit."""
    strides = []
    place = offsets.size
    for radix in radices:
        place //= radix
        strides.append(int(offsets[place] - offsets[0]))
    return strides if np.array_equal(
        _digit_sum(int(offsets[0]), radices, strides).ravel(), offsets
    ) else None


def _digit_sum(base: int, radices: List[int], strides: List[int]):
    """``base + Σ stride·digit`` over the digit grid, shaped ``radices``."""
    total = np.full((1,) * len(radices), base, dtype=np.int64)
    for axis, (radix, stride) in enumerate(zip(radices, strides)):
        shape = [1] * len(radices)
        shape[axis] = radix
        total = total + (np.arange(radix, dtype=np.int64) * stride).reshape(
            shape
        )
    return np.broadcast_to(total, radices)


def _independent(radices: List[int], fitted) -> bool:
    """No instance writes an element that another instance reads or
    writes. ``fitted`` holds ``(operand, offset, digit strides, view
    lengths, view strides)`` per operand, in elements of its flat
    array. Instances that share an operand's elements (a stride-0
    digit) are listed once."""
    instances = int(np.prod(radices, dtype=np.int64))
    who = np.arange(instances, dtype=np.int64)[:, None]
    for uid in {operand.uid for operand, *_ in fitted if operand.written}:
        accesses = []
        for operand, offset, digit_strides, lengths, strides in fitted:
            if operand.uid != uid:
                continue
            shared = 0 in digit_strides
            if shared and operand.written:
                return False  # several instances write the same elements
            moving = [(r, s) for r, s in zip(radices, digit_strides) if s]
            starts = _digit_sum(offset, [r for r, _ in moving],
                                [s for _, s in moving])
            inner = _digit_sum(0, list(lengths), list(strides))
            accesses.append((
                starts.reshape(-1, 1) + inner.reshape(1, -1),
                operand.written,
                shared,
            ))
        low = min(int(elements.min()) for elements, *_ in accesses)
        high = max(int(elements.max()) for elements, *_ in accesses)
        owner = np.full(high - low + 1, -1, dtype=np.int64)
        for elements, written, _ in accesses:
            if written:
                owner[elements - low] = np.broadcast_to(who, elements.shape)
        for elements, written, shared in accesses:
            seen = owner[elements - low]
            if written:
                clash = seen != who
            elif shared:  # read by several instances: no one may write
                clash = seen != -1
            else:
                clash = (seen != -1) & (seen != who)
            if clash.any():
                return False
    return True


class _Interpreter:
    def __init__(self, fn: IRFunction, registry: TaskRegistry):
        self.fn = fn
        self.registry = registry
        self.storage: Dict[int, np.ndarray] = {}
        self.proc_extents = {
            **_PROC_LEVELS, **fn.metadata.get("proc_extents", {})
        }
        self.zeros = dict.fromkeys(_PROC_LEVELS, 0)
        self.plans: Dict[Operation, _OpPlan] = {}
        # Plans outlive the request on the function; a racing first
        # request builds an equivalent dict and one of them stays.
        self.kept: Dict[Operation, _OpPlan] = fn.__dict__.setdefault(
            "_functional_plans", {}
        )

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        for param in self.fn.params:
            if param.name not in inputs:
                raise FunctionalError(
                    f"missing input for parameter {param.name!r}"
                )
            array = np.array(
                inputs[param.name], dtype=param.dtype.to_numpy(), order="C"
            )
            if tuple(array.shape) != param.shape:
                raise FunctionalError(
                    f"input {param.name!r} has shape {array.shape}, "
                    f"expected {param.shape}"
                )
            self.storage[param.tensor.uid] = array.reshape(-1)
        self._run_block(self.fn.body, {})
        return {
            p.name: self.storage[p.tensor.uid].reshape(p.shape)
            for p in self.fn.params
        }

    def flat(self, operand: _Operand) -> np.ndarray:
        array = self.storage.get(operand.uid)
        if array is None:
            array = self.storage[operand.uid] = np.zeros(
                operand.slots * operand.size, dtype=operand.dtype
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
                self._run_op(op, env)
                continue
            raise FunctionalError(f"cannot interpret op {op!r}")

    # ------------------------------------------------------------------
    def _plan(self, op: Operation) -> _OpPlan:
        plan = self.plans.get(op)
        if plan is not None:
            return plan
        if isinstance(op, CopyOp):
            args, written, external = (op.src, op.dst), (False, True), None
        else:
            args = op.args
            writes = {w.root.uid for w in op.writes}
            written = tuple(
                isinstance(a, TensorRef) and a.root.uid in writes
                for a in args
            )
            external = self.registry.external(op.function)
        private = tuple(
            getattr(self.fn.buffers.get(a.root.uid), "private_levels", None)
            for a in args
            if isinstance(a, TensorRef)
        )
        source = (args, written, external, private,
                  tuple(self.proc_extents.items()))
        plan = self.kept.get(op)
        if plan is None or plan.source != source:
            plan = self.kept[op] = _OpPlan(
                self.fn, source, args, written, self.proc_extents, external
            )
        self.plans[op] = plan
        return plan

    def _run_op(self, op: Operation, env: Dict[str, int]) -> None:
        """Run ``op`` on every processor instance of its plan's levels
        that no enclosing loop binds: as one batch when a layout fits,
        else one instance at a time in index order. Levels an op does
        not fan out over sit at index 0 — also the slot a private
        buffer is read at on those levels."""
        plan = self._plan(op)
        # Only the index-0 member of each collective level executes.
        if plan.leaders and any(env.get(level) for level in plan.leaders):
            return
        run = self._copy if plan.external is None else self._call
        bound = {**self.zeros, **env}
        levels = [level for level in plan.levels if level not in env]
        if not levels:
            run(plan, _Instance(bound))
            return
        key = tuple([env.get(name) for name in plan.names])
        try:
            layout = plan.layouts[key]
        except KeyError:
            layout = self._fit(plan, bound, levels)
            if len(plan.layouts) < _LAYOUT_LIMIT:
                plan.layouts[key] = layout
        if layout is not None:
            run(plan, layout)
            return
        for combo in itertools.product(
            *(range(self.proc_extents[level]) for level in levels)
        ):
            bound.update(zip(levels, combo))
            run(plan, _Instance(bound))

    def _fit(
        self, plan: _OpPlan, bound: Dict[str, int], levels: List[str]
    ) -> Optional[_Layout]:
        """The op's batch layout over ``levels`` (``bound`` holds the
        environment; its level entries are overwritten), or ``None``
        when the instances must run one at a time."""
        digits = {level: _prime_digits(self.proc_extents[level])
                  for level in levels}
        radices = [d for level in levels for d in digits[level]]
        fitted = []
        for operand in plan.operands:
            own = [level for level in levels if level in operand.names]
            offsets = []
            first = None
            for combo in itertools.product(
                *(range(self.proc_extents[level]) for level in own)
            ):
                bound.update(zip(own, combo))
                spec = operand.view(bound)
                if spec is None:
                    return None
                lengths = tuple(s.stop - s.start for s in spec[1:])
                if first is None:
                    first = (spec[0], lengths)
                    strides = _c_strides(spec[0])
                elif (spec[0], lengths) != first:
                    return None
                offsets.append(
                    operand.slot(bound) * operand.size
                    + sum(s.start * step for s, step in zip(spec[1:], strides))
                )
            own_strides = _fit_strides(
                np.array(offsets, dtype=np.int64),
                [d for level in own for d in digits[level]],
            )
            if own_strides is None:
                return None
            steps = iter(own_strides)
            digit_strides = [
                next(steps) if level in own else 0
                for level in levels
                for _ in digits[level]
            ]
            fitted.append((operand, offsets[0], digit_strides, lengths,
                           strides))
        if not _independent(radices, fitted):
            return None
        # A copy of one dtype moves both sides in the same unit, so it
        # needs no intermediate (``_Layout.copy``).
        runs = {operand.pos: lengths[-1] * operand.dtype.itemsize
                for operand, _, _, lengths, _ in fitted}
        if plan.external is None and len(
            {operand.dtype for operand in plan.operands}
        ) == 1:
            runs = dict.fromkeys(runs, math.gcd(*runs.values()))
        views: List[Optional[Tuple]] = [None] * len(plan.args)
        shapes: List[Optional[Tuple[int, ...]]] = [None] * len(plan.args)
        for operand, offset, digit_strides, lengths, strides in fitted:
            # A digit no instance moves along is one shared read.
            lead = tuple(
                1 if step == 0 and not operand.written else radix
                for radix, step in zip(radices, digit_strides)
            )
            item = operand.dtype.itemsize
            shape = lead + lengths
            byte_strides = tuple(
                step * item for step in (*digit_strides, *strides)
            )
            # The innermost view axis is contiguous (``_c_strides``).
            word = next(
                (w for w in _WORDS if runs[operand.pos] % w.itemsize == 0),
                operand.dtype,
            )
            if word != operand.dtype:
                shape = shape[:-1] + (lengths[-1] * item // word.itemsize,)
                byte_strides = byte_strides[:-1] + (word.itemsize,)
            views[operand.pos] = (offset * item, shape, byte_strides, word)
            shapes[operand.pos] = lead + operand.ref.shape
        return _Layout(len(radices), views, shapes)

    # ------------------------------------------------------------------
    def _copy(self, plan: _OpPlan, batch) -> None:
        src, dst = plan.args
        if isinstance(batch, _Layout) and src.dtype == dst.dtype:
            batch.copy(self, src, dst)
            return
        batch.write(self, dst, _as_dtype(batch.read(self, src), dst.dtype))

    def _call(self, plan: _OpPlan, batch) -> None:
        call_args = [
            batch.read(self, arg) if isinstance(arg, _Operand) else arg
            for arg in plan.args
        ]
        plan.external.numpy_impl(*call_args)
        for arg, array in zip(plan.args, call_args):
            if isinstance(arg, _Operand) and arg.written:
                batch.write(self, arg, _as_dtype(array, arg.dtype))
