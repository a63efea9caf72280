"""The frontend tracer.

Task variants are ordinary Python functions; the compiler *traces* them
by calling the function with symbolic tensor arguments under an active
:class:`TraceContext` that records every ``make_tensor``, ``launch``,
``srange``/``prange`` loop, and ``call_external``. Loop bodies execute
exactly once with symbolic induction variables, so all recorded tensor
indices are functions of those variables — this is what makes the fully
static analysis of the paper possible.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple, Union

from repro.errors import TraceError, TunableError
from repro.frontend.stmts import (
    CallExternalStmt,
    LaunchStmt,
    LoopStmt,
    MakeTensorStmt,
    Statement,
    TaskTrace,
)
from repro.frontend.task import TaskRegistry, TaskVariant
from repro.numbering import next_number
from repro.sym import Var
from repro.tensors.dtype import DType
from repro.tensors.tensor import LogicalTensor, TensorRef

# One active trace per *thread*: `api.compile_many` traces kernels from
# a thread pool, so the tracer state must not be shared across threads.
_tls = threading.local()


def _active_context() -> Optional["TraceContext"]:
    return getattr(_tls, "context", None)


class TraceContext:
    """Mutable state of one task-variant trace."""

    def __init__(
        self,
        variant: TaskVariant,
        tunables: Dict[str, Any],
        registry: TaskRegistry,
    ):
        self.variant = variant
        self.tunables = tunables
        self.registry = registry
        self.frames: list = [[]]
        self.local_tensors: list = []
        self.tunables_used: Dict[str, Any] = {}

    # -- frame plumbing -------------------------------------------------
    def record(self, stmt: Statement) -> None:
        self.frames[-1].append(stmt)

    def push_frame(self) -> None:
        self.frames.append([])

    def pop_frame(self) -> list:
        if len(self.frames) == 1:
            raise TraceError("internal: popped the root trace frame")
        return self.frames.pop()

    # -- loop tracing ---------------------------------------------------
    def loop(
        self, extents: Tuple[int, ...], parallel: bool
    ) -> Iterator[Union[Var, Tuple[Var, ...]]]:
        for extent in extents:
            if not isinstance(extent, int) or extent < 0:
                raise TraceError(
                    f"loop extents must be non-negative integers, got "
                    f"{extents}"
                )
        if any(extent == 0 for extent in extents):
            return  # empty domain: the loop contributes nothing
        loop_id = next_number("loop")
        indices = tuple(
            Var(f"i{loop_id}_{d}") for d in range(len(extents))
        )
        self.push_frame()
        try:
            yield indices[0] if len(indices) == 1 else indices
        finally:
            body = self.pop_frame()
            self.record(
                LoopStmt(
                    parallel=parallel,
                    indices=indices,
                    extents=extents,
                    body=body,
                )
            )


def _require_context() -> TraceContext:
    context = _active_context()
    if context is None:
        raise TraceError(
            "this operation is only legal inside a task body being traced"
        )
    return context


def _require_inner(operation: str) -> TraceContext:
    ctx = _require_context()
    if ctx.variant.is_leaf:
        raise TraceError(
            f"leaf task variant {ctx.variant.variant_name!r} may not use "
            f"{operation}; leaf tasks only perform local computation"
        )
    return ctx


# ----------------------------------------------------------------------
# DSL surface
# ----------------------------------------------------------------------
def tunable(name: str) -> Any:
    """Read a tunable value bound by the mapping specification."""
    ctx = _require_context()
    if name not in ctx.tunables:
        raise TunableError(
            f"variant {ctx.variant.variant_name!r} requests tunable "
            f"{name!r} but the mapping binds only {sorted(ctx.tunables)}"
        )
    value = ctx.tunables[name]
    ctx.tunables_used[name] = value
    return value


def make_tensor(
    shape: Sequence[int], dtype: DType, name: Optional[str] = None
) -> LogicalTensor:
    """Create a task-local tensor (the accumulator of Figure 5a)."""
    ctx = _require_inner("make_tensor")
    tensor = LogicalTensor(
        name or f"tmp_{ctx.variant.variant_name}", shape, dtype
    )
    ctx.local_tensors.append(tensor)
    ctx.record(MakeTensorStmt(tensor))
    return tensor


def launch(task_name: str, *args: Any, to: Optional[str] = None) -> None:
    """Launch a sub-task; the mapping picks the variant and placement.

    ``to`` disambiguates the target instance when the caller's mapping
    lists several instances of the same task. The hint is resolved
    against instance-name *suffixes* so mappings can be prefixed.
    """
    ctx = _require_inner("launch")
    variants = ctx.registry.variants_of(task_name)
    reference = variants[0]
    if len(args) != len(reference.params):
        raise TraceError(
            f"task {task_name!r} takes {len(reference.params)} arguments "
            f"({', '.join(reference.params)}), got {len(args)}"
        )
    coerced = []
    for param, arg in zip(reference.params, args):
        if param in reference.privileges:
            if isinstance(arg, LogicalTensor):
                arg = arg.ref()
            if not isinstance(arg, TensorRef):
                raise TraceError(
                    f"argument {param!r} of task {task_name!r} must be a "
                    f"tensor, got {arg!r}"
                )
        coerced.append(arg)
    ctx.record(LaunchStmt(task_name=task_name, args=tuple(coerced), to=to))


def srange(*extents: int) -> Iterator:
    """A sequential group of sub-task launches over an iteration domain."""
    ctx = _require_inner("srange")
    return ctx.loop(tuple(extents), parallel=False)


def prange(*extents: int) -> Iterator:
    """A parallel group of sub-task launches.

    Tasks launched from a ``prange`` body must not perform aliasing
    writes; the compiler verifies this during dependence analysis.
    Sequential semantics are preserved: execution is *as if* the loop
    were an ``srange``.
    """
    ctx = _require_inner("prange")
    return ctx.loop(tuple(extents), parallel=True)


def call_external(function: str, *args: Any) -> None:
    """Invoke an external function by a string literal of the leaf's body."""
    ctx = _require_context()
    if not ctx.variant.is_leaf:
        raise TraceError(
            f"inner task variant {ctx.variant.variant_name!r} may not "
            "call external functions (paper section 3.2)"
        )
    if not (isinstance(function, str) and function in ctx.variant.literals):
        raise TraceError(
            f"leaf variant {ctx.variant.variant_name!r} calls external "
            f"{function!r} by a name that is not a literal of its body"
        )
    ctx.registry.external(function)  # existence check
    coerced = tuple(
        a.ref() if isinstance(a, LogicalTensor) else a for a in args
    )
    ctx.record(CallExternalStmt(function=function, args=coerced))


# ----------------------------------------------------------------------
# Driving a trace
# ----------------------------------------------------------------------
def trace_variant(
    variant: TaskVariant,
    args: Sequence[Any],
    tunables: Optional[Dict[str, Any]],
    registry: TaskRegistry,
) -> TaskTrace:
    """Trace one task variant applied to concrete argument references.

    Args:
        variant: the variant to trace.
        args: one value per parameter; tensor parameters take
            :class:`TensorRef` (or :class:`LogicalTensor`).
        tunables: tunable bindings from the mapping specification.
        registry: the task registry for launch resolution.
    """
    if len(args) != len(variant.params):
        raise TraceError(
            f"variant {variant.variant_name!r} takes "
            f"{len(variant.params)} arguments, got {len(args)}"
        )
    bound = []
    for param, arg in zip(variant.params, args):
        if param in variant.privileges:
            if isinstance(arg, LogicalTensor):
                arg = arg.ref()
            if not isinstance(arg, TensorRef):
                raise TraceError(
                    f"parameter {param!r} of {variant.variant_name!r} must "
                    f"be a tensor, got {arg!r}"
                )
        bound.append(arg)
    ctx = TraceContext(variant, dict(tunables or {}), registry)
    previous = _active_context()
    _tls.context = ctx
    try:
        variant.fn(*bound)
    finally:
        _tls.context = previous
    if len(ctx.frames) != 1:
        raise TraceError(
            f"unbalanced loop frames tracing {variant.variant_name!r}; "
            "was a loop body exited with break?"
        )
    return TaskTrace(
        variant_name=variant.variant_name,
        statements=ctx.frames[0],
        local_tensors=ctx.local_tensors,
        tunables_used=ctx.tunables_used,
    )
