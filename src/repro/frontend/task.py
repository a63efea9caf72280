"""Task variants, the task registry, and external functions.

A *task* is a name with one or more *variants* — different
implementations that may target different processor levels or employ
different algorithms (paper section 3.2). Variants share the task's
signature; each declares its own privileges. Leaf variants invoke
*external functions*: named operations with a numpy implementation (for
the functional executor) and a cost kind (for the simulator), standing in
for the arbitrary CUDA C++ a leaf may call.
"""

from __future__ import annotations

import functools
import inspect
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import TraceError
from repro.frontend.privileges import Privilege

Inner = "inner"
Leaf = "leaf"


def body_constants(code: types.CodeType) -> Tuple[Any, ...]:
    """``code``'s constants, its docstring read as ``None``: on Python
    3.11 a ``def``'s docstring (or ``None``) is ``co_consts[0]``, and a
    lambda's or comprehension's code (named ``<...>``) has none."""
    consts = code.co_consts
    if consts and isinstance(consts[0], str) and code.co_name[0] != "<":
        return (None,) + consts[1:]
    return consts


@dataclass
class TaskVariant:
    """One implementation of a task.

    Attributes:
        task_name: the task this variant implements.
        variant_name: unique name of this variant (the function name).
        kind: ``Inner`` or ``Leaf``.
        fn: the traced Python function.
        params: parameter names, in order.
        privileges: privilege per tensor parameter name.
    """

    task_name: str
    variant_name: str
    kind: str
    fn: Callable
    params: Tuple[str, ...]
    privileges: Dict[str, Privilege]

    @property
    def is_leaf(self) -> bool:
        return self.kind == Leaf

    @property
    def tensor_params(self) -> Tuple[str, ...]:
        return tuple(p for p in self.params if p in self.privileges)

    @functools.cached_property
    def literals(self) -> frozenset[str]:
        """The string literals of the body's code, nested code included
        and docstrings skipped: the only names a leaf may pass to
        ``call_external``, so the externals its compile key covers."""
        found, codes = set(), [self.fn.__code__]
        while codes:
            for const in body_constants(codes.pop()):
                if isinstance(const, types.CodeType):
                    codes.append(const)
                elif isinstance(const, (tuple, frozenset)):
                    found.update(c for c in const if isinstance(c, str))
                elif isinstance(const, str):
                    found.add(const)
        return frozenset(found)

    def privilege_of(self, param: str) -> Privilege:
        if param not in self.privileges:
            raise TraceError(
                f"parameter {param!r} of {self.variant_name} is not a "
                "tensor parameter"
            )
        return self.privileges[param]

    def __repr__(self) -> str:
        return f"{self.task_name}/{self.variant_name}({self.kind})"


@dataclass
class ExternalFunction:
    """A function callable from leaf tasks via ``call_external``.

    Attributes:
        name: registry key.
        numpy_impl: ``impl(*arrays_and_scalars) -> None`` mutating the
            output arrays in place (first arguments mirror the task's).
            It acts on the trailing axes, which have the task
            argument's shape. Any leading axes are processor instances
            that the functional executor runs in one call; a read-only
            array may have size 1 on some of them, for instances that
            share its elements, and numpy broadcasts it. Reduce over
            ``axis=-1``, never a fixed leading axis number.
        cost_kind: which simulator resource models this call ("wgmma",
            "simt", "sfu", "smem_copy", "nop", ...); see
            ``gpusim.kernel.INSTR_KINDS``.
        flops_fn: optional ``fn(shapes) -> flops`` used for throughput
            accounting; defaults derived from cost_kind.
        collective: True for operations (like ``wgmma``) that the
            hardware executes collectively across the threads issuing
            them. The functional executor strips the trailing
            mma-partition steps off the arguments and runs the numpy
            implementation once per collective group on the whole
            operands, modeling the hardware's semantics.
    """

    name: str
    numpy_impl: Callable
    cost_kind: str
    flops_fn: Optional[Callable[[Sequence[Tuple[int, ...]]], int]] = None
    collective: bool = False


class TaskRegistry:
    """All tasks, variants, and external functions of a program.

    A program is recorded into the registry it is declared with:
    ``@registry.task(...)`` and ``@registry.external_function(...)``
    register into ``registry`` and nowhere else.
    """

    def __init__(self) -> None:
        self.variants: Dict[str, TaskVariant] = {}
        self.tasks: Dict[str, List[str]] = {}
        self.externals: Dict[str, ExternalFunction] = {}
        #: ``id(code) -> (code, digest)``: the once-hashed bytecode of
        #: the bodies ``MappingSpec.fingerprint`` covers.
        self.code_digests: Dict[int, Tuple[Any, str]] = {}

    # -- tasks ---------------------------------------------------------
    def register_variant(self, variant: TaskVariant) -> None:
        if variant.variant_name in self.variants:
            raise TraceError(
                f"duplicate task variant {variant.variant_name!r}"
            )
        existing = self.tasks.get(variant.task_name)
        if existing:
            reference = self.variants[existing[0]]
            if reference.params != variant.params:
                raise TraceError(
                    f"variant {variant.variant_name!r} of task "
                    f"{variant.task_name!r} has signature {variant.params}, "
                    f"but existing variants have {reference.params}; all "
                    "variants of a task must share one signature"
                )
        self.variants[variant.variant_name] = variant
        self.tasks.setdefault(variant.task_name, []).append(
            variant.variant_name
        )

    def variant(self, name: str) -> TaskVariant:
        if name not in self.variants:
            raise TraceError(
                f"unknown task variant {name!r}; known variants: "
                f"{sorted(self.variants)}"
            )
        return self.variants[name]

    def variants_of(self, task_name: str) -> List[TaskVariant]:
        if task_name not in self.tasks:
            raise TraceError(f"unknown task {task_name!r}")
        return [self.variants[v] for v in self.tasks[task_name]]

    # -- externals -----------------------------------------------------
    def register_external(self, ext: ExternalFunction) -> None:
        if ext.name in self.externals:
            raise TraceError(f"duplicate external function {ext.name!r}")
        self.externals[ext.name] = ext

    def external(self, name: str) -> ExternalFunction:
        if name not in self.externals:
            raise TraceError(
                f"unknown external function {name!r}; known: "
                f"{sorted(self.externals)}"
            )
        return self.externals[name]

    # -- decorators ----------------------------------------------------
    def task(
        self,
        task_name: str,
        kind: str,
        reads: Sequence[str] = (),
        writes: Sequence[str] = (),
    ) -> Callable[[Callable], TaskVariant]:
        """Declare a task variant in this registry (the ``@task`` of the
        paper's Figure 5a).

        Args:
            task_name: the task being implemented; several variants may
                share this name.
            kind: ``Inner`` or ``Leaf``.
            reads: names of parameters read by this variant.
            writes: names of parameters written by this variant.
        """
        if kind not in (Inner, Leaf):
            raise TraceError(
                f"task kind must be Inner or Leaf, got {kind!r}"
            )

        def decorate(fn: Callable) -> TaskVariant:
            params = tuple(inspect.signature(fn).parameters)
            tensor_names = set(reads) | set(writes)
            unknown = tensor_names - set(params)
            if unknown:
                raise TraceError(
                    f"privileges name unknown parameters {sorted(unknown)} "
                    f"on variant {fn.__name__!r}"
                )
            privileges = {
                name: Privilege.combine(
                    name in set(reads), name in set(writes)
                )
                for name in params
                if name in tensor_names
            }
            variant = TaskVariant(
                task_name=task_name,
                variant_name=fn.__name__,
                kind=kind,
                fn=fn,
                params=params,
                privileges=privileges,
            )
            self.register_variant(variant)
            return variant

        return decorate

    def external_function(
        self,
        name: str,
        cost_kind: str,
        flops_fn: Optional[Callable] = None,
        collective: bool = False,
    ) -> Callable[[Callable], ExternalFunction]:
        """Register a numpy implementation callable from leaf tasks."""

        def decorate(fn: Callable) -> ExternalFunction:
            ext = ExternalFunction(
                name=name,
                numpy_impl=fn,
                cost_kind=cost_kind,
                flops_fn=flops_fn,
                collective=collective,
            )
            self.register_external(ext)
            return ext

        return decorate
