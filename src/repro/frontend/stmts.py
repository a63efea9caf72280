"""Statements recorded by the frontend tracer.

A traced task body is a list of statements: tensor creations, sub-task
launches, loops (sequential or parallel) containing nested statements,
and external calls (leaf bodies). These are the input to the dependence
analysis pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.sym import Var
from repro.tensors.tensor import LogicalTensor, TensorRef


class Statement:
    """Base class for traced statements."""


@dataclass
class MakeTensorStmt(Statement):
    """A ``make_tensor`` call creating a task-local tensor."""

    tensor: LogicalTensor

    def __repr__(self) -> str:
        return f"make_tensor({self.tensor!r})"


@dataclass
class LaunchStmt(Statement):
    """A sub-task launch with tensor and scalar arguments.

    ``to`` optionally names the task-mapping instance the launch should
    dispatch to; needed when one task body launches the same task with
    different mappings (e.g. the two GEMMs of Flash Attention).
    """

    task_name: str
    args: Tuple[Any, ...]  # TensorRef or scalar
    to: Any = None

    def tensor_args(self) -> List[TensorRef]:
        return [a for a in self.args if isinstance(a, TensorRef)]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"launch({self.task_name!r}, {args})"


@dataclass
class LoopStmt(Statement):
    """An ``srange`` (sequential) or ``prange`` (parallel) loop.

    Multi-dimensional ranges carry one induction variable and one extent
    per dimension; the body was traced once with symbolic indices.
    """

    parallel: bool
    indices: Tuple[Var, ...]
    extents: Tuple[int, ...]
    body: List[Statement] = field(default_factory=list)

    def __repr__(self) -> str:
        kind = "prange" if self.parallel else "srange"
        idx = ",".join(v.name for v in self.indices)
        ext = ",".join(map(str, self.extents))
        return f"{kind} {idx} in ({ext}) [{len(self.body)} stmts]"


@dataclass
class CallExternalStmt(Statement):
    """A ``call_external`` in a leaf task body."""

    function: str
    args: Tuple[Any, ...]

    def tensor_args(self) -> List[TensorRef]:
        return [a for a in self.args if isinstance(a, TensorRef)]

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"call_external({self.function!r}, {args})"


@dataclass
class TaskTrace:
    """The result of tracing one task variant under one tunable binding."""

    variant_name: str
    statements: List[Statement]
    local_tensors: List[LogicalTensor]
    tunables_used: Dict[str, Any]
