"""The Cypress embedded DSL (paper section 3, Figures 3 and 5).

Programs are written as Python functions decorated with a registry's
:meth:`~TaskRegistry.task`.
Inner variants may create tensors, partition them, and launch sub-tasks
(inline, via :func:`srange`, or via :func:`prange`); leaf variants invoke
registered external functions. Mapping specifications bind the task tree
to a machine.
"""

from repro.frontend.privileges import Privilege
from repro.frontend.task import (
    Inner,
    Leaf,
    TaskRegistry,
    TaskVariant,
)
from repro.frontend.context import (
    call_external,
    launch,
    make_tensor,
    prange,
    srange,
    trace_variant,
    tunable,
)
from repro.frontend.mapping import MappingSpec, TaskMapping
from repro.frontend.stmts import (
    CallExternalStmt,
    LaunchStmt,
    LoopStmt,
    MakeTensorStmt,
    Statement,
    TaskTrace,
)

__all__ = [
    "Privilege",
    "Inner",
    "Leaf",
    "TaskRegistry",
    "TaskVariant",
    "launch",
    "srange",
    "prange",
    "tunable",
    "make_tensor",
    "call_external",
    "trace_variant",
    "MappingSpec",
    "TaskMapping",
    "Statement",
    "LaunchStmt",
    "LoopStmt",
    "MakeTensorStmt",
    "CallExternalStmt",
    "TaskTrace",
]
