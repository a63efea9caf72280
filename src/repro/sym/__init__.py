"""Small symbolic-integer expression language.

The Cypress compiler is fully static: tensor shapes and loop trip counts
are concrete integers at compile time. The only symbolic values are loop
induction variables (the ``k`` of an ``srange``/``pfor``) and the processor
indices substituted during vectorization (``thread_id()``). This package
provides just enough symbolic arithmetic to express tile indices such as
``k + 1`` or ``k % PIPE`` and to evaluate them under an environment.
"""

from repro.sym.expr import (
    BinOp,
    Const,
    Expr,
    ProcIndex,
    Var,
    affine_form,
    evaluate,
    simplify,
    substitute,
    to_expr,
    variables,
)

__all__ = [
    "BinOp",
    "Const",
    "Expr",
    "ProcIndex",
    "Var",
    "affine_form",
    "evaluate",
    "simplify",
    "substitute",
    "to_expr",
    "variables",
]
