"""Symbolic integer expressions used for loop indices.

Expressions form a tiny tree language: constants, named variables,
processor-index leaves, and binary operations. They are immutable and
hashable so they can serve as dictionary keys inside the compiler.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Set, Tuple, Union

IntoExpr = Union["Expr", int]

_OPS: Dict[str, Callable[[int, int], int]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": operator.floordiv,
    "%": operator.mod,
    "min": min,
    "max": max,
}


class Expr:
    """Base class for symbolic integer expressions."""

    def __add__(self, other: IntoExpr) -> "Expr":
        return _binop("+", self, other)

    def __radd__(self, other: IntoExpr) -> "Expr":
        return _binop("+", other, self)

    def __sub__(self, other: IntoExpr) -> "Expr":
        return _binop("-", self, other)

    def __rsub__(self, other: IntoExpr) -> "Expr":
        return _binop("-", other, self)

    def __mul__(self, other: IntoExpr) -> "Expr":
        return _binop("*", self, other)

    def __rmul__(self, other: IntoExpr) -> "Expr":
        return _binop("*", other, self)

    def __floordiv__(self, other: IntoExpr) -> "Expr":
        return _binop("//", self, other)

    def __rfloordiv__(self, other: IntoExpr) -> "Expr":
        return _binop("//", other, self)

    def __mod__(self, other: IntoExpr) -> "Expr":
        return _binop("%", self, other)

    def __rmod__(self, other: IntoExpr) -> "Expr":
        return _binop("%", other, self)


@dataclass(frozen=True)
class Const(Expr):
    """A literal integer."""

    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A named symbolic variable (a loop induction variable)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ProcIndex(Expr):
    """The index of the executing processor at a machine level.

    Introduced by the vectorization pass when an implicit parallel loop
    over e.g. warps is flattened: the loop variable is replaced by
    ``ProcIndex("warp")``, which code generation renders as ``warp_id()``.
    """

    level: str

    def __repr__(self) -> str:
        return f"{self.level}_id()"


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary operation over two sub-expressions."""

    op: str
    lhs: Expr
    rhs: Expr

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown symbolic operator {self.op!r}")

    def __repr__(self) -> str:
        if self.op in ("min", "max"):
            return f"{self.op}({self.lhs!r}, {self.rhs!r})"
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


def to_expr(value: IntoExpr) -> Expr:
    """Coerce an ``int`` or :class:`Expr` into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"cannot build a symbolic expression from {value!r}")
    return Const(value)


def _binop(op: str, lhs: IntoExpr, rhs: IntoExpr) -> Expr:
    return simplify(BinOp(op, to_expr(lhs), to_expr(rhs)))


def simplify(expr: Expr) -> Expr:
    """Constant-fold and apply identity rules to one expression node."""
    if not isinstance(expr, BinOp):
        return expr
    lhs, rhs = simplify(expr.lhs), simplify(expr.rhs)
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return Const(_OPS[expr.op](lhs.value, rhs.value))
    if expr.op == "+":
        if lhs == Const(0):
            return rhs
        if rhs == Const(0):
            return lhs
    if expr.op == "-" and rhs == Const(0):
        return lhs
    if expr.op == "*":
        if lhs == Const(1):
            return rhs
        if rhs == Const(1):
            return lhs
        if Const(0) in (lhs, rhs):
            return Const(0)
    if expr.op == "//" and rhs == Const(1):
        return lhs
    if expr.op == "%" and rhs == Const(1):
        return Const(0)
    return BinOp(expr.op, lhs, rhs)


def evaluate(expr: IntoExpr, env: Mapping[str, int]) -> int:
    """Evaluate ``expr`` to an integer under ``env``.

    Processor indices are looked up under their level name (for example
    ``env["warp"]``), matching how the simulator binds lane identities.
    """
    expr = to_expr(expr)
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in env:
            raise KeyError(f"unbound symbolic variable {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, ProcIndex):
        if expr.level not in env:
            raise KeyError(f"unbound processor index {expr.level!r}")
        return env[expr.level]
    if isinstance(expr, BinOp):
        return _OPS[expr.op](evaluate(expr.lhs, env), evaluate(expr.rhs, env))
    raise TypeError(f"unknown expression node {expr!r}")


def substitute(expr: IntoExpr, bindings: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions, simplifying the result."""
    expr = to_expr(expr)
    if isinstance(expr, Const) or isinstance(expr, ProcIndex):
        return expr
    if isinstance(expr, Var):
        return bindings.get(expr.name, expr)
    if isinstance(expr, BinOp):
        return simplify(
            BinOp(
                expr.op,
                substitute(expr.lhs, bindings),
                substitute(expr.rhs, bindings),
            )
        )
    raise TypeError(f"unknown expression node {expr!r}")


def affine_form(expr: IntoExpr) -> "Optional[Tuple[int, Dict[str, int]]]":
    """Decompose ``expr`` into ``constant + sum(coeff * var)``, or ``None``.

    Returns ``(constant, {name: coeff})`` when the expression is an
    affine combination of variables (and processor indices, keyed by
    their level name) with integer coefficients; ``None`` when any
    non-affine operator (``//``, ``%``, ``min``, ``max`` over
    symbolic operands, or a product of two symbolic terms) appears. The
    region algebra uses this to reason about partition indices without
    enumerating iteration environments.
    """
    expr = to_expr(expr)
    if isinstance(expr, Const):
        return expr.value, {}
    if isinstance(expr, Var):
        return 0, {expr.name: 1}
    if isinstance(expr, ProcIndex):
        return 0, {expr.level: 1}
    if not isinstance(expr, BinOp):
        return None
    lhs = affine_form(expr.lhs)
    rhs = affine_form(expr.rhs)
    if lhs is None or rhs is None:
        return None
    lc, lv = lhs
    rc, rv = rhs
    if expr.op == "+":
        return lc + rc, _merge_coeffs(lv, rv, 1)
    if expr.op == "-":
        return lc - rc, _merge_coeffs(lv, rv, -1)
    if expr.op == "*":
        if not rv:  # symbolic * constant
            return lc * rc, {n: c * rc for n, c in lv.items() if c * rc}
        if not lv:  # constant * symbolic
            return lc * rc, {n: c * lc for n, c in rv.items() if c * lc}
        return None
    return None  # //, %, min, max are not affine


def _merge_coeffs(
    lhs: Dict[str, int], rhs: Dict[str, int], sign: int
) -> Dict[str, int]:
    out = dict(lhs)
    for name, coeff in rhs.items():
        merged = out.get(name, 0) + sign * coeff
        if merged:
            out[name] = merged
        else:
            out.pop(name, None)
    return out


def variables(expr: IntoExpr) -> Set[str]:
    """The set of free variable names in ``expr`` (processor indices too)."""
    expr = to_expr(expr)
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, ProcIndex):
        return {expr.level}
    if isinstance(expr, BinOp):
        return variables(expr.lhs) | variables(expr.rhs)
    raise TypeError(f"unknown expression node {expr!r}")
