"""Tests for the symbolic expression language."""

import pytest
from hypothesis import given, strategies as st

from repro.sym import (
    BinOp,
    Const,
    Var,
    evaluate,
    simplify,
    substitute,
    to_expr,
    variables,
)


class TestConstruction:
    def test_to_expr_int(self):
        assert to_expr(5) == Const(5)

    def test_to_expr_passthrough(self):
        v = Var("k")
        assert to_expr(v) is v

    def test_to_expr_rejects_bool(self):
        with pytest.raises(TypeError):
            to_expr(True)

    def test_to_expr_rejects_float(self):
        with pytest.raises(TypeError):
            to_expr(1.5)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            BinOp("^", Const(1), Const(2))


class TestArithmetic:
    def test_constant_folding(self):
        assert Var("k") * 0 == Const(0)
        assert (to_expr(3) + 4) == Const(7)

    def test_identities(self):
        k = Var("k")
        assert k + 0 is k or k + 0 == k
        assert k * 1 == k
        assert k % 1 == Const(0)
        assert k // 1 == k

    def test_radd_rsub(self):
        k = Var("k")
        assert evaluate(1 + k, {"k": 4}) == 5
        assert evaluate(10 - k, {"k": 4}) == 6

    def test_mod_expression(self):
        k = Var("k")
        expr = (k + 1) % 3
        assert evaluate(expr, {"k": 2}) == 0
        assert evaluate(expr, {"k": 3}) == 1


class TestEvaluate:
    def test_unbound_variable_raises(self):
        with pytest.raises(KeyError):
            evaluate(Var("q"), {})

    def test_nested(self):
        k, j = Var("k"), Var("j")
        assert evaluate((k * 4 + j) % 8, {"k": 3, "j": 1}) == 5


class TestSubstitute:
    def test_simple(self):
        k = Var("k")
        out = substitute(k + 2, {"k": Const(3)})
        assert out == Const(5)

    def test_partial(self):
        k, j = Var("k"), Var("j")
        out = substitute(k + j, {"k": Const(1)})
        assert variables(out) == {"j"}


class TestVariables:
    def test_collects_all(self):
        k, j = Var("k"), Var("j")
        assert variables(k * 3 + j % 2) == {"k", "j"}

    def test_const_has_none(self):
        assert variables(Const(7)) == set()


@given(
    k=st.integers(min_value=0, max_value=10**6),
    c=st.integers(min_value=1, max_value=1000),
)
def test_simplify_preserves_value(k, c):
    expr = (Var("k") + c) * 2 % (c + 1)
    assert evaluate(simplify(expr), {"k": k}) == ((k + c) * 2) % (c + 1)
