"""Expression trees: evaluation, declared poles, JSON."""

import numpy as np
import pytest

from bcapprox import Disk, DomainError, FunctionSpec, exp, var
from bcapprox.funcspec import (
    Add,
    Compose,
    Const,
    Div,
    Expr,
    Mul,
    Pow,
    Sub,
    Var,
    check_poles_clear,
)


def test_arithmetic_evaluation():
    z = np.array([0.5 + 0.5j, -1j, 2.0])
    e = (var() ** 2 + 1) * var() - 3
    assert np.allclose(e.evaluate(z), (z**2 + 1) * z - 3)
    e2 = exp(var()) / (var() + 2)
    assert np.allclose(e2.evaluate(z), np.exp(z) / (z + 2))


def test_binary_nodes_keep_their_operator_op_and_identity():
    # the three nodes share one implementation; each keeps its own operator,
    # JSON op, class and equality
    z = np.array([0.5 + 0.5j, -1j, 2.0])
    a, b = Var(), Div(Const(1), var() - 3, poles=(3 + 0j,))
    bz = 1 / (z - 3)
    for cls, op, want in ((Add, "add", z + bz), (Sub, "sub", z - bz), (Mul, "mul", z * bz)):
        node = cls(a, b)
        assert np.array_equal(node.evaluate(z), want)
        assert node.declared_poles() == (3 + 0j,)
        assert node.to_json()["op"] == op
        assert type(Expr.from_json(node.to_json())) is cls
    assert Add(a, b) != Sub(a, b) and Sub(a, b) != Mul(a, b) and Add(a, b) == Add(a, b)


def test_compose_and_negative_power():
    z = np.array([0.5, 2.0 + 1j])
    e = Compose(exp(var()), Pow(Var(), -1))  # exp(1/z)
    assert np.allclose(e.evaluate(z), np.exp(1 / z))
    assert 0j in e.declared_poles()


def test_declared_poles_collected():
    e = Div(Const(1), var() - 2, poles=(2 + 0j,)) + Div(Const(1), var(), poles=(0j,))
    assert set(e.declared_poles()) == {2 + 0j, 0j}


def test_check_poles_clear():
    inside = Div(Const(1), var(), poles=(0j,))
    with pytest.raises(DomainError):
        check_poles_clear(inside, Disk(0, 1.0))
    outside = Div(Const(1), var() - 2, poles=(2 + 0j,))
    check_poles_clear(outside, Disk(0, 1.0))


def test_json_roundtrip():
    e = Compose(exp(var()), Div(Const(1), var(), poles=(0j,))) * 3 + var() ** 4
    again = Expr.from_json(e.to_json())
    z = np.array([0.7 + 0.2j, -0.5j])
    assert np.allclose(again.evaluate(z), e.evaluate(z))
    f = FunctionSpec(e, var())
    f2 = FunctionSpec.from_json(f.to_json())
    assert np.allclose(f2.evaluate_slot(1, z), f.evaluate_slot(1, z))
    with pytest.raises(ValueError):
        Expr.from_json({"op": "sinh"})
