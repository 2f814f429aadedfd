"""Expression trees for the slot functions of a product-type map.

Each slot of F = F1*e1 + F2*e2 is a small holomorphic expression over
{constants, the variable, +, -, *, /, integer powers, exp, composition}.
Division nodes carry declared pole locations so a fit can verify they
stay clear of the target region; holomorphy on a neighborhood of the
region is otherwise the caller's assertion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import _pair_to_complex, _read_int
from .errors import DomainError
from .regions import PlanarRegion


class Expr:
    """Base expression node; supports numpy-vectorized evaluation."""

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def declared_poles(self) -> tuple[complex, ...]:
        return ()

    def to_json(self) -> dict:
        raise NotImplementedError

    # operator sugar -----------------------------------------------------

    @staticmethod
    def _lift(x) -> Expr:
        if isinstance(x, Expr):
            return x
        return Const(complex(x))

    def __add__(self, other):
        return Add(self, Expr._lift(other))

    def __radd__(self, other):
        return Add(Expr._lift(other), self)

    def __sub__(self, other):
        return Sub(self, Expr._lift(other))

    def __rsub__(self, other):
        return Sub(Expr._lift(other), self)

    def __mul__(self, other):
        return Mul(self, Expr._lift(other))

    def __rmul__(self, other):
        return Mul(Expr._lift(other), self)

    def __truediv__(self, other):
        return Div(self, Expr._lift(other))

    def __rtruediv__(self, other):
        return Div(Expr._lift(other), self)

    def __pow__(self, k: int):
        return Pow(self, _read_int(k, "pow exponent"))

    def __neg__(self):
        return Mul(Const(-1 + 0j), self)

    @staticmethod
    def from_json(obj: dict) -> Expr:
        op = obj.get("op")
        if op == "const":
            return Const(_pair_to_complex(obj["value"]))
        if op == "var":
            return Var()
        if op in ("add", "sub", "mul"):
            cls = {"add": Add, "sub": Sub, "mul": Mul}[op]
            a, b = obj["args"]
            return cls(Expr.from_json(a), Expr.from_json(b))
        if op == "div":
            a, b = obj["args"]
            poles = tuple(_pair_to_complex(p) for p in obj.get("poles", []))
            return Div(Expr.from_json(a), Expr.from_json(b), poles)
        if op == "pow":
            return Pow(Expr.from_json(obj["base"]), _read_int(obj["exponent"], "pow exponent"))
        if op == "exp":
            return Exp(Expr.from_json(obj["arg"]))
        if op == "compose":
            return Compose(Expr.from_json(obj["outer"]), Expr.from_json(obj["inner"]))
        raise ValueError(f"unknown expression op {op!r}")


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def evaluate(self, z):
        return np.full(np.shape(z), complex(self.value))

    def to_json(self):
        return {"op": "const", "value": [self.value.real, self.value.imag]}


@dataclass(frozen=True)
class Var(Expr):
    def evaluate(self, z):
        return np.asarray(z, dtype=complex)

    def to_json(self):
        return {"op": "var"}


@dataclass(frozen=True)
class _Binary(Expr):
    """A node with two operands; a subclass names its JSON op."""

    left: Expr
    right: Expr

    def evaluate(self, z):
        # the op is the operator's name: operator.add, operator.sub, operator.mul
        return getattr(operator, self._op)(self.left.evaluate(z), self.right.evaluate(z))

    def declared_poles(self):
        return self.left.declared_poles() + self.right.declared_poles()

    def to_json(self):
        return {"op": self._op, "args": [self.left.to_json(), self.right.to_json()]}


class Add(_Binary):
    _op = "add"


class Sub(_Binary):
    _op = "sub"


class Mul(_Binary):
    _op = "mul"


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr
    poles: tuple[complex, ...] = ()

    def evaluate(self, z):
        return self.num.evaluate(z) / self.den.evaluate(z)

    def declared_poles(self):
        return self.num.declared_poles() + self.den.declared_poles() + self.poles

    def to_json(self):
        return {
            "op": "div",
            "args": [self.num.to_json(), self.den.to_json()],
            "poles": [[p.real, p.imag] for p in self.poles],
        }


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def evaluate(self, z):
        return self.base.evaluate(z) ** self.exponent

    def declared_poles(self):
        poles = self.base.declared_poles()
        if self.exponent < 0 and isinstance(self.base, Var):
            poles = poles + (0j,)
        return poles

    def to_json(self):
        return {"op": "pow", "base": self.base.to_json(), "exponent": self.exponent}


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr

    def evaluate(self, z):
        return np.exp(self.arg.evaluate(z))

    def declared_poles(self):
        return self.arg.declared_poles()

    def to_json(self):
        return {"op": "exp", "arg": self.arg.to_json()}


@dataclass(frozen=True)
class Compose(Expr):
    outer: Expr
    inner: Expr

    def evaluate(self, z):
        return self.outer.evaluate(self.inner.evaluate(z))

    def declared_poles(self):
        # outer poles live in the inner image; only inner declarations are
        # locations in the variable's plane
        return self.inner.declared_poles()

    def to_json(self):
        return {"op": "compose", "outer": self.outer.to_json(), "inner": self.inner.to_json()}


def var() -> Var:
    return Var()


def const(value) -> Const:
    return Const(complex(value))


def exp(arg) -> Exp:
    return Exp(Expr._lift(arg))


@dataclass(frozen=True)
class FunctionSpec:
    """A product-type map given by one expression per idempotent slot."""

    f1: Expr
    f2: Expr

    def slot_expr(self, slot: int) -> Expr:
        return self.f1 if slot == 1 else self.f2

    def evaluate_slot(self, slot: int, z: np.ndarray) -> np.ndarray:
        return self.slot_expr(slot).evaluate(z)

    def to_json(self) -> dict:
        return {"f1": self.f1.to_json(), "f2": self.f2.to_json()}

    @staticmethod
    def from_json(obj: dict) -> FunctionSpec:
        return FunctionSpec(Expr.from_json(obj["f1"]), Expr.from_json(obj["f2"]))


def check_poles_clear(expr: Expr, region: PlanarRegion) -> None:
    """Raise if any declared pole of the expression meets the region."""
    for p in expr.declared_poles():
        if bool(region.contains(np.asarray([p]))[0]):
            raise DomainError(
                f"declared pole {p} lies inside the target region; the slot "
                "function is not holomorphic there"
            )
