"""Bicomplex arithmetic over floating complex components.

A bicomplex number is Z = Z1 + j*Z2 with Z1, Z2 in C(i) and commuting
imaginary units i, j (k = ij, k^2 = 1).  Everything here is built on the
idempotent decomposition

    Z = beta1*e1 + beta2*e2,    e1 = (1+k)/2,  e2 = (1-k)/2,

with beta1 = Z1 - i*Z2 and beta2 = Z1 + i*Z2.  Since e1*e2 = 0 and
e_l^2 = e_l, ring operations act independently on the two complex slots,
so the idempotent pair is the canonical internal representation and the
cartesian pair (Z1, Z2) is a derived view.

Zero divisors are exactly the nonzero elements with beta1*beta2 = 0 (the
null cone); they are the reason division needs a guard.  Sizes are
measured by the hyperbolic norm |Z|_k = |beta1|*e1 + |beta2|*e2, a pair
of nonnegative reals compared componentwise (a partial order).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, NullConeError

_Number = (int, float, complex)


@dataclass(frozen=True)
class Hyperbolic:
    """A hyperbolic (D-valued) quantity a1*e1 + a2*e2 with real components.

    Instances produced as norms have a1 >= 0 and a2 >= 0.  The natural
    comparison is the componentwise partial order; ``leq``/``lt`` lift real
    scalars to the diagonal (t, t), matching 1 = e1 + e2.
    """

    a1: float
    a2: float

    def __post_init__(self):
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))

    def _coerce(self, other) -> Hyperbolic:
        if isinstance(other, Hyperbolic):
            return other
        if isinstance(other, (int, float)):
            return Hyperbolic(float(other), float(other))
        raise TypeError(f"cannot compare Hyperbolic with {type(other).__name__}")

    def leq(self, other) -> bool:
        other = self._coerce(other)
        return self.a1 <= other.a1 and self.a2 <= other.a2

    def lt(self, other) -> bool:
        other = self._coerce(other)
        return self.a1 < other.a1 and self.a2 < other.a2

    def geq(self, other) -> bool:
        return self._coerce(other).leq(self)

    def gt(self, other) -> bool:
        return self._coerce(other).lt(self)

    def __add__(self, other) -> Hyperbolic:
        other = self._coerce(other)
        return Hyperbolic(self.a1 + other.a1, self.a2 + other.a2)

    def __mul__(self, other) -> Hyperbolic:
        other = self._coerce(other)
        return Hyperbolic(self.a1 * other.a1, self.a2 * other.a2)

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[float, float]:
        return (self.a1, self.a2)

    def max_component(self) -> float:
        return max(self.a1, self.a2)


def hyp_leq(h: Hyperbolic, g) -> bool:
    """Componentwise partial order on hyperbolic values (scalars lift to
    the diagonal)."""
    return h.leq(g)


@dataclass(frozen=True)
class Bicomplex:
    """A bicomplex number stored as its idempotent pair (beta1, beta2)."""

    beta1: complex
    beta2: complex

    def __post_init__(self):
        object.__setattr__(self, "beta1", complex(self.beta1))
        object.__setattr__(self, "beta2", complex(self.beta2))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_cartesian(z1: complex, z2: complex = 0j) -> Bicomplex:
        """Build Z = Z1 + j*Z2 from its cartesian components."""
        b1, b2 = idempotent_decompose(z1, z2)
        return Bicomplex(b1, b2)

    @staticmethod
    def from_scalar(x) -> Bicomplex:
        """Lift a real/complex scalar to the diagonal (x, x)."""
        x = complex(x)
        return Bicomplex(x, x)

    # -- cartesian view ------------------------------------------------

    @property
    def z1(self) -> complex:
        return (self.beta1 + self.beta2) / 2

    @property
    def z2(self) -> complex:
        return 1j * (self.beta1 - self.beta2) / 2

    def cartesian(self) -> tuple[complex, complex]:
        return (self.z1, self.z2)

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> Bicomplex:
        if isinstance(other, Bicomplex):
            return other
        if isinstance(other, _Number):
            return Bicomplex.from_scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(self.beta1 + other.beta1, self.beta2 + other.beta2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(self.beta1 - other.beta1, self.beta2 - other.beta2)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> Bicomplex:
        return Bicomplex(-self.beta1, -self.beta2)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(self.beta1 * other.beta1, self.beta2 * other.beta2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.invert()

    def __pow__(self, n: int) -> Bicomplex:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.invert() ** (-n)
        return Bicomplex(self.beta1 ** n, self.beta2 ** n)

    # -- structure ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.beta1 == 0 and self.beta2 == 0

    def in_null_cone(self, tol: float = 0.0) -> bool:
        """True iff Z is zero or a zero divisor, i.e. min(|b1|, |b2|) <= tol."""
        return min(_modulus(self.beta1), _modulus(self.beta2)) <= tol

    def is_zero_divisor(self, tol: float = 0.0) -> bool:
        return not self.is_zero() and self.in_null_cone(tol)

    def invert(self, tol: float = 0.0) -> Bicomplex:
        """Componentwise reciprocal; raises NullConeError on the null cone."""
        if self.in_null_cone(tol):
            raise NullConeError(
                f"not invertible: idempotent components ({self.beta1}, {self.beta2}) "
                f"meet the null cone at tolerance {tol}"
            )
        return Bicomplex(1 / self.beta1, 1 / self.beta2)

    def conjugate(self, kind: str) -> Bicomplex:
        """One of the three conjugations.

        In cartesian form: bar sends Z1 + j*Z2 to conj(Z1) + j*conj(Z2),
        dagger to Z1 - j*Z2, star to conj(Z1) - j*conj(Z2).  On the
        idempotent pair these act as (conj b2, conj b1), (b2, b1) and
        (conj b1, conj b2) respectively; each is an involution.
        """
        if kind == "bar":
            return Bicomplex(self.beta2.conjugate(), self.beta1.conjugate())
        if kind == "dagger":
            return Bicomplex(self.beta2, self.beta1)
        if kind == "star":
            return Bicomplex(self.beta1.conjugate(), self.beta2.conjugate())
        raise ValueError(f"unknown conjugation kind {kind!r} (want bar/dagger/star)")

    def norm_k(self) -> Hyperbolic:
        """The hyperbolic norm (|beta1|, |beta2|); multiplicative per slot."""
        return Hyperbolic(_modulus(self.beta1), _modulus(self.beta2))

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """Idempotent-form JSON object {"b1": [re, im], "b2": [re, im]}."""
        return {
            "b1": [self.beta1.real, self.beta1.imag],
            "b2": [self.beta2.real, self.beta2.imag],
        }

    @staticmethod
    def from_json(obj: dict, where: str = "bicomplex") -> Bicomplex:
        """Read either the idempotent form {"b1", "b2"} or the cartesian
        form {"z1", "z2"}; ``where`` names the node in a refusal."""
        return Bicomplex(*idempotent_pair_from_json(obj, where))


def idempotent_pair_from_json(obj: dict, where: str = "bicomplex") -> tuple[complex, complex]:
    """The idempotent pair (beta1, beta2) of a bicomplex JSON object in
    either accepted form, without building a :class:`Bicomplex`; ``where``
    names the node in a refusal, formatted only then."""
    if not isinstance(obj, dict):
        _read_node(obj, dict, where, "an object with keys b1/b2 or z1/z2")
    if "b1" in obj and "b2" in obj:
        return (_pair_to_complex(obj["b1"], where, "b1"), _pair_to_complex(obj["b2"], where, "b2"))
    if "z1" in obj and "z2" in obj:
        z1, z2 = _pair_to_complex(obj["z1"], where, "z1"), _pair_to_complex(obj["z2"], where, "z2")
        return idempotent_decompose(z1, z2)
    raise ValueError(f"{where} needs keys b1/b2 or z1/z2")


def _modulus(z: complex) -> float:
    """abs(z), or inf where the modulus lies beyond the float range and
    abs() raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


# -- the one reader of input nodes: a malformed node of an input file is
# refused as "<place> must be <what>, got <type>", the place being the
# file's kind and the node's key path

_REALS = (float, int)  # the types of a JSON number; a bool has its own


def _read_node(v, kind: type, where: str, what: str, length: int | None = None):
    """v when it is a JSON object (``kind`` dict) or list (``kind`` list, of
    ``length`` items when given); anything else is refused by its place."""
    if isinstance(v, kind) and length in (None, len(v)):
        return v
    got = f"{len(v)} items" if isinstance(v, kind) else type(v).__name__
    raise ValueError(f"{where} must be {what}, got {got}")


def _pair_to_complex(v, where: str, key: str = "") -> complex:
    """A JSON number, or an [re, im] pair of them, as a complex; anything
    else is refused by its place, ``where`` or, with a ``key``, ``where.key``
    (formatted only then: series files read two pairs per coefficient)."""
    try:
        if type(v) is list and len(v) == 2:
            re, im = v
            if type(re) in _REALS and type(im) in _REALS:
                return complex(re, im)
        elif type(v) in _REALS:
            return complex(v)
        problem = f"must be a number or a pair of numbers, expected [re, im], got {v!r}"
    except OverflowError:
        problem = "lies beyond the float range"
    raise ValueError(f"{where}.{key} {problem}" if key else f"{where} {problem}")


def _read_float(v, where: str) -> float:
    """v as a float when it is a JSON number within the float range."""
    if type(v) in _REALS:
        return _pair_to_complex(v, where).real
    raise ValueError(f"{where} must be a number, got {type(v).__name__}")


def _read_pairs(v, where: str) -> tuple[complex, ...]:
    """A JSON list of numbers or [re, im] pairs, each named by its place."""
    items = _read_node(v, list, where, "a list")
    return tuple(_pair_to_complex(c, f"{where}[{i}]") for i, c in enumerate(items))


def _read_int(v, where: str) -> int:
    """v as an int when it is an integer or an integral float; a bool, a
    fraction or anything else is refused by its place, never rounded."""
    if not isinstance(v, bool):
        if isinstance(v, numbers.Integral):
            return int(v)
        if isinstance(v, float) and v.is_integer():
            return int(v)
    raise ValueError(f"{where} must be an integer, got {v!r}")


# -- module-level operation surface (mirrors the method API) -------------


def idempotent_decompose(z1: complex, z2: complex) -> tuple[complex, complex]:
    """Cartesian pair (Z1, Z2) -> idempotent pair (Z1 - i*Z2, Z1 + i*Z2)."""
    z1 = complex(z1)
    z2 = complex(z2)
    return (z1 - 1j * z2, z1 + 1j * z2)


def idempotent_compose(beta1: complex, beta2: complex) -> tuple[complex, complex]:
    """Inverse of :func:`idempotent_decompose`."""
    beta1 = complex(beta1)
    beta2 = complex(beta2)
    return ((beta1 + beta2) / 2, 1j * (beta1 - beta2) / 2)


def multiply(z: Bicomplex, w: Bicomplex) -> Bicomplex:
    return z * w


def invert(z: Bicomplex, tol: float = 0.0) -> Bicomplex:
    return z.invert(tol)


def conjugate(z: Bicomplex, kind: str) -> Bicomplex:
    return z.conjugate(kind)


def norm_k(z: Bicomplex) -> Hyperbolic:
    return z.norm_k()


def is_zero_divisor(z: Bicomplex, tol: float = 0.0) -> bool:
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    return z.is_zero_divisor(tol)


# Units of the algebra.
ZERO = Bicomplex(0j, 0j)
ONE = Bicomplex(1 + 0j, 1 + 0j)
I = Bicomplex.from_cartesian(1j, 0)
J = Bicomplex.from_cartesian(0, 1)
K = Bicomplex.from_cartesian(0, 1j)
E1 = Bicomplex(1 + 0j, 0j)
E2 = Bicomplex(0j, 1 + 0j)


# -- extended values -------------------------------------------------------

#: Canonical point at infinity for one idempotent slot.
INF = complex(math.inf, 0.0)


def _slot_is_inf(c: complex) -> bool:
    return not (math.isfinite(c.real) and math.isfinite(c.imag))


@dataclass(frozen=True)
class ExtendedBicomplex:
    """A point of the extended bicomplex plane.

    Each idempotent slot holds either a finite complex number or the point
    at infinity of that slot's Riemann sphere, giving exactly four kinds:
    finite/finite, inf/finite, finite/inf, inf/inf.  Slots that arrive
    infinite are canonicalized to :data:`INF`; a NaN slot is neither a
    finite value nor infinity and raises DomainError.
    """

    c1: complex
    c2: complex

    def __post_init__(self):
        for name in ("c1", "c2"):
            c = complex(getattr(self, name))
            if math.isinf(c.real) or math.isinf(c.imag):
                c = INF
            elif math.isnan(c.real) or math.isnan(c.imag):
                raise DomainError(f"extended bicomplex slot {name} is NaN: {c}")
            object.__setattr__(self, name, c)

    @staticmethod
    def from_bicomplex(z: Bicomplex) -> ExtendedBicomplex:
        return ExtendedBicomplex(z.beta1, z.beta2)

    @property
    def inf1(self) -> bool:
        return _slot_is_inf(self.c1)

    @property
    def inf2(self) -> bool:
        return _slot_is_inf(self.c2)

    def kind(self) -> str:
        return ("inf" if self.inf1 else "finite") + "/" + (
            "inf" if self.inf2 else "finite"
        )

    def is_finite(self) -> bool:
        return not (self.inf1 or self.inf2)

    def to_bicomplex(self) -> Bicomplex:
        if not self.is_finite():
            raise ValueError(f"{self.kind()} extended value is not a bicomplex number")
        return Bicomplex(self.c1, self.c2)

    def to_json(self) -> dict:
        return {
            "b1": "inf" if self.inf1 else [self.c1.real, self.c1.imag],
            "b2": "inf" if self.inf2 else [self.c2.real, self.c2.imag],
        }

    @staticmethod
    def from_json(obj: dict, where: str = "extended bicomplex") -> ExtendedBicomplex:
        def slot(k):
            return INF if obj[k] == "inf" else _pair_to_complex(obj[k], where, k)

        if isinstance(obj, dict) and "inf" in (obj.get("b1"), obj.get("b2")):
            return ExtendedBicomplex(slot("b1"), slot("b2"))
        return ExtendedBicomplex.from_bicomplex(Bicomplex.from_json(obj, where))
