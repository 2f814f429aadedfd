"""Bicomplex Moebius transformations on the extended bicomplex plane.

A map W -> (A*W + B) / (C*W + D) with bicomplex coefficients splits into an
ordinary complex Moebius map per idempotent slot.  Validity requires only
AD - BC outside the null cone; individual coefficients may be zero divisors,
which is what produces the four C1/C2 zero patterns:

    C1 = 0, C2 = 0   both slots affine, infinities map to infinities
    C1 != 0, C2 = 0  slot 1 has a pole at -D1/C1 and sends inf to A1/C1;
                     slot 2 is affine
    C1 = 0, C2 != 0  mirror image
    C1 != 0, C2 != 0 both slots have poles; the pole pair maps to inf/inf
                     and inf/inf maps to (A1/C1, A2/C2)

Pole bookkeeping is floating-point aware: a slot denominator smaller than
1e-13 relative to |C||beta| + |D| is treated as the pole and the slot value
becomes the point at infinity.  Where a component of beta, C, D, A beta + B
or C beta + D reaches half the float range, sizes are measured by the larger
component, and a beta larger than 1 is divided out: the slot evaluates
(A + B/beta)/(C + D/beta), with the pole snap scaled to match.  A finite
beta whose slot quotient still overflows, inside the division or in its
value, is a DomainError, not the point at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import INF, Bicomplex, ExtendedBicomplex, _slot_is_inf
from .errors import DegenerateMapError, DomainError

_POLE_SNAP = 1e-13
_HALF_FLOAT_RANGE = 2.0**1023


@dataclass(frozen=True)
class MoebiusMap:
    """Validated coefficients of a bicomplex Moebius transformation."""

    a: Bicomplex
    b: Bicomplex
    c: Bicomplex
    d: Bicomplex
    det: Bicomplex = field(init=False)

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        # an exact zero test: abs() of a slot beyond half the range overflows
        if det.beta1 == 0 or det.beta2 == 0:
            raise DegenerateMapError(
                f"determinant {det} lies in the null cone; the slot maps are "
                "not both invertible"
            )
        object.__setattr__(self, "det", det)

    @property
    def c_is_zero(self) -> tuple[bool, bool]:
        """Which idempotent slots of C vanish (exact comparison)."""
        return (self.c.beta1 == 0, self.c.beta2 == 0)

    def slot_coeffs(self, slot: int) -> tuple[complex, complex, complex, complex]:
        """(A_l, B_l, C_l, D_l) for slot l in {1, 2}."""
        pick = (lambda z: z.beta1) if slot == 1 else (lambda z: z.beta2)
        return (pick(self.a), pick(self.b), pick(self.c), pick(self.d))

    def to_json(self) -> dict:
        return {
            "A": self.a.to_json(),
            "B": self.b.to_json(),
            "C": self.c.to_json(),
            "D": self.d.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> MoebiusMap:
        return moebius_new(*(Bicomplex.from_json(obj[k]) for k in ("A", "B", "C", "D")))


def moebius_new(a: Bicomplex, b: Bicomplex, c: Bicomplex, d: Bicomplex) -> MoebiusMap:
    """Validate coefficients and build the map; DegenerateMapError if the
    determinant AD - BC meets the null cone in either slot."""
    return MoebiusMap(a, b, c, d)


def _mag(z: complex) -> float:
    """The larger component of z in absolute value; unlike abs(), it never
    overflows."""
    return max(abs(z.real), abs(z.imag))


def _below_half_range(z: complex) -> bool:
    return abs(z.real) < _HALF_FLOAT_RANGE and abs(z.imag) < _HALF_FLOAT_RANGE


def _quotient(num: complex, den: complex, beta: complex) -> complex:
    """num / den, or a DomainError where the division overflows.  Python
    divides by Smith's method, whose denominator hi + lo * (lo / hi) in the
    parts of den overflows near the top of the float range and then gives
    NaN or a wrong 0; an overflowing numerator or quotient gives inf."""
    value = num / den
    hi, lo = max(abs(den.real), abs(den.imag)), min(abs(den.real), abs(den.imag))
    if _slot_is_inf(value) or math.isinf(hi + lo * (lo / hi)):
        raise DomainError(f"evaluating the map's slot at {beta} overflows the float range")
    return value


def _apply_slot(a: complex, b: complex, c: complex, d: complex, beta: complex) -> complex:
    if _slot_is_inf(beta):
        # inf -> A/C when the slot truly is fractional, else stays at inf.
        return _quotient(a, c, beta) if c != 0 else INF
    if c == 0:
        # affine slot; d != 0 is guaranteed by the determinant check
        return _quotient(a * beta + b, d, beta)
    num, den = a * beta + b, c * beta + d
    if all(map(_below_half_range, (beta, c, d, num, den))):
        if abs(den) <= _POLE_SNAP * (abs(c) * abs(beta) + abs(d)):
            return INF
        return _quotient(num, den, beta)
    # past half the float range abs() can raise OverflowError and the direct
    # products overflow: divide through by a large beta, and measure sizes by
    # _mag, each term scaled before the sum
    if _mag(beta) > 1:
        num, den, cb, db = a + b / beta, c + d / beta, _mag(c), _mag(d / beta)
    else:
        cb, db = _mag(c) * _mag(beta), _mag(d)
    if _mag(den) <= _POLE_SNAP * cb + _POLE_SNAP * db:
        return INF
    return _quotient(num, den, beta)


def moebius_apply(m: MoebiusMap, z: ExtendedBicomplex | Bicomplex) -> ExtendedBicomplex:
    """Evaluate the map slot-by-slot with extended-value conventions."""
    if isinstance(z, Bicomplex):
        z = ExtendedBicomplex.from_bicomplex(z)
    return ExtendedBicomplex(
        _apply_slot(*m.slot_coeffs(1), z.c1),
        _apply_slot(*m.slot_coeffs(2), z.c2),
    )


def moebius_compose(m: MoebiusMap, n: MoebiusMap) -> MoebiusMap:
    """The map z -> m(n(z)); coefficient matrices multiply slot-wise."""
    return MoebiusMap(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def moebius_inverse(m: MoebiusMap) -> MoebiusMap:
    """Inverse up to the scalar det(m): coefficients (D, -B, -C, A)."""
    return MoebiusMap(m.d, -m.b, -m.c, m.a)


def identity_map() -> MoebiusMap:
    one = Bicomplex.from_scalar(1)
    zero = Bicomplex.from_scalar(0)
    return MoebiusMap(one, zero, zero, one)
