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
becomes the point at infinity.  Where a component of beta, A beta + B or
C beta + D reaches half the float range, and beta is larger than 1, the slot
evaluates (A + B/beta)/(C + D/beta) instead, with the pole snap scaled to
match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import INF, Bicomplex, ExtendedBicomplex, _slot_is_inf
from .errors import DegenerateMapError

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
        if det.in_null_cone():
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


def _apply_slot(a: complex, b: complex, c: complex, d: complex, beta: complex) -> complex:
    if _slot_is_inf(beta):
        # inf -> A/C when the slot truly is fractional, else stays at inf.
        return a / c if c != 0 else INF
    if c == 0:
        # affine slot; d != 0 is guaranteed by the determinant check
        return (a * beta + b) / d
    num, den = a * beta + b, c * beta + d
    if _mag(beta) > 1 and max(_mag(num), _mag(den), _mag(beta)) >= _HALF_FLOAT_RANGE:
        # Python's complex division and abs() overflow inside, to NaN, a wrong
        # 0 or an OverflowError, past half the float range: divide through by beta
        num, den, scale = a + b / beta, c + d / beta, abs(c) + abs(d / beta)
    else:
        scale = abs(c) * abs(beta) + abs(d)
    if abs(den) <= _POLE_SNAP * scale:
        return INF
    return num / den


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
