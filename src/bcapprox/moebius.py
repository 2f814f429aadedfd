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

Each slot value is exact up to one rounding: the components of A, B, C, D
and beta are read as integers in one common power-of-two unit, A beta + B
and C beta + D are formed exactly, and each part of the quotient is rounded
once.  A slot denominator no larger than 1e-13 (|C beta| + |D|), decided
exactly, is the pole: the slot value becomes the point at infinity.  A
finite beta whose value lies beyond the float range is a DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import INF, Bicomplex, ExtendedBicomplex, _slot_is_inf
from .errors import DegenerateMapError, DomainError

_POLE_SNAP = 1e-13


@dataclass(frozen=True)
class MoebiusMap:
    """Validated coefficients of a bicomplex Moebius transformation."""

    a: Bicomplex
    b: Bicomplex
    c: Bicomplex
    d: Bicomplex
    det: Bicomplex = field(init=False)

    def __post_init__(self):
        for name, z in zip("ABCD", (self.a, self.b, self.c, self.d)):
            if _slot_is_inf(z.beta1) or _slot_is_inf(z.beta2):
                raise DomainError(f"coefficient {name} = {z} is not finite")
        det = self.a * self.d - self.b * self.c
        for slot in (1, 2):
            (a, b, c, d), _ = _gaussians(*self.slot_coeffs(slot))
            # an exact zero test: the float determinant can overflow to NaN
            if _mul(a, d) == _mul(b, c):
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


def _gaussians(*zs: complex) -> tuple[list[tuple[int, int]], int]:
    """Each finite z as a pair of integers in one common unit 2**-k, and the
    integer that stands for 1: every finite double is p / q, q a power of 2."""
    ratios = [x.as_integer_ratio() for z in zs for x in (z.real, z.imag)]
    one = max(q for _, q in ratios)
    ints = [p * (one // q) for p, q in ratios]
    return list(zip(ints[::2], ints[1::2])), one


def _mul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def _norm2(z: tuple[int, int]) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _at_pole(den: tuple[int, int], cb2: int, d2: int) -> bool:
    """|den| <= _POLE_SNAP (|cb| + |d|), squared twice to stay exact: with the
    snap p / q it reads q^2 |den|^2 - p^2 (cb2 + d2) <= 2 p^2 sqrt(cb2 d2)."""
    p, q = _POLE_SNAP.as_integer_ratio()
    excess = q * q * _norm2(den) - p * p * (cb2 + d2)
    return excess <= 0 or excess * excess <= 4 * p**4 * cb2 * d2


def _quotient(num: tuple[int, int], den: tuple[int, int], beta: complex) -> complex:
    """num / den = num conj(den) / |den|^2, each part rounded once (int / int
    is correctly rounded), or a DomainError beyond the float range."""
    norm = _norm2(den)
    try:
        return complex((num[0] * den[0] + num[1] * den[1]) / norm,
                       (num[1] * den[0] - num[0] * den[1]) / norm)
    except OverflowError:
        raise DomainError(f"evaluating the map's slot at {beta} overflows the float range")


def _apply_slot(a: complex, b: complex, c: complex, d: complex, beta: complex) -> complex:
    if _slot_is_inf(beta):
        # inf -> A/C when the slot truly is fractional, else stays at inf.
        return _quotient(*_gaussians(a, c)[0], beta) if c != 0 else INF
    (a, b, c, d, beta), one = _gaussians(a, b, c, d, beta)
    # both sums in the unit squared; d != 0 where c = 0, so that slot never snaps
    ab, cb = _mul(a, beta), _mul(c, beta)
    num = (ab[0] + b[0] * one, ab[1] + b[1] * one)
    den = (cb[0] + d[0] * one, cb[1] + d[1] * one)
    if _at_pole(den, _norm2(cb), _norm2(d) * one * one):
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
    coeffs = (
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )
    for name, z in zip("ABCD", coeffs):
        for slot, beta in ((1, z.beta1), (2, z.beta2)):
            if _slot_is_inf(beta):
                raise DomainError(
                    f"the composed map's coefficient {name} leaves the float range in slot {slot}"
                )
    return MoebiusMap(*coeffs)


def moebius_inverse(m: MoebiusMap) -> MoebiusMap:
    """Inverse up to the scalar det(m): coefficients (D, -B, -C, A)."""
    return MoebiusMap(m.d, -m.b, -m.c, m.a)


def identity_map() -> MoebiusMap:
    one = Bicomplex.from_scalar(1)
    zero = Bicomplex.from_scalar(0)
    return MoebiusMap(one, zero, zero, one)
