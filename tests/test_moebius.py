"""Moebius maps: validation, the four C1/C2 patterns, extended values."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import complex_ref as ref
from bcapprox import (
    E1,
    ONE,
    ZERO,
    Bicomplex,
    DegenerateMapError,
    ExtendedBicomplex,
    MoebiusMap,
    identity_map,
    moebius_apply,
    moebius_compose,
    moebius_inverse,
    moebius_new,
)


def rand_bicomplex(rng) -> Bicomplex:
    a = rng.standard_normal(4)
    return Bicomplex(complex(a[0], a[1]), complex(a[2], a[3]))


def rand_valid_map(rng) -> MoebiusMap:
    while True:
        try:
            return moebius_new(*(rand_bicomplex(rng) for _ in range(4)))
        except DegenerateMapError:  # pragma: no cover - measure zero
            continue


def assert_ext_close(v: ExtendedBicomplex, w: ExtendedBicomplex, tol=1e-10):
    assert v.kind() == w.kind()
    if not v.inf1:
        assert abs(v.c1 - w.c1) <= tol * (1 + abs(w.c1))
    if not v.inf2:
        assert abs(v.c2 - w.c2) <= tol * (1 + abs(w.c2))


# -- construction ---------------------------------------------------------------


def test_identity_map_valid():
    m = identity_map()
    assert m.det == ONE


def test_zero_divisor_determinant_rejected():
    with pytest.raises(DegenerateMapError):
        moebius_new(ONE, ZERO, ZERO, E1)


def test_determinant_componentwise_oracle():
    rng = np.random.default_rng(10)
    a, b = ONE, Bicomplex.from_cartesian(1j, 0)
    c, d = Bicomplex.from_scalar(2), Bicomplex.from_cartesian(0, 1)
    det1 = a.beta1 * d.beta1 - b.beta1 * c.beta1
    det2 = a.beta2 * d.beta2 - b.beta2 * c.beta2
    if abs(det1) > 0 and abs(det2) > 0:
        m = moebius_new(a, b, c, d)
        assert m.det == Bicomplex(det1, det2)
    for _ in range(50):
        coeffs = [rand_bicomplex(rng) for _ in range(4)]
        det = coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]
        if det.in_null_cone():
            with pytest.raises(DegenerateMapError):
                moebius_new(*coeffs)
        else:
            assert moebius_new(*coeffs).det == det


# -- evaluation -----------------------------------------------------------------


def test_identity_fixes_finite_points():
    rng = np.random.default_rng(11)
    m = identity_map()
    for _ in range(20):
        z = rand_bicomplex(rng)
        v = moebius_apply(m, z)
        assert_ext_close(v, ExtendedBicomplex.from_bicomplex(z), 1e-14)


def test_half_map_example():
    m = moebius_new(ONE, ZERO, ONE, ONE)  # z / (z + 1)
    v = moebius_apply(m, ONE)
    assert v.to_bicomplex() == Bicomplex.from_scalar(0.5)


def test_slotwise_factorization_against_reference():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = rand_valid_map(rng)
        z = rand_bicomplex(rng)
        v = moebius_apply(m, z)
        if v.is_finite():
            a1, b1, c1, d1 = m.slot_coeffs(1)
            a2, b2, c2, d2 = m.slot_coeffs(2)
            r1 = ref.moebius_eval(a1, b1, c1, d1, z.beta1)
            r2 = ref.moebius_eval(a2, b2, c2, d2, z.beta2)
            assert abs(v.c1 - r1) <= 1e-11 * (1 + abs(r1))
            assert abs(v.c2 - r2) <= 1e-11 * (1 + abs(r2))


def _mk(a1, a2, b1, b2, c1, c2, d1, d2):
    return moebius_new(
        Bicomplex(a1, a2), Bicomplex(b1, b2), Bicomplex(c1, c2), Bicomplex(d1, d2)
    )


def test_case_both_c_zero_is_affine():
    m = _mk(2, 3, 1, -1, 0, 0, 1, 2)
    assert m.c_is_zero == (True, True)
    v = moebius_apply(m, Bicomplex(1, 1))
    assert v.to_bicomplex() == Bicomplex(3, 1)
    w = moebius_apply(m, ExtendedBicomplex(float("inf"), float("inf")))
    assert w.kind() == "inf/inf"


def test_case_c1_nonzero_c2_zero():
    m = _mk(1, 1, 0, 0, 2, 0, 1, 1)  # slot 1: z/(2z+1); slot 2: z
    assert m.c_is_zero == (False, True)
    # pole of slot 1 at -1/2 maps to inf e1
    v = moebius_apply(m, Bicomplex(-0.5, 7))
    assert v.inf1 and not v.inf2
    # inf e1 maps to A1/C1 e1; slot 2 affine sends inf to inf
    w = moebius_apply(m, ExtendedBicomplex(float("inf"), 0))
    assert not w.inf1 and abs(w.c1 - 0.5) < 1e-15
    u = moebius_apply(m, ExtendedBicomplex(0, float("inf")))
    assert u.inf2 and not u.inf1


def test_case_c1_zero_c2_nonzero():
    m = _mk(1, 1, 0, 0, 0, 2, 1, 1)
    assert m.c_is_zero == (True, False)
    v = moebius_apply(m, Bicomplex(7, -0.5))
    assert v.inf2 and not v.inf1
    w = moebius_apply(m, ExtendedBicomplex(0, float("inf")))
    assert not w.inf2 and abs(w.c2 - 0.5) < 1e-15


def test_case_both_c_nonzero_pole_pair_and_infinity():
    m = _mk(1, 2, 0, 1, 2, 4, 1, 1)
    assert m.c_is_zero == (False, False)
    # the pole pair (-D1/C1, -D2/C2) maps to inf e1 + inf e2
    v = moebius_apply(m, Bicomplex(-0.5, -0.25))
    assert v.kind() == "inf/inf"
    # inf e1 + inf e2 maps to A1/C1 e1 + A2/C2 e2
    w = moebius_apply(m, ExtendedBicomplex(float("inf"), float("inf")))
    assert w.is_finite()
    assert abs(w.c1 - 0.5) < 1e-15 and abs(w.c2 - 0.5) < 1e-15


def test_pole_snap_for_inexact_ratio():
    # C=3, D=1: -D/C is not exactly representable; the snap still sends it to inf
    m = _mk(1, 1, 0, 0, 3, 3, 1, 1)
    v = moebius_apply(m, Bicomplex(-1 / 3, -1 / 3))
    assert v.kind() == "inf/inf"


# -- composition and inversion -----------------------------------------------------


def test_compose_with_identity():
    rng = np.random.default_rng(13)
    m = rand_valid_map(rng)
    c = moebius_compose(m, identity_map())
    assert c.a == m.a and c.b == m.b and c.c == m.c and c.d == m.d


def test_compose_matches_pointwise():
    rng = np.random.default_rng(14)
    for _ in range(5):
        m, n = rand_valid_map(rng), rand_valid_map(rng)
        c = moebius_compose(m, n)
        for _ in range(100):
            z = rand_bicomplex(rng)
            lhs = moebius_apply(c, z)
            rhs = moebius_apply(m, moebius_apply(n, z))
            if lhs.is_finite() and rhs.is_finite():
                assert_ext_close(lhs, rhs, 1e-10)


def test_compose_associative_at_evaluation():
    rng = np.random.default_rng(15)
    m, n, p = (rand_valid_map(rng) for _ in range(3))
    left = moebius_compose(moebius_compose(m, n), p)
    right = moebius_compose(m, moebius_compose(n, p))
    for _ in range(50):
        z = rand_bicomplex(rng)
        lv, rv = moebius_apply(left, z), moebius_apply(right, z)
        if lv.is_finite() and rv.is_finite():
            assert_ext_close(lv, rv, 1e-9)


def test_inverse_of_identity_and_translation():
    ident = identity_map()
    inv = moebius_inverse(ident)
    assert inv.a == ident.a and inv.b == ident.b
    t = moebius_new(ONE, ONE, ZERO, ONE)
    ti = moebius_inverse(t)
    assert ti.b == -ONE and ti.a == ONE and ti.d == ONE


def test_inverse_roundtrip():
    rng = np.random.default_rng(16)
    m = rand_valid_map(rng)
    mi = moebius_inverse(m)
    for _ in range(100):
        z = rand_bicomplex(rng)
        v = moebius_apply(m, z)
        if not v.is_finite():
            continue
        back = moebius_apply(mi, v)
        assert back.is_finite()
        assert abs(back.c1 - z.beta1) <= 1e-10 * (1 + abs(z.beta1))
        assert abs(back.c2 - z.beta2) <= 1e-10 * (1 + abs(z.beta2))


def test_compose_inverse_is_scalar_multiple_of_identity():
    rng = np.random.default_rng(17)
    m = rand_valid_map(rng)
    c = moebius_compose(m, moebius_inverse(m))
    # coefficient matrix is det(m) * identity per slot
    assert abs(c.b.beta1) < 1e-12 and abs(c.c.beta1) < 1e-12
    assert abs(c.a.beta1 - c.d.beta1) < 1e-12 * (1 + abs(c.a.beta1))


def test_json_roundtrip():
    rng = np.random.default_rng(18)
    m = rand_valid_map(rng)
    again = MoebiusMap.from_json(m.to_json())
    assert again.a == m.a and again.b == m.b and again.c == m.c and again.d == m.d


# -- properties against the slot maps ---------------------------------------------

# entries of modulus <= 4 and |det| >= 1/2 per slot keep every slot map well
# conditioned on the drawn points, so both sides agree to a fixed tolerance
entry = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
slot_matrix = st.tuples(entry, entry, entry, entry).filter(
    lambda m: abs(m[0] * m[3] - m[1] * m[2]) >= 0.5
)


@st.composite
def conditioned_maps(draw) -> MoebiusMap:
    s1, s2 = draw(slot_matrix), draw(slot_matrix)
    return moebius_new(*(Bicomplex(x, y) for x, y in zip(s1, s2)))


def slot_map(m: MoebiusMap, slot: int):
    """The scalar map of one idempotent slot, by the reference formula."""
    return lambda w: ref.moebius_eval(*m.slot_coeffs(slot), w)


def clear_of_pole(m: MoebiusMap, slot: int, w: complex) -> bool:
    _, _, c, d = m.slot_coeffs(slot)
    return abs(c * w + d) >= 0.25


@given(m=conditioned_maps(), n=conditioned_maps(), w1=entry, w2=entry)
def test_compose_is_slotwise_composition(m, n, w1, w2):
    # m(n(z)) slot by slot: the composed coefficients act as the matrix product
    for slot, w in ((1, w1), (2, w2)):
        assume(clear_of_pole(n, slot, w) and clear_of_pole(m, slot, slot_map(n, slot)(w)))
    got = moebius_apply(moebius_compose(m, n), Bicomplex(w1, w2))
    assert got.is_finite()
    for slot, w, value in ((1, w1, got.c1), (2, w2, got.c2)):
        want = slot_map(m, slot)(slot_map(n, slot)(w))
        assert abs(value - want) <= 1e-10 * (1 + abs(want))


@given(m=conditioned_maps(), w1=entry, w2=entry)
def test_inverse_undoes_each_slot_map(m, w1, w2):
    for slot, w in ((1, w1), (2, w2)):
        assume(clear_of_pole(m, slot, w))
    image = Bicomplex(slot_map(m, 1)(w1), slot_map(m, 2)(w2))
    back = moebius_apply(moebius_inverse(m), image)
    assert back.is_finite()
    assert abs(back.c1 - w1) <= 1e-10 * (1 + abs(w1))
    assert abs(back.c2 - w2) <= 1e-10 * (1 + abs(w2))
