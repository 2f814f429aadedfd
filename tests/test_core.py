"""Bicomplex arithmetic: exact structure, conjugations, norms, null cone."""

import math

import numpy as np
import pytest

from bcapprox import (
    E1,
    E2,
    J,
    INF,
    K,
    ONE,
    ZERO,
    Bicomplex,
    DomainError,
    ExtendedBicomplex,
    Hyperbolic,
    NullConeError,
    hyp_leq,
    idempotent_compose,
    idempotent_decompose,
    is_zero_divisor,
)
from bcapprox.core import _pair_to_complex, _read_float, _read_int, _read_node


def rand_bicomplex(rng) -> Bicomplex:
    a = rng.standard_normal(4)
    return Bicomplex(complex(a[0], a[1]), complex(a[2], a[3]))


def cartesian_product(z: Bicomplex, w: Bicomplex) -> Bicomplex:
    # independent oracle: multiply in cartesian form using j^2 = -1
    z1, z2 = z.cartesian()
    w1, w2 = w.cartesian()
    return Bicomplex.from_cartesian(z1 * w1 - z2 * w2, z1 * w2 + z2 * w1)


def close(z: Bicomplex, w: Bicomplex, tol=1e-12) -> bool:
    scale = 1 + abs(z.beta1) + abs(z.beta2) + abs(w.beta1) + abs(w.beta2)
    return abs(z.beta1 - w.beta1) + abs(z.beta2 - w.beta2) <= tol * scale


# -- idempotent decomposition -------------------------------------------------


def test_decompose_real_scalar_is_diagonal():
    assert idempotent_decompose(1, 0) == (1 + 0j, 1 + 0j)


def test_decompose_e1():
    # e1 = (1 + k)/2 has cartesian components (1/2, i/2)
    assert idempotent_decompose(0.5, 0.5j) == (1 + 0j, 0j)
    assert E1.cartesian() == (0.5 + 0j, 0.5j)


def test_decompose_example_with_recomposition():
    b1, b2 = idempotent_decompose(3 + 1j, 2 - 1j)
    assert b1 == 2 - 1j and b2 == 4 + 3j
    assert idempotent_compose(b1, b2) == (3 + 1j, 2 - 1j)


def test_units():
    assert K.cartesian() == (0j, 1j)
    assert (K * K) == ONE
    assert (J * J) == -ONE
    assert E1 + E2 == ONE
    assert E1 - E2 == K


def test_roundtrip_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rand_bicomplex(rng)
        back = Bicomplex.from_cartesian(*z.cartesian())
        assert close(z, back, 1e-14)


# -- multiplication -----------------------------------------------------------


def test_multiply_idempotents_annihilate():
    assert (E1 * E2).is_zero()
    assert E1 * E1 == E1
    assert E2 * E2 == E2


def test_multiply_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        z = rand_bicomplex(rng)
        assert z * ONE == z


def test_multiply_componentwise():
    assert Bicomplex(2, 3) * Bicomplex(5, 7) == Bicomplex(10, 21)


def test_multiply_matches_cartesian_oracle():
    rng = np.random.default_rng(2)
    for _ in range(200):
        z, w = rand_bicomplex(rng), rand_bicomplex(rng)
        assert close(z * w, cartesian_product(z, w))


def test_ring_laws_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z, w, v = (rand_bicomplex(rng) for _ in range(3))
        assert close(z * (w * v), (z * w) * v)
        assert close(z * (w + v), z * w + z * v)


# -- inversion and the null cone ----------------------------------------------


def test_invert_scalar():
    assert Bicomplex.from_scalar(2).invert() == Bicomplex.from_scalar(0.5)


def test_invert_zero_divisor_raises():
    with pytest.raises(NullConeError):
        E1.invert()
    with pytest.raises(NullConeError):
        ZERO.invert()


def test_invert_componentwise():
    assert Bicomplex(2, 4).invert() == Bicomplex(0.5, 0.25)


def test_invert_multiplies_to_one():
    rng = np.random.default_rng(4)
    for _ in range(100):
        z = rand_bicomplex(rng)
        assert close(z * z.invert(), ONE)


def test_invert_tolerance():
    z = Bicomplex(1e-9, 1.0)
    z.invert()  # exact test passes
    with pytest.raises(NullConeError):
        z.invert(tol=1e-6)


def test_invert_iff_not_null_cone():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rand_bicomplex(rng)
        if rng.random() < 0.3:
            z = Bicomplex(0, z.beta2) if rng.random() < 0.5 else Bicomplex(z.beta1, 0)
        invertible = not z.is_zero() and not is_zero_divisor(z, 0.0)
        if invertible:
            z.invert()
        else:
            with pytest.raises(NullConeError):
                z.invert()


def test_is_zero_divisor():
    assert is_zero_divisor(E2)
    assert not is_zero_divisor(ONE + J * Bicomplex.from_scalar(0))
    # Z = 1 + j*i has Z1^2 + Z2^2 = 0
    z = Bicomplex.from_cartesian(1, 1j)
    assert is_zero_divisor(z)
    prod = z * z.conjugate("dagger")
    assert abs(prod.beta1) < 1e-15 and abs(prod.beta2) < 1e-15
    with pytest.raises(ValueError):
        is_zero_divisor(E1, -1.0)


# -- conjugations --------------------------------------------------------------


def test_conjugations_fix_reals():
    z = Bicomplex.from_scalar(2.5)
    for kind in ("bar", "dagger", "star"):
        assert z.conjugate(kind) == z


def test_dagger_negates_j_part():
    z = Bicomplex.from_cartesian(0, 1)
    assert z.conjugate("dagger").cartesian() == (0j, -1 + 0j)


def test_z_times_dagger_is_complex_scalar():
    z = Bicomplex.from_cartesian(3, 4)
    prod = z * z.conjugate("dagger")
    z1, z2 = prod.cartesian()
    assert abs(z1 - 25) < 1e-12 and abs(z2) < 1e-12


def test_conjugations_are_involutions():
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rand_bicomplex(rng)
        for kind in ("bar", "dagger", "star"):
            assert close(z.conjugate(kind).conjugate(kind), z, 1e-15)


def test_dagger_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z, w = rand_bicomplex(rng), rand_bicomplex(rng)
        assert close((z * w).conjugate("dagger"), z.conjugate("dagger") * w.conjugate("dagger"))


def test_unknown_conjugation():
    with pytest.raises(ValueError):
        ONE.conjugate("tilde")


# -- hyperbolic norm ------------------------------------------------------------


def test_norm_examples():
    assert ZERO.norm_k() == Hyperbolic(0, 0)
    assert E1.norm_k() == Hyperbolic(1, 0)
    assert Bicomplex(3 + 4j, -5).norm_k() == Hyperbolic(5, 5)


def test_norm_multiplicative():
    rng = np.random.default_rng(8)
    for _ in range(100):
        z, w = rand_bicomplex(rng), rand_bicomplex(rng)
        lhs = (z * w).norm_k()
        rhs = z.norm_k() * w.norm_k()
        assert abs(lhs.a1 - rhs.a1) <= 1e-12 * (1 + rhs.a1)
        assert abs(lhs.a2 - rhs.a2) <= 1e-12 * (1 + rhs.a2)


# -- hyperbolic order ------------------------------------------------------------


def test_hyp_leq_examples():
    assert hyp_leq(Hyperbolic(0, 0), Hyperbolic(1, 1))
    assert not hyp_leq(Hyperbolic(1, 0), Hyperbolic(0, 1))
    assert not hyp_leq(Hyperbolic(0, 1), Hyperbolic(1, 0))
    assert hyp_leq(Hyperbolic(0.3, 0.9), Hyperbolic(0.3, 1.0))


def test_hyp_leq_scalar_lift():
    assert hyp_leq(Hyperbolic(1, 1), 1)
    assert not hyp_leq(Hyperbolic(1.0 + 1e-9, 1), 1)


def test_hyp_partial_order_random():
    rng = np.random.default_rng(9)
    hs = [Hyperbolic(*rng.random(2)) for _ in range(60)]
    for h in hs:
        assert hyp_leq(h, h)
    for h, g in zip(hs, hs[1:]):
        if hyp_leq(h, g) and hyp_leq(g, h):
            assert h == g
    for h, g, f in zip(hs, hs[1:], hs[2:]):
        if hyp_leq(h, g) and hyp_leq(g, f):
            assert hyp_leq(h, f)


# -- extended values and serialization -------------------------------------------


def test_extended_kinds():
    assert ExtendedBicomplex(1, 2).kind() == "finite/finite"
    assert ExtendedBicomplex(float("inf"), 2).kind() == "inf/finite"
    assert ExtendedBicomplex(1, complex(0, float("inf"))).kind() == "finite/inf"
    assert ExtendedBicomplex(float("inf"), float("inf")).kind() == "inf/inf"


NAN = float("nan")


@pytest.mark.parametrize("slot", [complex(NAN, 0), complex(0, NAN), complex(NAN, NAN)])
def test_extended_nan_slot_is_an_error(slot):
    # NaN is neither a finite value nor infinity; an infinite part still wins
    with pytest.raises(DomainError, match="slot c2 is NaN"):
        ExtendedBicomplex(1, slot)
    assert ExtendedBicomplex(complex(float("inf"), NAN), 0).c1 == INF


def test_extended_to_bicomplex():
    assert ExtendedBicomplex(1, 2j).to_bicomplex() == Bicomplex(1, 2j)
    with pytest.raises(ValueError):
        ExtendedBicomplex(float("inf"), 0).to_bicomplex()


def test_json_roundtrip_idempotent_and_cartesian():
    z = Bicomplex(1 + 2j, 3 - 4j)
    assert Bicomplex.from_json(z.to_json()) == z
    assert set(z.to_json()) == {"b1", "b2"}  # writers emit the idempotent form
    again = Bicomplex.from_json({"z1": [z.z1.real, z.z1.imag], "z2": [z.z2.real, z.z2.imag]})
    assert close(again, z, 1e-15)
    ext = ExtendedBicomplex(float("inf"), 1 + 1j)
    assert ExtendedBicomplex.from_json(ext.to_json()) == ext


@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
def test_read_int_takes_integers_and_integral_floats(value):
    assert _read_int(value, "field") == 3 and type(_read_int(value, "field")) is int


@pytest.mark.parametrize(
    "value", [2.5, True, False, np.bool_(True), float("nan"), float("inf"), "3", None]
)
def test_read_int_refuses_the_rest_by_name(value):
    with pytest.raises(ValueError, match=r"^field must be an integer, got "):
        _read_int(value, "field")


@pytest.mark.parametrize(
    "value, number",
    [([1, -0.5], 1 - 0.5j), ([2, 3], 2 + 3j), (-0.0, complex(-0.0, 0)), (4, 4 + 0j)],
)
def test_pair_reads_json_numbers(value, number):
    got = _pair_to_complex(value, "node")
    assert got == number and math.copysign(1, got.real) == math.copysign(1, number.real)


@pytest.mark.parametrize(
    "value", [True, "1", None, [1, "2"], [True, 0], [0.5], [1, 2, 3], {"re": 1}, [[1], 2]]
)
def test_pair_refuses_the_rest_by_place(value):
    # a bool or a string in a pair used to read as a number: True as 1
    with pytest.raises(ValueError, match=r"^node\.b1 must be a number or a pair of numbers, "):
        _pair_to_complex(value, "node", "b1")


@pytest.mark.parametrize("value", [True, "2.5", None, [2.5], {"r": 1}])
def test_read_float_refuses_what_is_no_number_by_place(value):
    with pytest.raises(ValueError, match=rf"^node must be a number, got {type(value).__name__}$"):
        _read_float(value, "node")


@pytest.mark.parametrize(
    "read", [lambda v: _read_float(v, "node"), lambda v: _pair_to_complex(v, "node")]
)
def test_integer_beyond_the_float_range_refused_by_place(read):
    with pytest.raises(ValueError, match=r"^node lies beyond the float range$"):
        read(10**400)


@pytest.mark.parametrize(
    "value, kind, what, detail",
    [
        ([1, 2], dict, "an object", "node must be an object, got list"),
        ({"a": 1}, list, "a list of two", "node must be a list of two, got dict"),
        ([1, 2, 3], list, "a list of two", "node must be a list of two, got 3 items"),
    ],
)
def test_read_node_refuses_by_place(value, kind, what, detail):
    with pytest.raises(ValueError) as exc:
        _read_node(value, kind, "node", what, 2)
    assert str(exc.value) == detail
