"""Series transforms and univalence functionals against independent oracles."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex_ref as ref
from bcapprox import (
    E1,
    Bicomplex,
    DomainError,
    Hyperbolic,
    InvalidRotationError,
    NullConeError,
    TruncatedSeries,
    area_contour_estimate,
    bieberbach_check,
    gronwall_area_sum,
    identity_series,
    inversion_transform,
    jsonio,
    koebe_covering_min,
    koebe_rotation_series,
    laurent_series,
    power_series,
    series_eval,
    sqrt_transform,
)
from bcapprox.series import _recurrence


def rand_power_series(rng, order: int) -> TruncatedSeries:
    # |A_n|_k <= (n, n): scale unit-disk draws by n
    coeffs = [Bicomplex.from_scalar(0), Bicomplex.from_scalar(1)]
    for n in range(2, order + 1):
        re1, im1, re2, im2 = rng.uniform(-1, 1, 4) / math.sqrt(2)
        coeffs.append(Bicomplex(n * complex(re1, im1), n * complex(re2, im2)))
    return power_series(coeffs)


# -- construction and evaluation ------------------------------------------------


def test_power_series_normalization_enforced():
    with pytest.raises(ValueError):
        power_series([1, 1])
    with pytest.raises(ValueError):
        power_series([0, 2])
    with pytest.raises(ValueError):
        laurent_series([2, 0])


def test_identity_series_eval():
    s = identity_series()
    z = Bicomplex(0.3 + 0.1j, -0.2j)
    assert series_eval(s, z) == z


def test_koebe_eval_matches_closed_form():
    s = koebe_rotation_series(Bicomplex.from_scalar(-1), 64)
    for t in (0.05, 0.1, 0.2):
        v = series_eval(s, Bicomplex.from_scalar(t))
        target = t / (1 - t) ** 2
        assert abs(v.beta1 - target) < 1e-12
        assert abs(v.beta2 - target) < 1e-12


def test_laurent_eval_guards_null_cone():
    g = laurent_series([1, 0, 1])  # Z + 1/Z
    with pytest.raises(NullConeError):
        series_eval(g, E1)
    v = series_eval(g, Bicomplex.from_scalar(2))
    assert abs(v.beta1 - 2.5) < 1e-15


def test_series_json_roundtrip():
    s = koebe_rotation_series(Bicomplex(-1, 1j), 6)
    again = TruncatedSeries.from_json(s.to_json())
    assert again == s
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"kind": "power-F", "N": 9, "coeffs": s.to_json()["coeffs"]})


def test_series_json_roundtrip_large():
    s = koebe_rotation_series(Bicomplex(np.exp(0.7j), np.exp(-2.3j)), 2048)
    again = TruncatedSeries.from_json(json.loads(jsonio.dumps(s.to_json())))
    assert again == s and again.order == 2048
    g = laurent_series([1, 0.5, *s.coeffs[2:]])
    assert TruncatedSeries.from_json(json.loads(jsonio.dumps(g.to_json()))) == g


def test_series_json_cartesian_form():
    s = koebe_rotation_series(Bicomplex(-1, 1j), 6)
    cart = [{"z1": [c.z1.real, c.z1.imag], "z2": [c.z2.real, c.z2.imag]} for c in s.coeffs]
    again = TruncatedSeries.from_json({"kind": "power-F", "N": 6, "coeffs": cart})
    assert np.allclose(again.slots, s.slots, rtol=0, atol=1e-14)
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"kind": "power-F", "coeffs": [{"z1": [0, 0]}, {"b1": 1, "b2": 1}]})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"kind": "power-F", "coeffs": [{"b1": [0, 0], "b2": [0, 1]}, {"b1": 1, "b2": 1}]})
    with pytest.raises(ValueError):
        TruncatedSeries.from_json({"kind": "taylor", "coeffs": []})


def test_coefficient_array_is_read_only():
    s = power_series([0, 1, Bicomplex(0.5, -0.25j)])
    assert s.slots.shape == (2, 3) and not s.slots.flags.writeable
    with pytest.raises(ValueError):
        s.slots[0, 2] = 3.0
    with pytest.raises(ValueError):
        s.slot(2)[2] = 3.0
    assert s.slot(2)[2] == -0.25j and s.coeffs[2] == Bicomplex(0.5, -0.25j)
    assert not s.truncated(1).slots.flags.writeable


# -- rotation family -------------------------------------------------------------


def test_koebe_coefficients():
    s = koebe_rotation_series(Bicomplex.from_scalar(-1), 8)
    assert [c.beta1 for c in s.coeffs] == [0, 1, 2, 3, 4, 5, 6, 7, 8]


def test_koebe_equality_case():
    s = koebe_rotation_series(Bicomplex.from_scalar(-1), 8)
    value, holds = bieberbach_check(s)
    assert holds and value == Hyperbolic(2, 2)


def test_rotation_slotwise_coefficients():
    s = koebe_rotation_series(Bicomplex(-1, 1j), 6)
    for n in range(1, 7):
        assert abs(s.coeffs[n].beta1 - n * 1.0 ** (n - 1)) < 1e-14
        assert abs(s.coeffs[n].beta2 - n * (-1j) ** (n - 1)) < 1e-13


def test_rotation_requires_unimodular():
    with pytest.raises(InvalidRotationError):
        koebe_rotation_series(Bicomplex.from_scalar(-0.5), 8)
    with pytest.raises(InvalidRotationError):
        koebe_rotation_series(Bicomplex(1, 0.999), 8)


# -- square-root transform --------------------------------------------------------


def test_sqrt_of_identity():
    g = sqrt_transform(identity_series())
    assert g.order == 1 and g.coeffs[1] == Bicomplex.from_scalar(1)


def test_sqrt_low_order_coefficients():
    rng = np.random.default_rng(20)
    f = rand_power_series(rng, 6)
    g = sqrt_transform(f)
    a2, a3 = f.coeffs[2], f.coeffs[3]
    b3 = g.coeffs[3]
    b5 = g.coeffs[5]
    half_a2 = a2 * Bicomplex.from_scalar(0.5)
    assert abs((b3 - half_a2).beta1) < 1e-14
    expected_b5 = (a3 - a2 * a2 * Bicomplex.from_scalar(0.25)) * Bicomplex.from_scalar(0.5)
    assert abs((b5 - expected_b5).beta1) < 1e-13
    assert abs((b5 - expected_b5).beta2) < 1e-13


def test_sqrt_squaring_identity():
    # radii stay below 0.35: G^2 carries spurious terms beyond the matched
    # truncation order 2N, so the identity is only clean well inside |Z| < 0.5
    rng = np.random.default_rng(21)
    f = rand_power_series(rng, 12)
    g = sqrt_transform(f)
    for _ in range(50):
        r = 0.3 * rng.random() + 0.05
        th1, th2 = rng.uniform(0, 2 * np.pi, 2)
        z = Bicomplex(r * np.exp(1j * th1), r * np.exp(1j * th2))
        gz = series_eval(g, z)
        fz2 = series_eval(f, z * z)
        diff = gz * gz - fz2
        scale = 1 + abs(fz2.beta1) + abs(fz2.beta2)
        assert abs(diff.beta1) + abs(diff.beta2) <= 1e-9 * scale


def test_sqrt_matches_reference_per_slot():
    rng = np.random.default_rng(22)
    f = rand_power_series(rng, 10)
    g = sqrt_transform(f)
    for slot in (1, 2):
        r = ref.sqrt_coeffs(list(f.slot(slot)))
        mine = g.slot(slot)
        for i in range(len(r)):
            assert abs(mine[i] - r[i]) < 1e-12


def test_sqrt_and_inversion_koebe_closed_form_large():
    # Koebe with a distinct rotation per slot: F = Z/(1 + B Z)^2 has
    # G = Z/(1 + B Z^2), odd coefficients (-B)^k, and H = Z + B/Z, so B_1 = B,
    # every other tail coefficient vanishes and the area sum is |B|_k^2 = 1.
    # Rounding reaches about 1e-9 at N = 2048, with the recurrence alone and
    # with Newton doubling past order 64 alike.
    n = 2048
    b = np.array([np.exp(0.9j), np.exp(-2.2j)])
    f = koebe_rotation_series(Bicomplex(*b), n)
    g = sqrt_transform(f)
    assert g.order == 2 * n - 1
    assert not g.slots[:, 0::2].any()
    odd = (-b[:, None]) ** np.arange(n)
    assert np.max(np.abs(g.slots[:, 1::2] - odd)) < 1e-8
    h = inversion_transform(g)
    assert h.kind == "laurent-Sigma" and h.order == 2 * n - 3
    assert np.max(np.abs(h.slots[:, 2] - b)) < 1e-12
    assert not h.slots[:, 1].any() and not h.slots[:, 3::2].any()
    assert np.max(np.abs(h.slots[:, 4:])) < 1e-8
    area = gronwall_area_sum(h)
    assert abs(area.a1 - 1) < 1e-9 and abs(area.a2 - 1) < 1e-9


def _mp_root_and_reciprocal(a):
    """h = (F(w)/w)^(1/2) and q = 1/h at 50 digits, from the double inputs."""
    with mpmath.workdps(50):
        p = [mpmath.mpc(complex(x)) for x in a[1:]]
        h = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (len(p) - 1)
        q = list(h)
        for k in range(1, len(p)):
            h[k] = (p[k] - mpmath.fsum(h[j] * h[k - j] for j in range(1, k))) / 2
        for k in range(1, len(p)):
            q[k] = -mpmath.fsum(h[j] * q[k - j] for j in range(1, k + 1))
        return [complex(x) for x in h], [complex(x) for x in q]


def _rel_err(mine, want):
    return max(abs(m - w) / abs(w) for m, w in zip(mine, want))


@pytest.mark.parametrize("seed,growing", [(30, True), (31, False)])
def test_transforms_match_mpmath(seed, growing):
    # |A_n|_k <= n makes h and q grow to ~1e20; 0.6^n makes them decay
    rng = np.random.default_rng(seed)
    if growing:
        f = rand_power_series(rng, 64)
    else:
        coeffs = [Bicomplex.from_scalar(0), Bicomplex.from_scalar(1)]
        for k in range(2, 65):
            re1, im1, re2, im2 = rng.uniform(-1, 1, 4) * 0.6**k
            coeffs.append(Bicomplex(complex(re1, im1), complex(re2, im2)))
        f = power_series(coeffs)
    g = sqrt_transform(f)
    h = inversion_transform(g)
    # the same odd series rebuilt from its coefficients runs the reciprocal alone
    h_alone = inversion_transform(power_series(g.coeffs))
    assert h_alone == h
    for slot in (1, 2):
        want_h, want_q = _mp_root_and_reciprocal(f.slot(slot))
        assert _rel_err(g.slot(slot)[1::2], want_h) < 1e-12
        assert _rel_err(h.slot(slot)[2::2], want_q[1:]) < 1e-12


# Beyond the recurrence's 64 orders Newton doubling on FFT products takes over,
# with the normwise bound stated in series._root_and_reciprocal for bounded
# series and the recurrence's relative accuracy for growing ones.


def _newton_bound(h, q):
    """eps log2(K) ||h||_1^2 ||q||_1^2 per slot, as a (2, 1) column."""
    h, q = np.asarray(h), np.asarray(q)
    norms = np.abs(h).sum(axis=-1) ** 2 * np.abs(q).sum(axis=-1) ** 2
    return (np.finfo(float).eps * math.log2(h.shape[-1]) * norms).reshape(-1, 1)


def _decaying_series(rng, n, rho):
    """A normalized series with |A_k| < rho^k; for rho < 1/2, p = F(w)/w has
    no zero in the closed unit disk, so h and 1/h stay bounded."""
    c = np.sqrt(rng.uniform(0, 1, (2, n + 1))) * np.exp(2j * np.pi * rng.uniform(0, 1, (2, n + 1)))
    c *= rho ** np.arange(n + 1)
    c[:, 0], c[:, 1] = 0, 1
    return power_series([Bicomplex(*col) for col in c.T])


@pytest.mark.parametrize(
    "case,n", [("decaying", 300), ("koebe", 300), ("growing", 100), ("growing", 300)]
)
def test_transforms_match_mpmath_past_the_seed(case, n):
    # N = 300: the seed's 64 orders, then doublings to 128, 256 and 300.
    # |A_n|_k <= n makes h and q grow like 2^k (to ~1e88 at N = 300); the
    # doublings rescale them and keep the recurrence's relative accuracy.
    rng = np.random.default_rng(32)
    if case == "koebe":
        f = koebe_rotation_series(Bicomplex(np.exp(0.4j), np.exp(-2.9j)), n)
    elif case == "growing":
        f = rand_power_series(rng, n)
    else:
        coeffs = [Bicomplex.from_scalar(0), Bicomplex.from_scalar(1)]
        for k in range(2, n + 1):
            re1, im1, re2, im2 = rng.uniform(-1, 1, 4) * 0.6**k
            coeffs.append(Bicomplex(complex(re1, im1), complex(re2, im2)))
        f = power_series(coeffs)
    g = sqrt_transform(f)
    h = inversion_transform(g)
    for slot in (1, 2):
        want_h, want_q = (np.array(x) for x in _mp_root_and_reciprocal(f.slot(slot)))
        mine_h, mine_q = g.slot(slot)[1::2], h.slot(slot)[0::2]  # q_0 = 1 is H's Z term
        if case == "growing":
            assert _rel_err(mine_h, want_h) < 1e-12
            assert _rel_err(mine_q, want_q) < 1e-12
            continue
        if case == "decaying":  # Koebe's q_k vanish for k >= 2
            assert _rel_err(mine_h[:64], want_h[:64]) < 1e-12
            assert _rel_err(mine_q[1:64], want_q[1:64]) < 1e-12
        bound = _newton_bound(want_h, want_q)[0, 0]
        assert np.max(np.abs(mine_h - want_h)) <= bound
        assert np.max(np.abs(mine_q - want_q)) <= bound


_SIZES = st.one_of(st.integers(65, 400), st.sampled_from([128, 129, 256, 257]))


@settings(max_examples=40, deadline=None)
@given(
    n=_SIZES,
    seed=st.integers(0, 2**32 - 1),
    case=st.sampled_from(["decaying", "koebe", "growing", "mixed"]),
)
def test_newton_agrees_with_the_recurrence(n, seed, case):
    rng = np.random.default_rng(seed)
    grows = [case in ("growing", "mixed"), case == "growing"]  # per slot
    if case == "koebe":
        b = np.exp(2j * np.pi * rng.uniform(0, 1, 2))
        f = koebe_rotation_series(Bicomplex(*b), n)
    elif case == "growing":
        f = rand_power_series(rng, n)
    elif case == "mixed":  # each slot takes its own path through the doublings
        rows = rand_power_series(rng, n).slot(1), _decaying_series(rng, n, 0.4).slot(2)
        f = power_series([Bicomplex(x, y) for x, y in zip(*rows)])
    else:
        f = _decaying_series(rng, n, rng.uniform(0.1, 0.45))
    g = sqrt_transform(f)
    h = inversion_transform(g)
    want_h = np.zeros((2, n), dtype=complex)
    want_h[:, 0] = 1
    want_q = _recurrence(want_h, f.slots[:, 1:])
    assert np.array_equal(g.slots[:, 1:128:2], want_h[:, :64])
    for s in (0, 1):
        mine_h, mine_q, wh, wq = g.slots[s, 1::2], h.slots[s, 2::2], want_h[s], want_q[s, 1:]
        if grows[s]:  # coefficient-wise, as the recurrence itself
            assert np.all(np.abs(mine_h - wh) <= 1e-12 * np.abs(wh))
            assert np.all(np.abs(mine_q - wq) <= 1e-12 * np.abs(wq))
        else:
            bound = _newton_bound(want_h[s], want_q[s])[0, 0]
            assert np.all(np.abs(mine_h - wh) <= bound)
            assert np.all(np.abs(mine_q - wq) <= bound)


def test_seed_orders_keep_their_bits_at_large_order():
    f = _decaying_series(np.random.default_rng(33), 2048, 0.4)
    g_big, g_small = sqrt_transform(f), sqrt_transform(f.truncated(64))
    h_big, h_small = inversion_transform(g_big), inversion_transform(g_small)
    assert np.array_equal(g_big.slots[:, :128], g_small.slots)
    assert np.array_equal(h_big.slots[:, :127], h_small.slots)


@pytest.mark.parametrize("case", ["koebe", "growing"])
def test_inversion_alone_matches_the_fused_pass_at_large_order(case):
    if case == "koebe":
        f = koebe_rotation_series(Bicomplex(np.exp(1.3j), np.exp(-0.2j)), 1024)
    else:  # rescaled doublings; N = 300 keeps 2^k inside the float range
        f = rand_power_series(np.random.default_rng(34), 300)
    g = sqrt_transform(f)
    assert inversion_transform(power_series(g.coeffs)) == inversion_transform(g)


# -- inversion transform ------------------------------------------------------------


def test_inversion_of_identity():
    h = inversion_transform(identity_series())
    assert h.kind == "laurent-Sigma"
    assert all(c.is_zero() for c in h.coeffs[1:])


def test_inversion_low_order_coefficients():
    rng = np.random.default_rng(23)
    f = rand_power_series(rng, 8)
    g = sqrt_transform(f)
    h = inversion_transform(g)
    c0, c1 = h.coeffs[1], h.coeffs[2]
    assert c0.is_zero()
    minus_half_a2 = f.coeffs[2] * Bicomplex.from_scalar(-0.5)
    assert abs((c1 - minus_half_a2).beta1) < 1e-14
    assert abs((c1 - minus_half_a2).beta2) < 1e-14


def test_inversion_product_identity():
    rng = np.random.default_rng(24)
    f = rand_power_series(rng, 12)
    g = sqrt_transform(f)
    h = inversion_transform(g)
    for _ in range(50):
        r = 3.0 + rng.random()
        th1, th2 = rng.uniform(0, 2 * np.pi, 2)
        z = Bicomplex(r * np.exp(1j * th1), r * np.exp(1j * th2))
        ginv = series_eval(g, z.invert())
        hz = series_eval(h, z)
        prod = ginv * hz
        assert abs(prod.beta1 - 1) < 1e-9
        assert abs(prod.beta2 - 1) < 1e-9


def test_inversion_rejects_non_odd():
    with pytest.raises(ValueError):
        inversion_transform(power_series([0, 1, 0.5]))


def test_inversion_matches_reference_per_slot():
    rng = np.random.default_rng(25)
    g = sqrt_transform(rand_power_series(rng, 9))
    h = inversion_transform(g)
    for slot in (1, 2):
        r = ref.inversion_coeffs(list(g.slot(slot)))
        mine = h.slot(slot)
        for i in range(len(r)):
            assert abs(mine[i] - r[i]) < 1e-12


# -- area functionals -----------------------------------------------------------------


def test_area_sum_examples():
    assert gronwall_area_sum(laurent_series([1, 0.7])) == Hyperbolic(0, 0)
    assert gronwall_area_sum(laurent_series([1, 0, 1])) == Hyperbolic(1, 1)
    g = laurent_series([1, 0, 0.5, 0, 0.25])
    s = gronwall_area_sum(g)
    assert abs(s.a1 - 0.4375) < 1e-15 and abs(s.a2 - 0.4375) < 1e-15


def test_area_sum_equality_for_koebe_tail():
    f = koebe_rotation_series(Bicomplex(-1, 1j), 16)
    h = inversion_transform(sqrt_transform(f))
    s = gronwall_area_sum(h)
    assert abs(s.a1 - 1) < 1e-10 and abs(s.a2 - 1) < 1e-10


def test_area_contour_examples():
    ident = laurent_series([1, 0])
    a = area_contour_estimate(ident, 2.0, 64)
    assert abs(a.a1 - 4 * math.pi) < 1e-10
    g = laurent_series([1, 0, 1])
    a = area_contour_estimate(g, 2.0, 256)
    assert abs(a.a1 - math.pi * (4 - 0.25)) < 1e-10
    g2 = laurent_series([1, 0, 0, 0.5])
    a = area_contour_estimate(g2, 1.5, 256)
    target = math.pi * (1.5**2 - 2 * 0.25 * 1.5**-4)
    assert abs(a.a1 - target) < 1e-10


def test_area_contour_validation():
    g = laurent_series([1, 0, 1])
    with pytest.raises(DomainError):
        area_contour_estimate(g, 1.0, 256)
    with pytest.raises(DomainError):
        area_contour_estimate(g, 2.0, 2)


def test_area_functionals_name_a_value_beyond_float_range():
    # |B_3|^2 = 1e320 overflows the square; a radius of 1e200 makes the
    # contour area about pi * 1e400; each used to end as a non-finite report
    with pytest.raises(DomainError, match=r"^area sum .* = \(inf, inf\) lies beyond the float"):
        gronwall_area_sum(laurent_series([1, 0, 0.5, 1e160]))
    with pytest.raises(DomainError, match=r"^contour area at radius 1e\+200 .* beyond the float"):
        area_contour_estimate(laurent_series([1, 0, 0.5]), 1e200, 64)
    for r in (math.inf, math.nan):  # no radius to sample at: an input error, not an overflow
        with pytest.raises(DomainError, match="^sampling radius must be finite and exceed 1"):
            area_contour_estimate(laurent_series([1, 0, 0.5]), r, 64)
    # ordinary values keep their bits: the largest tail whose square stays finite
    big = 1e153
    assert gronwall_area_sum(laurent_series([1, 0, big])) == Hyperbolic(big**2, big**2)


def test_area_contour_matches_reference():
    rng = np.random.default_rng(26)
    coeffs = [Bicomplex.from_scalar(1), Bicomplex.from_scalar(0)]
    for n in range(1, 9):
        a = rng.uniform(-1, 1, 4) * 0.3
        coeffs.append(Bicomplex(complex(a[0], a[1]), complex(a[2], a[3])))
    g = laurent_series(coeffs)
    mine = area_contour_estimate(g, 1.5, 512)
    for slot in (1, 2):
        r = ref.contour_area(list(g.slot(slot)), 1.5, 512)
        closed = ref.closed_form_area(list(g.slot(slot)), 1.5)
        assert abs(mine.as_tuple()[slot - 1] - r) < 1e-11 * (1 + abs(r))
        assert abs(mine.as_tuple()[slot - 1] - closed) < 1e-8


def test_area_contour_closed_form_at_sample_floor():
    # tail order 128 at the fewest samples allowed (4 * 128); at r = 1.01 the
    # last terms still weigh r^(-256) ~ 0.08 in the closed form
    rng = np.random.default_rng(33)
    coeffs = [Bicomplex.from_scalar(1), Bicomplex(0.3, -0.2j)]
    for _ in range(128):
        a = rng.uniform(-1, 1, 4) * 0.1
        coeffs.append(Bicomplex(complex(a[0], a[1]), complex(a[2], a[3])))
    g = laurent_series(coeffs)
    mine = area_contour_estimate(g, 1.01, 4 * 128)
    for slot in (1, 2):
        closed = ref.closed_form_area(list(g.slot(slot)), 1.01)
        assert abs(mine.as_tuple()[slot - 1] - closed) < 1e-11 * (1 + abs(closed))


# -- bound checks -------------------------------------------------------------------


def test_bieberbach_identity():
    value, holds = bieberbach_check(identity_series())
    assert holds and value == Hyperbolic(0, 0)


def test_bieberbach_componentwise_failure():
    f = power_series([0, 1, Bicomplex(3, 0)])
    res = bieberbach_check(f)
    assert res.value == Hyperbolic(3, 0)
    assert not res.holds


def test_bieberbach_trace_consistency():
    f = koebe_rotation_series(Bicomplex.from_scalar(-1), 12)
    res = bieberbach_check(f)
    assert res.trace["abs_a2"] == [2.0, 2.0]
    assert res.trace["c1_within_unit"]
    assert abs(res.trace["tail_area_sum"][0] - 1) < 1e-10


def test_covering_min_identity():
    m = koebe_covering_min(identity_series(), 0.9, 64)
    assert abs(m.a1 - 0.9) < 1e-12 and abs(m.a2 - 0.9) < 1e-12


def test_covering_min_validation():
    s = identity_series()
    with pytest.raises(DomainError):
        koebe_covering_min(s, 1.0, 64)
    with pytest.raises(DomainError):
        koebe_covering_min(s, 0.5, 4)


def test_covering_min_koebe_moderate_radius():
    # at r = 0.8 an order-64 truncation of the Koebe map is reliable
    s = koebe_rotation_series(Bicomplex.from_scalar(-1), 64)
    m = koebe_covering_min(s, 0.8, 2048)
    target = 0.8 / 1.8**2
    assert abs(m.a1 - target) < 1e-3


def test_covering_min_matches_reference():
    rng = np.random.default_rng(27)
    f = rand_power_series(rng, 8)
    mine = koebe_covering_min(f, 0.7, 128)
    for slot in (1, 2):
        r = ref.covering_min(list(f.slot(slot)), 0.7, 128)
        assert abs(mine.as_tuple()[slot - 1] - r) < 1e-11


@pytest.mark.parametrize("nsamples", [4096, 512])
def test_covering_min_koebe_closed_form_large(nsamples):
    # F_N(z) = sum_{k<=N} k (-b)^(k-1) z^k = z (1 - (N+1) x^N + N x^(N+1)) / (1 - x)^2
    # with x = -b z; at 512 samples the 2049 coefficients fold four times.
    # Rounding is eps * sum_k k r^k ~ 2e-12 at r = 0.99.
    n, r = 2048, 0.99
    b = np.array([np.exp(0.9j), np.exp(-2.2j)])
    m = koebe_covering_min(koebe_rotation_series(Bicomplex(*b), n), r, nsamples)
    z = r * np.exp(2j * np.pi * np.arange(nsamples) / nsamples)
    for slot in (1, 2):
        x = -b[slot - 1] * z
        want = np.min(np.abs(z * (1 - (n + 1) * x**n + n * x ** (n + 1)) / (1 - x) ** 2))
        assert abs(m.as_tuple()[slot - 1] - want) < 1e-10


@pytest.mark.parametrize("nsamples", [45, 201])
def test_covering_min_matches_mpmath(nsamples):
    # odd sample counts, one below N + 1 = 65 (folded) and one above
    rng = np.random.default_rng(32)
    f = rand_power_series(rng, 64)
    m = koebe_covering_min(f, 0.7, nsamples)
    with mpmath.workdps(50):
        for slot in (1, 2):
            coeffs = [mpmath.mpc(complex(a)) for a in f.slot(slot)[::-1]]
            want = min(
                abs(mpmath.polyval(coeffs, mpmath.mpf("0.7") * mpmath.expjpi(mpmath.mpf(2 * k) / nsamples)))
                for k in range(nsamples)
            )
            assert abs(m.as_tuple()[slot - 1] - float(want)) < 1e-12


def test_covering_study_large_order():
    # criterion 5 probes N = 64, where the tail swamps the map; at N = 2048
    # the same probe tracks the untruncated minima (gaps 1.2e-6 and 6e-10)
    r = 0.99
    m_koebe = koebe_covering_min(koebe_rotation_series(Bicomplex.from_scalar(-1), 2048), r, 4096)
    m_half = koebe_covering_min(power_series([0] + [1] * 2048), r, 4096)
    for got in m_koebe.as_tuple():
        assert abs(got - r / (1 + r) ** 2) < 5e-3
    for got in m_half.as_tuple():
        assert abs(got - r / (1 + r)) < 5e-3


# -- slot separation ------------------------------------------------------------------


def test_functionals_split_per_slot():
    rng = np.random.default_rng(28)
    f = rand_power_series(rng, 10)
    g = sqrt_transform(f)
    h = inversion_transform(g)
    area = gronwall_area_sum(h)
    for slot in (1, 2):
        tail = ref.inversion_coeffs(ref.sqrt_coeffs(list(f.slot(slot))))
        want = ref.gronwall_sum(tail)
        assert abs(area.as_tuple()[slot - 1] - want) < 1e-11 * (1 + abs(want))
