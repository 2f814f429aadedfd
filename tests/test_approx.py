"""Fitting engine: polynomial/rational slots, dispatch, error reporting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcapprox import (
    Annulus,
    BicomplexRational,
    Bicomplex,
    DegreeExceededError,
    Disk,
    DomainError,
    FunctionSpec,
    IllConditionedError,
    PolePlacementError,
    Polygon,
    PolygonWithHoles,
    ProductCompact,
    SlotRational,
    approximate,
    exp,
    fit_polynomial_slot,
    fit_rational_slot,
    jsonio,
    sample_region,
    sup_error_k,
    var,
)
from bcapprox.funcspec import Const, Div, Pow, Var

UNIT_DISK = Disk(0, 1.0)
ANNULUS = Annulus(0, 1.0, 2.0)
INV_Z = Div(Const(1), Var(), poles=(0j,))


# -- polynomial slot fits -------------------------------------------------------


def test_polynomial_reproduces_z_squared():
    fit = fit_polynomial_slot(var() ** 2, UNIT_DISK, 1e-13, 10)
    assert fit.achieved and fit.degree == 2
    assert fit.sup_error <= 1e-13


def test_polynomial_exp_on_disk():
    fit = fit_polynomial_slot(exp(var()), UNIT_DISK, 1e-8, 25)
    assert fit.achieved and fit.degree <= 20


def test_polynomial_geometric_decay():
    f = Div(Const(1), var() - 2, poles=(2 + 0j,))
    fit = fit_polynomial_slot(f, UNIT_DISK, 1e-6, 40)
    assert fit.achieved
    # Taylor remainder of 1/(z-2) on the unit disk decays like 2^-d
    assert 12 <= fit.degree <= 28


def test_polynomial_budget_exhaustion_carries_best():
    with pytest.raises(DegreeExceededError) as exc:
        fit_polynomial_slot(INV_Z, ANNULUS, 1e-10, 40)
    best = exc.value.best
    assert not best.achieved
    assert exc.value.error >= 0.1
    # the floor is structural: no degree in the trace ever got close
    assert min(err for _, _, err in best.trace) >= 0.1


def test_polynomial_ill_conditioned_when_undersampled():
    with pytest.raises(IllConditionedError):
        fit_polynomial_slot(var() ** 2, UNIT_DISK, 1e-8, 20, n_boundary=8)


def test_polynomial_rejects_bad_eps():
    with pytest.raises(DomainError):
        fit_polynomial_slot(var(), UNIT_DISK, 0.0, 5)


# -- rational slot fits ----------------------------------------------------------


def test_rational_reproduces_prescribed_pole():
    f = Div(Const(1), var() - 0.2j, poles=(0.2j,))
    region = Annulus(0.2j, 0.5, 2.0)
    fit = fit_rational_slot(f, region, [(0.2j, 4)], 1e-13, 10)
    assert fit.achieved and fit.sup_error <= 1e-13
    assert fit.pole_orders == (1,)


def test_rational_inverse_on_annulus():
    fit = fit_rational_slot(INV_Z, ANNULUS, [(0j, 4)], 1e-10, 10)
    assert fit.achieved and fit.sup_error <= 1e-10


def test_rational_essential_singularity_laurent_oracle():
    # remainder bound sum_{k>m} 2^k/k! picks the needed pole order at |z| = 0.5
    f = exp(Var() ** -1)
    region = Annulus(0, 0.5, 2.0)
    need = 1
    while sum(2.0**k / math.factorial(k) for k in range(need + 1, 60)) > 1e-6:
        need += 1
    fit = fit_rational_slot(f, region, [(0j, 20)], 1e-6, 10)
    assert fit.achieved
    assert fit.pole_orders[0] <= need + 1


def test_pole_placement_validation():
    with pytest.raises(PolePlacementError):
        fit_rational_slot(INV_Z, ANNULUS, [], 1e-8, 10)  # count mismatch
    with pytest.raises(PolePlacementError):
        fit_rational_slot(INV_Z, ANNULUS, [(1.5 + 0j, 4)], 1e-8, 10)  # inside region
    with pytest.raises(PolePlacementError):
        fit_rational_slot(INV_Z, ANNULUS, [(5 + 0j, 4)], 1e-8, 10)  # unbounded side
    two_holes = PolygonWithHoles(
        (-3 - 3j, 3 - 3j, 3 + 3j, -3 + 3j),
        ((-2 - 1j, -1 - 1j, -1 + 1j, -2 + 1j), (1 - 1j, 2 - 1j, 2 + 1j, 1 + 1j)),
    )
    with pytest.raises(PolePlacementError):
        fit_rational_slot(
            INV_Z, two_holes, [(-1.5 + 0j, 3), (-1.4 + 0j, 3)], 1e-8, 10
        )  # same hole twice


def test_undersampled_pole_columns_rejected_up_front():
    # 60 fit points cannot carry 11 polynomial plus 80 pole columns
    with pytest.raises(IllConditionedError, match="orthonormal basis"):
        fit_rational_slot(INV_Z, ANNULUS, [(0j, 80)], 1e-8, 10, n_boundary=60)


# -- the escalation loop against a fresh least-squares solve ----------------------


def _hessenberg_columns(w, degree):
    """Arnoldi polynomials on w built out to degree."""
    q = np.zeros((len(w), degree + 1), dtype=complex)
    q[:, 0] = 1.0 / math.sqrt(len(w))
    for k in range(degree):
        v = w * q[:, k]
        for _ in range(2):
            for i in range(k + 1):
                v = v - np.vdot(q[:, i], v) * q[:, i]
        q[:, k + 1] = v / np.linalg.norm(v)
    return q


@pytest.mark.parametrize(
    "region, poles, validation_differs",
    [
        (Disk(0.2, 1.0), [], False),
        (Annulus(0, 0.5, 1.0), [(0j, 30)], False),
        (Polygon((0, 2, 0.5 + 1.5j)), [], True),
    ],
    ids=["disk", "annulus-pole", "polygon"],
)
def test_trace_matches_lstsq_reference(region, poles, validation_differs):
    # every trace step's error is the fit-sample sup residual of a fresh
    # least-squares solve over the same columns: Arnoldi polynomials up to
    # the step's degree plus column-normalized (z - p)^-m up to its pole orders
    f = exp(var())
    max_degree = 25
    fit = fit_rational_slot(f, region, poles, 1e-12, max_degree)
    assert fit.achieved and len(fit.trace) >= 14
    zf = sample_region(region, fit.samples["n_boundary"]).boundary
    center, scale = region.center_scale()
    q = _hessenberg_columns((zf - center) / scale, max_degree)
    ff = f.evaluate(zf)
    for d, orders, err in fit.trace:
        cols = [q[:, : d + 1]]
        for (p, _), o in zip(poles, orders):
            cols.append(np.stack([(zf - p) ** -m for m in range(1, o + 1)], axis=1))
        a = np.hstack(cols)
        a = a / np.linalg.norm(a, axis=0)
        coef, *_ = np.linalg.lstsq(a, ff, rcond=None)
        ref = float(np.max(np.abs(ff - a @ coef)))
        assert err == pytest.approx(ref, rel=1e-6, abs=1e-14), (d, orders)
    if validation_differs:
        # on a polygon the denser validation sample sees a larger error
        # than the fit sample at the accepted step
        assert fit.sup_error > (1 + 1e-6) * fit.trace[-1][2]


def test_accepted_fit_reports_its_validation_error():
    region = Polygon((0, 2, 0.5 + 1.5j))
    f = exp(var())
    eps = 1e-12
    fit = fit_polynomial_slot(f, region, eps, 25)
    assert fit.achieved and fit.trace[-1][2] <= eps
    zv = sample_region(region, fit.samples["n_validation_boundary"]).boundary
    assert len(zv) == fit.samples["n_validation_boundary"]
    assert fit.sup_error == float(np.max(np.abs(f.evaluate(zv) - fit.approximant(zv))))
    assert fit.sup_error <= eps


def test_exhausted_fit_reports_validation_error_of_lowest_residual_step():
    with pytest.raises(DegreeExceededError) as exc:
        fit_polynomial_slot(INV_Z, ANNULUS, 1e-10, 12)
    best = exc.value.best
    errs = [err for _, _, err in best.trace]
    # the exported step is the one with the lowest fit-sample residual
    assert best.degree == best.trace[errs.index(min(errs))][0]
    zv = sample_region(ANNULUS, best.samples["n_validation_boundary"]).boundary
    want = float(np.max(np.abs(INV_Z.evaluate(zv) - best.approximant(zv))))
    assert best.sup_error == want == exc.value.error


# -- undeclared singularities ------------------------------------------------------


@pytest.mark.parametrize(
    "expr", [Div(Const(1), Var() - 1), Pow(Var() - 1, -1)], ids=["div", "pow"]
)
def test_undeclared_pole_on_boundary_named(expr):
    # 1/(z - 1) declares no pole, so check_poles_clear passes it; the pole
    # sits on the unit circle, where a boundary sample lands on it
    func = FunctionSpec(expr, var())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"not finite at 1 sample point\(s\), e\.g\. 1\+0j"):
            approximate(func, ProductCompact(UNIT_DISK, UNIT_DISK), 1e-8)


@pytest.mark.parametrize(
    "expr, region",
    [
        (Div(Const(1), Var() - 0.3), UNIT_DISK),
        (Div(Const(1), Var() - 0.75), Annulus(0, 0.5, 1.0)),
        (exp(Div(Const(1), Var() - 0.2)), UNIT_DISK),
    ],
    ids=["pole-in-disk", "pole-in-annulus", "essential-in-disk"],
)
def test_undeclared_singularity_inside_not_achieved(expr, region):
    # finite on the boundary, so the fit runs; f - R is not holomorphic on K,
    # and the boundary-only fit is left with an error floor it cannot pass
    func = FunctionSpec(expr, var())
    _, report = approximate(func, ProductCompact(region, UNIT_DISK), 1e-8)
    assert not report.achieved
    assert not report.diagnostics["slot1"]["achieved"]
    assert report.sup_error.a1 >= 0.1


@pytest.mark.parametrize("slot", [1, 2])
@pytest.mark.parametrize(
    "bad, message",
    [
        (Div(Const(1), Var() - 1), "not finite"),  # undeclared pole on the boundary
        (INV_Z, "declared pole 0j lies inside"),  # declared pole inside the region
    ],
    ids=["undeclared", "declared"],
)
def test_domain_error_names_slot(slot, bad, message):
    exprs = [var(), var()]
    exprs[slot - 1] = bad
    with pytest.raises(DomainError, match=rf"^slot {slot}: .*{message}") as info:
        approximate(FunctionSpec(*exprs), ProductCompact(UNIT_DISK, UNIT_DISK), 1e-8)
    assert str(info.value).count(f"slot {slot}:") == 1  # prefixed once


# -- properties ---------------------------------------------------------------------


@settings(max_examples=6, deadline=None)
@given(a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_reports_byte_identical_for_equal_inputs(a):
    func = FunctionSpec(INV_Z, exp(Const(a) * var()))
    compact = ProductCompact(ANNULUS, UNIT_DISK)
    runs = [approximate(func, compact, 1e-9) for _ in range(2)]
    (r1, rep1), (r2, rep2) = runs
    assert jsonio.dumps(rep1.to_json()) == jsonio.dumps(rep2.to_json())
    assert jsonio.dumps(r1.to_json()) == jsonio.dumps(r2.to_json())


@settings(max_examples=6, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    eps=st.sampled_from([1e-4, 1e-8, 1e-12]),
)
def test_rational_fit_without_poles_is_the_polynomial_fit(a, eps):
    f = exp(Const(a) * var())

    def outcome(fitter, *args):
        try:
            fit = fitter(*args)
        except DegreeExceededError as exc:
            fit = exc.best
        return jsonio.dumps(fit.approximant.to_json()), fit.sup_error, fit.trace, fit.samples

    assert outcome(fit_rational_slot, f, UNIT_DISK, [], eps, 20) == outcome(
        fit_polynomial_slot, f, UNIT_DISK, eps, 20
    )


# -- product-level dispatch -------------------------------------------------------


def test_t4_exact_polynomial_pair():
    func = FunctionSpec(var() ** 2, var() ** 3)
    rational, report = approximate(func, ProductCompact(UNIT_DISK, UNIT_DISK), 1e-10)
    assert report.classification == "T4"
    assert report.achieved
    assert report.sup_error.a1 <= 1e-12 and report.sup_error.a2 <= 1e-12
    assert report.pole_marker == ("inf", "inf")
    assert report.pole_points == [{"b1": "inf", "b2": "inf"}]


def test_t2_dispatch_and_marker():
    func = FunctionSpec(INV_Z, exp(var()))
    compact = ProductCompact(ANNULUS, UNIT_DISK)
    rational, report = approximate(func, compact, 1e-9)
    assert report.classification == "T2"
    assert report.achieved
    assert report.pole_marker == ("finite", "inf")
    assert report.pole_points == [{"b1": [0.0, 0.0], "b2": "inf"}]
    assert rational.r1.poles and rational.r2.is_polynomial()


def test_t1_poles_per_component():
    c = 0.5 + 0.5j
    func = FunctionSpec(INV_Z, Div(Const(1), Var() - Const(c), poles=(c,)))
    compact = ProductCompact(ANNULUS, Annulus(c, 0.25, 1.5))
    rational, report = approximate(func, compact, 1e-9)
    assert report.classification == "T1"
    assert report.achieved
    assert report.pole_marker == ("finite", "finite")
    assert rational.r1.poles[0].location == 0j
    assert rational.r2.poles[0].location == c


def test_forced_polynomial_fails_honestly():
    func = FunctionSpec(INV_Z, exp(var()))
    compact = ProductCompact(ANNULUS, UNIT_DISK)
    rational, report = approximate(func, compact, 1e-9, poles=([], None))
    assert not report.achieved
    assert report.sup_error.a1 >= 0.1
    assert report.diagnostics["slot1"]["forced_polynomial"]
    assert not report.diagnostics["slot1"]["achieved"]
    assert report.diagnostics["slot2"]["achieved"]


def test_slot_independence_bit_for_bit():
    compact = ProductCompact(ANNULUS, UNIT_DISK)
    f_a = FunctionSpec(INV_Z, exp(var()))
    f_b = FunctionSpec(INV_Z, var() ** 5 - 2 * var())
    ra, rep_a = approximate(f_a, compact, 1e-9)
    rb, rep_b = approximate(f_b, compact, 1e-9)
    assert jsonio.dumps(ra.r1.to_json()) == jsonio.dumps(rb.r1.to_json())
    assert rep_a.sup_error.a1 == rep_b.sup_error.a1


def test_monotone_refinement():
    errs = []
    for max_degree in (10, 20, 30, 40):
        _, report = approximate(
            FunctionSpec(INV_Z, var()),
            ProductCompact(ANNULUS, UNIT_DISK),
            1e-12,
            max_degree,
            poles=([], []),
        )
        errs.append(report.sup_error.a1)
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_denominators_clear_of_region():
    func = FunctionSpec(INV_Z, exp(var()))
    compact = ProductCompact(ANNULUS, UNIT_DISK)
    rational, _ = approximate(func, compact, 1e-9)
    from bcapprox import sample_region

    pts = sample_region(ANNULUS, 64, 64, seed=5).all_points
    for block in rational.r1.poles:
        assert np.min(np.abs(pts - block.location)) > 0.5


@pytest.mark.parametrize("offset", [None, 0.1 - 0.2j], ids=["anchor", "off-center"])
def test_pole_clearance_is_the_exact_boundary_distance(offset):
    # for a pole in the hole the nearest point of K is on the inner circle
    c = 0.5 + 0.5j
    region = Annulus(c, 0.5, 1.5)
    poles = (None, None) if offset is None else ([(c + offset, 10)], None)
    _, report = approximate(
        FunctionSpec(exp(var()), var()), ProductCompact(region, UNIT_DISK), 1e-6, poles=poles
    )
    p = c if offset is None else c + offset
    assert report.diagnostics["slot1"]["pole_clearance"] == region.r_in - abs(p - c)
    assert report.diagnostics["slot2"]["pole_clearance"] is None


def test_report_samples_are_the_counts_each_slot_used():
    # the two slots size their samples by their own column budgets
    func = FunctionSpec(var(), exp(var()))
    _, report = approximate(func, ProductCompact(UNIT_DISK, ANNULUS), 1e-8)
    assert report.samples == {
        "slot1": {"n_boundary": 246, "n_validation_boundary": 984},
        "slot2": {"n_boundary": 486, "n_validation_boundary": 1944},
    }
    assert report.samples["slot1"] == fit_polynomial_slot(var(), UNIT_DISK, 1e-8, 40).samples


def test_report_achieved_follows_the_slot_fits():
    # a slot fit accepts an error equal to eps, and the report agrees with it
    func = FunctionSpec(exp(var()), exp(var()))
    compact = ProductCompact(UNIT_DISK, UNIT_DISK)
    _, first = approximate(func, compact, 1e-10)
    eps = max(first.sup_error.a1, first.sup_error.a2)
    _, again = approximate(func, compact, eps)
    assert max(again.sup_error.a1, again.sup_error.a2) == eps
    assert again.diagnostics["slot1"]["achieved"] and again.diagnostics["slot2"]["achieved"]
    assert again.achieved


def test_declared_pole_inside_region_rejected():
    func = FunctionSpec(INV_Z, var())
    compact = ProductCompact(UNIT_DISK, UNIT_DISK)  # 1/z is not in A(K1) here
    with pytest.raises(DomainError):
        approximate(func, compact, 1e-6)


def test_eps_validation():
    with pytest.raises(DomainError):
        approximate(
            FunctionSpec(var(), var()), ProductCompact(UNIT_DISK, UNIT_DISK), -1.0
        )


# -- error measurement --------------------------------------------------------------


def test_sup_error_exact_reproduction():
    func = FunctionSpec(var() ** 2, var() ** 3)
    compact = ProductCompact(UNIT_DISK, UNIT_DISK)
    rational, _ = approximate(func, compact, 1e-10)
    err = sup_error_k(func, rational, compact, 400)
    assert err.a1 <= 1e-13 and err.a2 <= 1e-13


def test_sup_error_slots_do_not_mix():
    func = FunctionSpec(var(), var())
    shifted = BicomplexRational(
        SlotRational(0j, 1.0, (1e-3 + 0j, 1 + 0j)),
        SlotRational(0j, 1.0, (1e-7 + 0j, 1 + 0j)),
    )
    err = sup_error_k(func, shifted, ProductCompact(UNIT_DISK, UNIT_DISK), 300)
    assert abs(err.a1 - 1e-3) < 1e-15
    assert abs(err.a2 - 1e-7) < 1e-15


def test_sup_error_taylor_tail_oracle():
    taylor = tuple(complex(1 / math.factorial(k)) for k in range(6))
    pair = BicomplexRational(
        SlotRational(0j, 1.0, taylor), SlotRational(0j, 1.0, taylor)
    )
    func = FunctionSpec(exp(var()), exp(var()))
    compact = ProductCompact(UNIT_DISK, UNIT_DISK)
    err = sup_error_k(func, pair, compact, 600)
    oracle = sum(1 / math.factorial(k) for k in range(6, 40))  # tail at z = 1
    assert abs(err.a1 - oracle) < 2e-4
    assert abs(err.a1 - err.a2) < 1e-18


# -- serialization --------------------------------------------------------------------


def test_rational_json_roundtrip():
    func = FunctionSpec(INV_Z, exp(var()))
    compact = ProductCompact(ANNULUS, UNIT_DISK)
    rational, _ = approximate(func, compact, 1e-9)
    again = BicomplexRational.from_json(rational.to_json())
    z = np.array([1.5 + 0.1j, -1.2j])
    assert np.allclose(again.evaluate_slot(1, z), rational.evaluate_slot(1, z))
    assert np.allclose(again.evaluate_slot(2, z / 2), rational.evaluate_slot(2, z / 2))
    v = again.evaluate(Bicomplex(1.5, 0.5))
    assert abs(v.beta1 - 1 / 1.5) < 1e-9
