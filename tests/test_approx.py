"""Fitting engine: polynomial/rational slots, dispatch, error reporting."""

import cmath
import math
import warnings

import mpmath
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
from bcapprox import approx as approx_module
from bcapprox.funcspec import Const, Div, Pow, Var

UNIT_DISK = Disk(0, 1.0)
ANNULUS = Annulus(0, 1.0, 2.0)
INV_Z = Div(Const(1), Var(), poles=(0j,))
# no polynomial approximates it on ANNULUS, yet its integral around the hole
# is 0, so the hole bound does not stop the fit: the budget runs out
INV_Z2_PLUS_CUBE = Var() ** -2 + Var() ** 3


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
        fit_polynomial_slot(INV_Z2_PLUS_CUBE, ANNULUS, 1e-10, 40)
    best = exc.value.best
    assert not best.achieved
    assert len(best.trace) == 41
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


@pytest.mark.parametrize(
    "region, poles",
    [(Annulus(0, 0.5, 1.0), [(0j, 40)]), (UNIT_DISK, [])],
    ids=["annulus-pole", "disk"],
)
def test_one_orthonormalization_per_column(monkeypatch, region, poles):
    # the degree-t column grows from the orthonormal degree-(t-1) row, so no
    # column is orthonormalized twice
    orthonormalize, calls = approx_module._orthonormalize, []

    def counted(basis, v, what):
        calls.append(what)
        return orthonormalize(basis, v, what)

    monkeypatch.setattr(approx_module, "_orthonormalize", counted)
    fit = fit_rational_slot(exp(var()), region, poles, 1e-10, 40)
    assert fit.achieved
    assert len(calls) == fit.degree + 1 + sum(fit.pole_orders)
    assert len(set(calls)) == len(calls)


_TWO_HOLES = PolygonWithHoles(
    (-2 - 2j, 3 - 2j, 3 + 2j, -2 + 2j),
    ((-1.3 - 0.3j, -0.7 - 0.3j, -0.7 + 0.3j, -1.3 + 0.3j), (0.7 - 0.3j, 1.3, 0.7 + 0.3j)),
)


@pytest.mark.parametrize(
    "region, poles, f",
    [
        (Disk(0.2, 1.0), [], np.exp),
        (
            Annulus(0.3 + 0.1j, 0.5, 1.0),
            [(0.4 + 0.1j, 30)],
            lambda z: np.exp(z) + 1 / (z - 0.4 - 0.1j),
        ),
        (
            _TWO_HOLES,
            [(-1, 30), (0.9, 30)],
            lambda z: np.exp(z) + 1 / (z + 1) + 0.5 / (z - 0.9) ** 2,
        ),
    ],
    ids=["disk", "annulus-pole", "polygon-two-holes"],
)
def test_export_reproduces_trace_error(region, poles, f):
    # the monomial and partial-fraction export, evaluated on the fit sample,
    # has the residual that the loop recorded for the accepted step
    fit = fit_rational_slot(f, region, poles, 1e-6, 30, n_boundary=400)
    assert fit.achieved
    zf = sample_region(region, 400).boundary
    got = float(np.max(np.abs(f(zf) - fit.approximant(zf))))
    assert got == pytest.approx(fit.trace[-1][2], rel=1e-6)


def test_export_matches_mpmath_lstsq():
    # degree 4 and pole order 3 on 40 points: the exported coefficients are
    # the least-squares solution over the raw columns w^k and (z - p)^-m
    region, p = Annulus(0, 0.5, 1.0), 0.1

    def f(z):
        return np.exp(z) + 1 / (z - p)

    with pytest.raises(DegreeExceededError) as exc:
        fit_rational_slot(f, region, [(p, 3)], 1e-15, 4, n_boundary=40)
    sr = exc.value.best.approximant
    assert sr.degree == 4 and sr.pole_orders == (3,)
    zf = sample_region(region, 40).boundary
    center, scale = region.center_scale()
    with mpmath.workdps(50):
        zs = [mpmath.mpc(complex(z)) for z in zf]
        w = [(z - mpmath.mpc(center)) / scale for z in zs]
        a = mpmath.matrix(
            [[x**k for k in range(5)] + [(z - p) ** -m for m in (1, 2, 3)] for x, z in zip(w, zs)]
        )
        b = mpmath.matrix([mpmath.exp(z) + 1 / (z - p) for z in zs])
        want = mpmath.lu_solve(a.H * a, a.H * b)
    got = list(sr.poly) + list(sr.poles[0].coeffs)
    assert len(got) == len(want) == 8
    assert max(abs(g - complex(x)) for g, x in zip(got, want)) <= 1e-8


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
        fit_polynomial_slot(INV_Z2_PLUS_CUBE, ANNULUS, 1e-10, 12)
    best = exc.value.best
    errs = [err for _, _, err in best.trace]
    # the exported step is the one with the lowest fit-sample residual
    assert best.degree == best.trace[errs.index(min(errs))][0] == 3
    zv = sample_region(ANNULUS, best.samples["n_validation_boundary"]).boundary
    want = float(np.max(np.abs(INV_Z2_PLUS_CUBE.evaluate(zv) - best.approximant(zv))))
    assert best.sup_error == want == exc.value.error


# -- fits that any stop rule must leave alone ---------------------------------------


def test_z10_on_disk_converges_at_degree_10():
    fit = fit_polynomial_slot(var() ** 10, UNIT_DISK, 1e-12, 40)
    assert fit.achieved and fit.degree == 10


def test_thin_rectangle_keeps_its_late_best_step():
    # exp(16z) on a 2 x 0.02 rectangle converges superlinearly but late: a
    # geometric rate taken from the early steps would give up far too soon
    rect = Polygon((-1 - 0.01j, 1 - 0.01j, 1 + 0.01j, -1 + 0.01j))
    with pytest.raises(DegreeExceededError) as exc:
        fit_polynomial_slot(exp(16 * var()), rect, 1e-8, 40)
    assert exc.value.error < 1e-6
    assert exc.value.best.degree >= 37


def test_slow_geometric_fit_reaches_degree_217():
    f = Div(Const(1), var() - 1.1, poles=(1.1 + 0j,))
    fit = fit_polynomial_slot(f, UNIT_DISK, 1e-8, 250)
    assert fit.achieved and fit.degree == 217


# -- the hole bound: no polynomial beats |integral of f dz| / length ---------------------

SQUARE = (-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j)
TRIANGLE = (0.3 + 0j, -0.15 + 0.26j, -0.15 - 0.26j)
SQUARE_WITH_TRIANGLE = PolygonWithHoles(SQUARE, (TRIANGLE,))


def _hole_curve(region):
    return region.boundary_curves()[1]


def _hole_floor(f, hole):
    """The j = 0 hole moment: |integral of f dz| / length on one hole curve."""
    return approx_module._moment_bounds(f, hole, hole.center, 0, 1.0)[0]


@pytest.mark.parametrize(
    "center, r_in, p",
    [(0j, 0.5, 0.1 + 0j), (0.1 + 0.05j, 0.45, 0.3 + 0.1j), (-2 + 1j, 0.2, -2.05 + 1.1j)],
)
def test_forced_pole_on_annulus_stops_after_one_step(center, r_in, p):
    region = Annulus(center, r_in, 2 * r_in)
    f = Div(Const(1), var() - p)
    floor = _hole_floor(f, _hole_curve(region))
    assert floor == pytest.approx(1 / r_in, rel=1e-9)
    with pytest.raises(DegreeExceededError) as exc:
        fit_polynomial_slot(f, region, 1e-8, 40)
    best = exc.value.best
    assert len(best.trace) == 1 and best.degree == 0 and not best.achieved
    assert str(exc.value).startswith(
        f"no polynomial reaches eps: on hole 0, |integral of f dz| / length = {floor:.3e} "
    )
    assert exc.value.error >= floor


def test_forced_pole_on_polygonal_hole_stops_after_one_step():
    f = Div(Const(1), var() - 0.02)
    perimeter = sum(abs(a - b) for a, b in zip(TRIANGLE, TRIANGLE[1:] + TRIANGLE[:1]))
    floor = _hole_floor(f, _hole_curve(SQUARE_WITH_TRIANGLE))
    assert floor == pytest.approx(2 * math.pi / perimeter, rel=1e-9)
    func = FunctionSpec(exp(var()), f)
    compact = ProductCompact(UNIT_DISK, SQUARE_WITH_TRIANGLE)
    _, report = approximate(func, compact, 1e-8, poles=(None, []))
    note = report.diagnostics["slot2"]["note"]
    assert note.startswith("no polynomial reaches eps: on hole 0")
    assert f"{floor:.3e}" in note
    assert report.degrees[1] == 0 and report.sup_error.a2 >= floor
    assert report.diagnostics["slot1"]["achieved"]


@pytest.mark.parametrize("region", [Annulus(0.1 + 0.05j, 0.45, 1.0), SQUARE_WITH_TRIANGLE],
                         ids=["annulus", "square-triangle"])
@pytest.mark.parametrize("a", [4, 8, 12, 16])
def test_entire_function_fit_is_untouched_by_the_hole_bound(monkeypatch, region, a):
    # the integral of an entire f vanishes: no bound, and the fit is the one
    # the loop gives without the bound, converged or not
    f = exp(a * var())
    assert _hole_floor(f, _hole_curve(region)) == 0.0

    def fit():
        try:
            return fit_polynomial_slot(f, region, 1e-8, 60)
        except DegreeExceededError as exc:
            return exc.best

    with_bound = fit()
    monkeypatch.setattr(
        approx_module, "_moment_bounds", lambda f, curve, a, top, eps, outer=False: np.zeros(1)
    )
    assert with_bound == fit()
    if isinstance(region, PolygonWithHoles) and a < 16:
        assert with_bound.achieved and 25 <= with_bound.degree <= 52


def test_double_pole_runs_the_full_budget():
    # residue 0: the integral vanishes, so only the budget ends the fit
    f = Pow(Var() - (0.1 + 0.05j), -2)
    region = Annulus(0j, 0.5, 1.0)
    assert _hole_floor(f, _hole_curve(region)) == 0.0
    with pytest.raises(DegreeExceededError, match="budget exhausted") as exc:
        fit_polynomial_slot(f, region, 1e-8, 40)
    assert len(exc.value.best.trace) == 41


def test_pole_beside_a_hole_vertex_falls_back_to_the_full_run():
    # 0.01 from the vertex at 0.3 the 32- and 64-node rules disagree
    f = Div(Const(1), var() - 0.29)
    assert _hole_floor(f, _hole_curve(SQUARE_WITH_TRIANGLE)) == 0.0
    with pytest.raises(DegreeExceededError, match="budget exhausted") as exc:
        fit_polynomial_slot(f, SQUARE_WITH_TRIANGLE, 1e-8, 40)
    assert len(exc.value.best.trace) == 41


@pytest.mark.parametrize("a", range(56, 66))
def test_unresolved_circle_rules_give_no_bound(a):
    # exp(az) on the unit circle needs ~a nodes; with nodes at angle 0 the
    # 32- and 64-node rules share the alias at Taylor index 63 and agreed
    # on a false bound for a = 58..63
    assert _hole_floor(exp(a * var()), _hole_curve(Annulus(0j, 1.0, 2.0))) == 0.0


def test_no_bound_where_f_is_not_finite_at_a_node():
    # a pole on a node of the 32-node rule: no bound, and no error either
    region = Annulus(0j, 0.45, 1.0)
    nodes, _ = _hole_curve(region).rule(32)
    f = Div(Const(1), var() - complex(nodes[7]))
    assert _hole_floor(f, _hole_curve(region)) == 0.0


# -- Cauchy moments size the column groups --------------------------------------------


@pytest.mark.parametrize(
    "c, radius, a",
    [(0j, 1.0, 1.5), (0.3 - 0.2j, 0.8, 2 * cmath.exp(0.7j)), (-1 + 2j, 2.5, 0.9j)],
)
def test_outer_moments_are_cauchy_estimates(c, radius, a):
    # on a circle of radius R about c the outer moment j of exp(az) is
    # |f^(j)(c) / j!| R^j = |e^(ac) a^j / j!| R^j
    outer = Disk(c, radius).boundary_curves()[0]
    bounds = approx_module._moment_bounds(exp(Const(a) * var()), outer, c, 12, 1e-8, outer=True)
    assert len(bounds) == 13
    for j, got in enumerate(bounds):
        want = abs(cmath.exp(a * c) * a**j / math.factorial(j)) * radius**j
        assert got == pytest.approx(want, rel=1e-9), j


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("offset", [0.1, 0.15 - 0.1j])
def test_hole_moments_are_laurent_coefficients(k, offset):
    # about the centre a of the hole, (z - p)^-k is the sum over n of
    # C(n+k-1, k-1) (p-a)^n (z-a)^-(n+k); moment j picks n = j + 1 - k, so
    # L_j = C(j, k-1) |p-a|^(j+1-k) / r^(j+1), and 0 below j = k - 1
    a, r = 0.2 + 0.1j, 0.5
    hole = Annulus(a, r, 1.0).boundary_curves()[1]
    p = a + offset
    bounds = approx_module._moment_bounds(Pow(Var() - p, -k), hole, a, 20, 1e-12)
    assert not bounds[: k - 1].any()
    assert bounds[k - 1 : k + 7].all()  # the rounding test keeps the leading ones
    for j in np.flatnonzero(bounds):
        want = math.comb(j, k - 1) * abs(p - a) ** (j + 1 - k) / r ** (j + 1)
        assert bounds[j] == pytest.approx(want, rel=1e-9), j


def test_moment_rules_double_until_the_needed_order_resolves():
    # 1/(z - 0.03) about the centre of a 0.05 hole needs order 50 at eps
    # 1e-10; the 32/64 rules test j <= 31 only, where the bound still exceeds
    # eps, so the rules double, and the 64/128 rules count it to j = 43
    hole = Annulus(0j, 0.05, 1.0).boundary_curves()[1]
    f = Div(Const(1), Var() - 0.03)
    bounds = approx_module._moment_bounds(f, hole, 0j, 80, 1e-10)
    above = np.flatnonzero(bounds > 1e-10)
    assert 40 <= above[-1] < 50
    for j in above:
        assert bounds[j] == pytest.approx(0.6**j / 0.05, rel=1e-6)


def test_cap_below_the_needed_order_is_named():
    # the same hole with a pole cap of 10: no fit reaches eps, and the note
    # says which order the hole's moments ask for
    f = exp(var()) + Div(Const(1), Var() - 0.03)
    with pytest.raises(DegreeExceededError) as exc:
        fit_rational_slot(f, Annulus(0j, 0.05, 1.0), [(0j, 10)], 1e-10, 20)
    assert "hole 0 needs pole order ≥ 11 at 0j; cap is 10" in str(exc.value)
    # the fit still runs to its caps, and its error obeys the order-10 bound
    assert exc.value.best.trace[-1][:2] == (20, (10,))
    assert exc.value.error >= 0.6**10 / 0.05


@settings(max_examples=6, deadline=None)
@given(
    a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    c=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_nan=False),
    p=st.complex_numbers(max_magnitude=0.2, allow_nan=False, allow_infinity=False),
)
def test_zero_residue_pole_term_keeps_the_fit(a, c, p):
    # c/(z - p)^2 integrates to 0 around the hole, so the j = 0 moment misses
    # it; j = 1 sees it, and both fits reach eps: less that term, they agree
    # to 2 eps on the validation sample
    region, eps = Annulus(0j, 0.5, 1.0), 1e-9
    f = exp(Const(a) * var())
    fit_f = fit_rational_slot(f, region, [(p, 20)], eps, 30)
    fit_g = fit_rational_slot(f + Const(c) * Pow(Var() - p, -2), region, [(p, 20)], eps, 30)
    assert fit_f.achieved and fit_g.achieved and fit_g.pole_orders[0] >= 2
    zv = sample_region(region, fit_g.samples["n_validation_boundary"]).boundary
    diff = fit_g.approximant(zv) - c / (zv - p) ** 2 - fit_f.approximant(zv)
    assert np.max(np.abs(diff)) <= 2 * eps


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


def test_equal_eps_gives_equal_report_bytes():
    # the report stores float(eps): an int target writes 1.0, not 1
    func = FunctionSpec(exp(var()), exp(var()))
    compact = ProductCompact(UNIT_DISK, UNIT_DISK)
    as_int, as_float = (approximate(func, compact, eps)[1] for eps in (1, 1.0))
    assert jsonio.dumps(as_int.to_json()) == jsonio.dumps(as_float.to_json())
    assert '"target_eps":1.0' in jsonio.dumps(as_int.to_json())


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


def _turn(t):
    return cmath.exp(1j * t)


def _ngon(c, r, k, rot):
    return tuple(c + r * _turn(rot + 2 * math.pi * j / k) for j in range(k))


def _exp_of(a):
    return exp(Const(a) * var())


# one product compact per complement class, shaped like the benchmark's fit
# jobs: exp(az) with |a| ~ 1.5 on unit-sized shapes, 1/z on a shifted annulus
CANONICAL_FITS = {
    "T4": (
        FunctionSpec(_exp_of(1.5 * _turn(0.4)), _exp_of(1.45 * _turn(-2.1))),
        ProductCompact(Disk(0.2 + 0.1j, 1.0), Disk(-0.1 + 0.3j, 0.98)),
        1e-8,
        (13, 13),
    ),
    "T2": (
        FunctionSpec(INV_Z, _exp_of(1.55 * _turn(2.5))),
        ProductCompact(Annulus(0.09 * _turn(1.0), 0.6, 1.15), Disk(0.25 * _turn(-0.7), 1.02)),
        1e-9,
        (0, 14),
    ),
    "T3": (
        FunctionSpec(_exp_of(1.5 * _turn(1.1)), _exp_of(1.5 * _turn(-0.4))),
        ProductCompact(
            Polygon(_ngon(0.3 * _turn(0.5), 1.0, 5, 0.3)),
            PolygonWithHoles(
                _ngon(0.3 * _turn(-1.2), 1.43, 4, 0.7 + math.pi / 4),
                (_ngon(0.3 * _turn(-1.2), 0.32, 3, 0.7),),
            ),
        ),
        1e-8,
        (13, 15),
    ),
    "T1": (
        FunctionSpec(_exp_of(1.5 * _turn(2.0)), _exp_of(1.5 * _turn(-1.0))),
        ProductCompact(Annulus(0.2 * _turn(0.3), 0.5, 1.0), Annulus(0.2 * _turn(2.2), 0.49, 1.02)),
        1e-10,
        (15, 15),
    ),
}


@pytest.mark.parametrize("label", sorted(CANONICAL_FITS))
def test_canonical_fits_keep_degrees_with_few_pole_columns(label):
    # the moments size every pole group: an entire f needs at most a few
    # pole orders beside its degree, and 1/z about an anchor 0.09 off its
    # pole needs order 12 and no degree at all
    func, compact, eps, degrees = CANONICAL_FITS[label]
    _, report = approximate(func, compact, eps)
    assert report.classification == label and report.achieved
    assert report.degrees == degrees
    if label == "T2":
        assert report.pole_orders == ((12,), ())
    else:
        assert all(1 <= o <= 3 for orders in report.pole_orders for o in orders)


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
    # a polar grid over the closed annulus 1 <= |z| <= 2
    radii = np.linspace(ANNULUS.r_in, ANNULUS.r_out, 9)
    pts = ANNULUS.center + (radii[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)).ravel()
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
