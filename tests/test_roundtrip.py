"""Property tests: every public object survives the report writer.

Each object is written with ``jsonio.dumps`` (sorted keys, repr floats),
parsed back with the standard ``json`` module and rebuilt with its
``from_json``; the result must equal the original exactly, because the
repr of a finite double reads back as that double.
"""

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from bcapprox import (
    INF,
    Add,
    Annulus,
    Bicomplex,
    BicomplexRational,
    Compose,
    Const,
    Disk,
    Div,
    Exp,
    ExtendedBicomplex,
    FunctionSpec,
    MoebiusMap,
    Mul,
    PoleTerm,
    Polygon,
    PolygonWithHoles,
    Pow,
    ProductCompact,
    SlotRational,
    Sub,
    TruncatedSeries,
    Var,
    jsonio,
    laurent_series,
    power_series,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
bicomplex = st.builds(Bicomplex, cplx, cplx)
extended_slot = st.one_of(cplx, st.just(INF))


def through_text(obj, cls=None):
    """obj -> report text -> parsed JSON -> from_json."""
    return (cls or type(obj)).from_json(json.loads(jsonio.dumps(obj.to_json())))


# -- numbers and maps ------------------------------------------------------------


@given(bicomplex)
def test_bicomplex_roundtrip(z):
    assert through_text(z) == z


@given(st.builds(ExtendedBicomplex, extended_slot, extended_slot))
def test_extended_bicomplex_roundtrip(z):
    back = through_text(z)
    assert back == z
    assert back.kind() == z.kind()


small = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


def _nondegenerate(coeffs) -> bool:
    a, b, c, d = coeffs
    return not (a * d - b * c).in_null_cone()


moebius_maps = (
    st.tuples(*[st.builds(Bicomplex, small, small)] * 4)
    .filter(_nondegenerate)
    .map(lambda coeffs: MoebiusMap(*coeffs))
)


@given(moebius_maps)
def test_moebius_map_roundtrip(m):
    back = through_text(m)
    assert back == m
    assert back.det == m.det


# -- series ----------------------------------------------------------------------


@given(st.lists(bicomplex, max_size=12))
def test_power_series_roundtrip(tail):
    s = power_series([0, 1, *tail])
    back = through_text(s)
    assert back == s
    assert back.kind == s.kind and back.order == s.order


@given(st.lists(bicomplex, min_size=1, max_size=12))
def test_laurent_series_roundtrip(tail):
    s = laurent_series([1, *tail])
    back = through_text(s, TruncatedSeries)
    assert back == s
    assert back.kind == s.kind and back.order == s.order


# -- approximants ----------------------------------------------------------------


@st.composite
def pole_terms(draw):
    coeffs = tuple(draw(st.lists(cplx, min_size=1, max_size=5)))
    return PoleTerm(draw(cplx), len(coeffs), coeffs)


slot_rationals = st.builds(
    SlotRational,
    cplx,
    positive,
    st.lists(cplx, min_size=1, max_size=8).map(tuple),
    st.lists(pole_terms(), max_size=3).map(tuple),
)


@given(slot_rationals)
def test_slot_rational_roundtrip(r):
    assert through_text(r) == r


@given(st.builds(BicomplexRational, slot_rationals, slot_rationals))
def test_bicomplex_rational_roundtrip(r):
    back = through_text(r)
    assert back == r
    assert back.pole_points_extended() == r.pole_points_extended()


# -- regions ---------------------------------------------------------------------

# shapes are built from moderate numbers so that their validity checks
# (positive radii, nonzero area, holes strictly inside) are exact
centre = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
size = st.floats(min_value=1e-3, max_value=1e3)
turn = st.floats(min_value=0.0, max_value=2 * math.pi)


def ngon(c, r, k, rot):
    return tuple(c + r * complex(math.cos(rot + 2 * math.pi * j / k),
                                 math.sin(rot + 2 * math.pi * j / k)) for j in range(k))


@st.composite
def annuli(draw):
    r_in = draw(size)
    return Annulus(draw(centre), r_in, r_in * draw(st.floats(min_value=1.01, max_value=10.0)))


@st.composite
def polygons(draw):
    return Polygon(ngon(draw(centre), draw(size), draw(st.integers(3, 8)), draw(turn)))


@st.composite
def polygons_with_holes(draw):
    c, r, rot = draw(centre), draw(size), draw(turn)
    # a k-gon's inscribed circle has radius r cos(pi/k) >= r/2
    holes = (ngon(c, 0.4 * r, draw(st.integers(3, 6)), draw(turn)),)
    return PolygonWithHoles(ngon(c, r, draw(st.integers(4, 8)), rot), holes)


regions = st.one_of(
    st.builds(Disk, centre, size), annuli(), polygons(), polygons_with_holes()
)


@given(regions)
def test_planar_region_roundtrip(k):
    back = through_text(k)
    assert back == k
    assert back.bounded_holes() == k.bounded_holes()


@given(st.builds(ProductCompact, regions, regions))
def test_product_compact_roundtrip(k):
    assert through_text(k) == k


# -- functions -------------------------------------------------------------------


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children, st.lists(cplx, max_size=2).map(tuple)),
        st.builds(Pow, children, st.integers(-4, 6)),
        st.builds(Exp, children),
        st.builds(Compose, children, children),
    )


exprs = st.recursive(st.one_of(st.builds(Const, cplx), st.just(Var())), _extend, max_leaves=8)


@given(st.builds(FunctionSpec, exprs, exprs))
def test_function_spec_roundtrip(f):
    back = through_text(f)
    assert back == f
    assert back.f1.declared_poles() == f.f1.declared_poles()
