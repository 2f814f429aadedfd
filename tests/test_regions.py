"""Region vocabulary, complement classification, boundary sampling."""

import copy
import pickle
from dataclasses import fields

import numpy as np
import pytest

from bcapprox import (
    Annulus,
    Disk,
    DomainError,
    GeometryError,
    PlanarRegion,
    Polygon,
    PolygonWithHoles,
    ProductCompact,
    classify_complement,
    jsonio,
    sample_region,
)
from bcapprox.regions import _allocate_boundary

SQUARE = (0j, 1 + 0j, 1 + 1j, 1j)


def test_shape_validation():
    with pytest.raises(GeometryError):
        Disk(0, 0.0)
    with pytest.raises(GeometryError):
        Annulus(0, 2.0, 1.0)
    with pytest.raises(GeometryError):
        Polygon((0j, 1 + 0j))
    with pytest.raises(GeometryError):
        Polygon((0j, 1 + 0j, 2 + 0j))  # collinear, zero area
    with pytest.raises(GeometryError):
        PolygonWithHoles(SQUARE, ((5 + 5j, 6 + 5j, 6 + 6j),))  # hole outside


def test_complement_components():
    assert Disk(0, 1).complement_components() == 1
    assert Polygon(SQUARE).complement_components() == 1
    assert Annulus(0, 1, 2).complement_components() == 2
    two_holes = PolygonWithHoles(
        (0j, 4 + 0j, 4 + 4j, 4j),
        ((1 + 1j, 1.5 + 1j, 1.5 + 1.5j), (2.5 + 2.5j, 3 + 2.5j, 3 + 3j)),
    )
    assert two_holes.complement_components() == 3


def test_classification_cases():
    disk = Disk(0, 1)
    ann = Annulus(0, 1, 2)
    two_holes = PolygonWithHoles(
        (0j, 4 + 0j, 4 + 4j, 4j),
        ((1 + 1j, 1.5 + 1j, 1.5 + 1.5j), (2.5 + 2.5j, 3 + 2.5j, 3 + 3j)),
    )
    c = classify_complement(ProductCompact(disk, disk))
    assert c.label == "T4" and c.counts == (1, 1)
    c = classify_complement(ProductCompact(ann, disk))
    assert c.label == "T2" and c.counts == (2, 1)
    c = classify_complement(ProductCompact(disk, ann))
    assert c.label == "T3" and c.counts == (1, 2)
    c = classify_complement(ProductCompact(two_holes, ann))
    assert c.label == "T1" and c.counts == (3, 2)


def test_disk_boundary_equispaced():
    s = sample_region(Disk(0, 1.0), 8)
    expected = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(np.sort_complex(s.boundary), np.sort_complex(expected))


def test_annulus_boundary_allocation():
    s = sample_region(Annulus(0, 1.0, 2.0), 16)
    r = np.abs(s.boundary)
    assert (np.isclose(r, 1.0).sum(), np.isclose(r, 2.0).sum()) == (8, 8)


def test_square_boundary_three_per_side():
    s = sample_region(Polygon(SQUARE), 12)
    assert len(s.boundary) == 12
    on_bottom = np.isclose(s.boundary.imag, 0) & (s.boundary.real < 1)
    assert on_bottom.sum() == 3


def test_hole_boundaries_always_sampled():
    region = PolygonWithHoles(
        (0j, 4 + 0j, 4 + 4j, 4j), ((1 + 1j, 3 + 1j, 3 + 3j, 1 + 3j),)
    )
    s = sample_region(region, 24)
    inner = [z for z in s.boundary if 0.9 < z.real < 3.1 and 0.9 < z.imag < 3.1]
    assert len(inner) >= 8


def test_sampling_deterministic():
    a = sample_region(Annulus(0, 1, 2), 32)
    b = sample_region(Annulus(0, 1, 2), 32)
    assert np.array_equal(a.boundary, b.boundary)
    assert a.interior.size == 0


def _bounding_box(region):
    if isinstance(region, (Disk, Annulus)):
        c = region.center
        r = region.radius if isinstance(region, Disk) else region.r_out
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)
    verts = region.vertices if isinstance(region, Polygon) else region.outer
    xs = [v.real for v in verts]
    ys = [v.imag for v in verts]
    return (min(xs), max(xs), min(ys), max(ys))


def _winding(pts, verts):
    """Winding number of each closed polygon around each point, summed
    from the turning angles; independent of the even-odd crossing rule."""
    d = np.asarray(verts, dtype=complex)[None, :] - pts[:, None]
    turn = np.angle(np.roll(d, -1, axis=1) / d).sum(axis=1)
    return np.rint(turn / (2 * np.pi)).astype(int)


def _exact_member(region, pts):
    if isinstance(region, Disk):
        return np.abs(pts - region.center) < region.radius
    if isinstance(region, Annulus):
        d = np.abs(pts - region.center)
        return (region.r_in < d) & (d < region.r_out)
    if isinstance(region, Polygon):
        return _winding(pts, region.vertices) != 0
    inside = _winding(pts, region.outer) != 0
    for hole in region.holes:
        inside &= _winding(pts, hole) == 0
    return inside


_ROTATED_THIN_RECT = Polygon(
    tuple(np.exp(0.25j * np.pi) * v for v in (-1 - 0.01j, 1 - 0.01j, 1 + 0.01j, -1 + 0.01j))
)


@pytest.mark.parametrize(
    "region",
    [
        Disk(0.3 - 0.2j, 1.0),
        Annulus(0.2j, 0.5, 1.0),
        PolygonWithHoles((-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j), ((-0.3 - 0.3j, 0.3 - 0.3j, 0.3j),)),
        _ROTATED_THIN_RECT,  # ~2 % of its bounding box: many batches
    ],
    ids=["disk", "annulus", "polygon-with-hole", "rotated-thin-rect"],
)
@pytest.mark.parametrize("seed", [0, 7, 1729, 1729 + 1_000_003])
@pytest.mark.parametrize("n_interior", [1, 123, 972])
def test_interior_matches_scipy_halton(region, seed, n_interior):
    # region.contains, which pole clearance and hole validation rely on,
    # sorts scipy's scrambled Halton points over the bounding box exactly
    # as the winding number (polygons) or the modulus (circles) does; the
    # points come in batches of max(4 n, 64) until n_interior fall inside
    qmc = pytest.importorskip("scipy.stats").qmc
    xmin, xmax, ymin, ymax = _bounding_box(region)
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    got = 0
    for _ in range(64):
        raw = sampler.random(max(4 * n_interior, 64))
        pts = (xmin + raw[:, 0] * (xmax - xmin)) + 1j * (ymin + raw[:, 1] * (ymax - ymin))
        inside = _exact_member(region, pts)
        assert np.array_equal(region.contains(pts), inside)
        got += int(inside.sum())
        if got >= n_interior:
            break
    assert got >= n_interior


_TWO_HOLES = PolygonWithHoles(
    (0j, 4 + 0j, 4 + 4j, 4j),
    ((1 + 1j, 1.5 + 1j, 1.5 + 1.5j), (2.5 + 2.5j, 3 + 2.5j, 3 + 3j)),
)


@pytest.mark.parametrize(
    "region",
    [Disk(0.3 - 0.2j, 1.0), Annulus(0.2j, 0.5, 1.0), Polygon(SQUARE), _TWO_HOLES],
    ids=["disk", "annulus", "polygon", "polygon-with-two-holes"],
)
@pytest.mark.parametrize("n", [8, 37, 500])
def test_samples_lie_on_each_boundary_curve(region, n):
    # every point lies on the boundary of K, and each curve gets exactly the
    # count _allocate_boundary gives it, in the order of boundary_curves()
    pts = sample_region(region, n).boundary
    scale = region.center_scale()[1]
    assert all(region.boundary_distance(z) <= 1e-12 * scale for z in pts)
    curves = region.boundary_curves()
    counts = _allocate_boundary([c.length for c in curves], n)
    assert len(pts) == sum(counts)
    for curve, chunk in zip(curves, np.split(pts, np.cumsum(counts)[:-1])):
        assert all(curve.distance(z) <= 1e-12 * scale for z in chunk)


def test_min_boundary_guard():
    with pytest.raises(DomainError):
        sample_region(Disk(0, 1), 4)


def test_hole_index_and_anchors():
    ann = Annulus(2 + 0j, 1.0, 3.0)
    assert ann.hole_anchor_points() == [2 + 0j]
    assert ann.hole_index(2.2 + 0.1j) == 0
    assert ann.hole_index(2 + 2j) is None
    pwh = PolygonWithHoles(
        (0j, 4 + 0j, 4 + 4j, 4j),
        ((1 + 1j, 1.5 + 1j, 1.5 + 1.5j), (2.5 + 2.5j, 3 + 2.5j, 3 + 3j)),
    )
    anchors = pwh.hole_anchor_points()
    assert len(anchors) == 2
    assert pwh.hole_index(anchors[0]) == 0
    assert pwh.hole_index(anchors[1]) == 1
    assert pwh.hole_index(0.5 + 3.5j) is None


def test_region_facts_keep_their_closed_forms():
    # each fact comes from the boundary curves; the values, and so every
    # w = (z - c)/s and every report, are the ones each shape stated itself
    disk = Disk(0.3 - 0.2j, 1.5)
    assert disk.center_scale() == (0.3 - 0.2j, 1.5)
    assert (disk.bounded_holes(), disk.hole_anchor_points(), disk.hole_index(0.3)) == (0, [], None)

    ann = Annulus(2 + 1j, 0.5, 3.0)
    assert ann.center_scale() == (2 + 1j, 3.0)
    assert (ann.bounded_holes(), ann.hole_anchor_points()) == (1, [2 + 1j])
    assert ann.hole_index(2.2 + 1j) == 0
    assert ann.hole_index(2 + 1j + 0.5 * (1 - 1e-11)) == 0
    assert ann.hole_index(2.7 + 1j) is None and ann.hole_index(9 + 9j) is None
    # the hole is open with the same 1e-12 slack as contains: a point within
    # it of the inner circle belongs to K, not to the hole
    edge = 2 + 1j + 0.5 * (1 - 1e-13)
    assert ann.hole_index(edge) is None and ann.contains([edge])[0]

    tri = (0.1 + 0.2j, 2.3 + 0.1j, 0.7 + 1.9j)
    poly = Polygon(tri)
    c = sum(tri) / len(tri)
    assert poly.center_scale() == (c, max(abs(v - c) for v in tri))
    assert (poly.bounded_holes(), poly.hole_anchor_points(), poly.hole_index(c)) == (0, [], None)

    outer, holes = _TWO_HOLES.outer, _TWO_HOLES.holes
    c = sum(outer) / len(outer)
    assert _TWO_HOLES.center_scale() == (c, max(abs(v - c) for v in outer))
    assert _TWO_HOLES.bounded_holes() == 2
    assert _TWO_HOLES.hole_anchor_points() == [sum(h) / len(h) for h in holes]
    assert [_TWO_HOLES.hole_index(sum(h) / len(h)) for h in holes] == [0, 1]
    assert _TWO_HOLES.hole_index(0.5 + 3.5j) is None


@pytest.mark.parametrize(
    "region", [Disk(0.3 - 0.2j, 1.0), Annulus(0.2j, 0.5, 1.0)], ids=["disk", "annulus"]
)
def test_circle_membership_keeps_boundary_samples(region):
    # the 1e-12 relative slack keeps every boundary sample in K
    assert region.contains(sample_region(region, 500).boundary).all()


@pytest.mark.parametrize(
    "build, shape",
    [
        (lambda: Disk(complex(float("inf"), 0), 1.0), "disk"),
        (lambda: Disk(0, float("nan")), "disk"),
        (lambda: Disk(0, 1e308), "disk"),
        (lambda: Annulus(0, 1.0, 1e151), "annulus"),
        (lambda: Polygon((0j, 1e400 + 0j, 1j)), "polygon"),
        (lambda: Polygon((-1e308 + 0j, 1e308 + 0j, 1e308j)), "polygon"),
        (lambda: PolygonWithHoles(SQUARE, ((0.2 + 0.2j, 0.5 + 0.2j, 0.5 + 2e150j),)),
         "polygon-with-holes"),
    ],
    ids=[
        "disk-center-inf", "disk-radius-nan", "disk-radius-1e308", "annulus-r-out-1e151",
        "polygon-vertex-1e400", "polygon-vertices-1e308", "hole-vertex-2e150",
    ],
)
def test_non_finite_or_huge_size_is_refused_when_built(build, shape):
    with pytest.raises(GeometryError, match=f"^{shape} coordinate or size .* beyond"):
        build()


def test_circle_below_float_resolution_is_refused():
    # at -1e30 a unit circle rounds onto its centre, the hole's anchor
    with pytest.raises(GeometryError, match="^annulus radius 1.0 is below the float resolution"):
        Annulus(-1e30 + 0j, 1.0, 2.0)
    with pytest.raises(GeometryError, match="^disk radius 1e-300 is below the float resolution"):
        Disk(1 + 0j, 1e-300)
    assert Disk(0, 1e-300).center_scale() == (0, 1e-300)  # at 0 the spacing is tiny too


def test_region_json_roundtrip():
    shapes = [
        Disk(1 + 2j, 0.5),
        Annulus(0, 0.5, 2.0),
        Polygon(SQUARE),
        PolygonWithHoles((0j, 4 + 0j, 4 + 4j, 4j), ((1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j),)),
    ]
    for shape in shapes:
        again = PlanarRegion.from_json(shape.to_json())
        assert again == shape
    k = ProductCompact(shapes[0], shapes[1])
    assert ProductCompact.from_json(k.to_json()) == k
    with pytest.raises(GeometryError):
        PlanarRegion.from_json({"shape": "torus"})


@pytest.mark.parametrize(
    "region",
    [
        Disk(1 + 2j, 1),
        Annulus(0, 0.5, 2),
        Polygon(SQUARE),
        PolygonWithHoles((0j, 4 + 0j, 4 + 4j, 4j), ((1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j),)),
    ],
    ids=["disk", "annulus", "polygon", "polygon-with-hole"],
)
def test_curves_built_once_and_outside_equality_and_text(region):
    assert region.boundary_curves() is region.boundary_curves()
    # equality and hashing still read the dataclass fields alone
    field_values = tuple(getattr(region, f.name) for f in fields(region))
    assert hash(region) == hash(field_values)
    twin = PlanarRegion.from_json(region.to_json())
    assert twin == region and hash(twin) == hash(region) and repr(twin) == repr(region)
    # int sizes are stored as floats, so equal shapes write equal report text
    assert jsonio.dumps(twin.to_json()) == jsonio.dumps(region.to_json())
    assert twin.boundary_curves() is not region.boundary_curves()
    for again in (pickle.loads(pickle.dumps(region)), copy.deepcopy(region)):
        assert again == region
        assert [c.length for c in again.boundary_curves()] == [
            c.length for c in region.boundary_curves()
        ]


def test_boundary_distance_closed_forms():
    assert Annulus(2 + 0j, 1.0, 3.0).boundary_distance(2.5 + 0j) == 0.5
    assert Annulus(2 + 0j, 1.0, 3.0).boundary_distance(6 + 0j) == 1.0
    assert Disk(0, 1.0).boundary_distance(0j) == 1.0
    square = Polygon(SQUARE)
    assert square.boundary_distance(0.5 + 0.25j) == pytest.approx(0.25, abs=1e-15)
    assert square.boundary_distance(2 + 2j) == pytest.approx(np.sqrt(2), abs=1e-15)  # corner
    assert square.boundary_distance(0.5 + 0j) == 0.0  # on an edge
    pwh = PolygonWithHoles((0j, 4 + 0j, 4 + 4j, 4j), ((1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j),))
    assert pwh.boundary_distance(1.5 + 1.2j) == pytest.approx(0.2, abs=1e-15)  # hole edge
