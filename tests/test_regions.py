"""Region vocabulary, complement classification, deterministic sampling."""

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
    sample_region,
)

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
    s = sample_region(Disk(0, 1.0), 8, 0, seed=0)
    expected = np.exp(2j * np.pi * np.arange(8) / 8)
    assert np.allclose(np.sort_complex(s.boundary), np.sort_complex(expected))


def test_annulus_boundary_allocation():
    s = sample_region(Annulus(0, 1.0, 2.0), 16, 0, seed=0)
    r = np.abs(s.boundary)
    assert (np.isclose(r, 1.0).sum(), np.isclose(r, 2.0).sum()) == (8, 8)


def test_square_boundary_three_per_side():
    s = sample_region(Polygon(SQUARE), 12, 0, seed=0)
    assert len(s.boundary) == 12
    on_bottom = np.isclose(s.boundary.imag, 0) & (s.boundary.real < 1)
    assert on_bottom.sum() == 3


def test_hole_boundaries_always_sampled():
    region = PolygonWithHoles(
        (0j, 4 + 0j, 4 + 4j, 4j), ((1 + 1j, 3 + 1j, 3 + 3j, 1 + 3j),)
    )
    s = sample_region(region, 24, 0, seed=0)
    inner = [z for z in s.boundary if 0.9 < z.real < 3.1 and 0.9 < z.imag < 3.1]
    assert len(inner) >= 8


def test_interior_points_inside():
    for region in (Disk(1j, 2.0), Annulus(0, 1, 2), Polygon(SQUARE)):
        s = sample_region(region, 16, 50, seed=3)
        assert len(s.interior) == 50
        assert region.contains(s.interior).all()


def test_sampling_deterministic():
    a = sample_region(Annulus(0, 1, 2), 32, 40, seed=7)
    b = sample_region(Annulus(0, 1, 2), 32, 40, seed=7)
    assert np.array_equal(a.boundary, b.boundary)
    assert np.array_equal(a.interior, b.interior)
    c = sample_region(Annulus(0, 1, 2), 32, 40, seed=8)
    assert not np.array_equal(a.interior, c.interior)


def test_interior_points_pinned():
    # the first three points of this call, as scipy's qmc.Halton(d=2,
    # scramble=True, seed=7) produced them; no scipy needed to check
    s = sample_region(Annulus(0, 1.0, 2.0), 32, 40, seed=7)
    assert s.interior[:3].tolist() == [
        complex(0.40896932061150926, -0.92787312185961324),
        complex(1.4089693206115093, 0.84990465591816511),
        complex(0.90896932061150926, -0.48342867741516882),
    ]


def _scipy_interior(region, n_interior, seed):
    """Interior points by scipy's scrambled Halton through the same
    rejection loop: batches of max(4 n, 64) points, at most 64 batches."""
    qmc = pytest.importorskip("scipy.stats").qmc
    xmin, xmax, ymin, ymax = region.bounding_box()
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    accepted = []
    got = 0
    for _ in range(64):
        raw = sampler.random(max(4 * n_interior, 64))
        pts = (xmin + raw[:, 0] * (xmax - xmin)) + 1j * (ymin + raw[:, 1] * (ymax - ymin))
        keep = pts[region.contains(pts)]
        accepted.append(keep)
        got += len(keep)
        if got >= n_interior:
            break
    return np.concatenate(accepted)[:n_interior]


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
    ours = sample_region(region, 16, n_interior, seed).interior
    assert np.array_equal(ours, _scipy_interior(region, n_interior, seed))


def test_min_boundary_guard():
    with pytest.raises(DomainError):
        sample_region(Disk(0, 1), 4, 0, seed=0)


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
