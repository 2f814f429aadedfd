"""Plane regions, product-type compacts, and boundary sampling.

The approximation engine only needs the complement topology of each slot
region, so the shape vocabulary is closed: disks, annuli, polygons, and
polygons with polygonal holes.  A shape supplies its boundary curves, the
outer curve first and then one curve per bounded complement component
("hole").  Every other fact follows from those curves, once, in
``PlanarRegion``: the number of holes, which hole a point lies in,
membership in K, the centre and scale of the basis, and each hole's anchor,
the centre of its curve.  A shape is refused when it is built, before any
numpy arithmetic, if a coordinate or size is not finite or lies beyond
+-1e150, or if a circle's radius is below the float resolution at its centre.

A product compact K = K1*e1 + K2*e2 is classified by which slots have
holes; the four patterns decide polynomial versus rational approximants
per slot.  Classification reads the slot complements directly, so it
serves equally whether or not the null cone is excised from the
complement (excision changes no slot topology).

Each curve also carries a contour rule, nodes and weights for the integral
of f dz along it: the trapezoid rule on a circle, Gauss-Legendre nodes on
each straight edge.

Samples are boundary points alone, equispaced by arclength on every
boundary curve, holes included.  They are the only points the fitter and
its error measurement use: by the maximum-modulus principle the sup of a
holomorphic error over K is its sup over the boundary.  No sample depends
on a seed, and the library draws no random numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import _pair_to_complex
from .errors import DomainError, GeometryError

_MIN_PER_CURVE = 8


def _points_in_polygon(pts: np.ndarray, verts: tuple[complex, ...]) -> np.ndarray:
    """Even-odd membership test, vectorized over points."""
    x = pts.real
    y = pts.imag
    inside = np.zeros(pts.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i].real, verts[i].imag
        x2, y2 = verts[(i + 1) % n].real, verts[(i + 1) % n].imag
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xint)
    return inside


def _polygon_area(verts: tuple[complex, ...]) -> float:
    edges = zip(verts, verts[1:] + verts[:1])
    return 0.5 * sum(a.real * b.imag - b.real * a.imag for a, b in edges)


def _require_finite(shape: str, *values: complex) -> None:
    """The finiteness rule: every coordinate and size lies within +-1e150,
    so squared distances on the shape, and its boundary length times a
    sample count, stay finite."""
    for x in (part for v in values for part in (v.real, v.imag)):
        if not abs(x) <= 1e150:
            raise GeometryError(f"{shape} coordinate or size {x} is not finite or beyond +-1e150")


def _require_resolved(shape: str, center: complex, radius: float) -> None:
    # four float spacings keep every sample off the centre, a hole's anchor
    if radius < 4 * math.ulp(max(abs(center.real), abs(center.imag))):
        raise GeometryError(f"{shape} radius {radius} is below the float resolution at {center}")


class _Curve:
    """A closed boundary curve parametrized proportionally to arclength, with
    the exact distance from a point to it, a centre and length scale,
    ``inside(points, closed)``: the points it encloses, itself if closed, and
    ``rule(n)``: nodes and weights of a contour rule for the integral of
    f dz along it, exact for polynomials of degree below about n."""

    def __init__(
        self, length: float, point_at, distance, center: complex, scale: float, inside, rule
    ):
        self.length = length
        self.point_at = point_at  # t in [0, 1) -> complex
        self.distance = distance  # complex p -> float
        self.center = center
        self.scale = scale
        self.inside = inside
        self.rule = rule  # n -> (nodes, weights)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built once per n
    and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _circle_curve(center: complex, radius: float) -> _Curve:
    def inside(pts, closed):
        # 1e-12 relative slack: a closed disk grows, an open one shrinks
        d = np.abs(pts - center)
        return d <= radius * (1 + 1e-12) if closed else d < radius * (1 - 1e-12)

    def rule(n):
        # the trapezoid rule in the angle, dz = i (z - center) dtheta.  The
        # nodes sit half a step off angle 0, so the j-th alias, the Taylor
        # term of f at index j n - 1, enters with sign (-1)^j: rules of n
        # and 2 n nodes that both miss f cannot agree on a shared alias.
        nodes = center + radius * np.exp(2j * math.pi * (np.arange(n) + 0.5) / n)
        return nodes, (2j * math.pi / n) * (nodes - center)

    point_at = lambda t: center + radius * np.exp(2j * math.pi * np.asarray(t))
    distance = lambda p: abs(abs(p - center) - radius)
    return _Curve(2 * math.pi * radius, point_at, distance, center, radius, inside, rule)


def _polyline_curve(verts: tuple[complex, ...]) -> _Curve:
    pts = np.asarray(verts + (verts[0],), dtype=complex)
    seg = np.abs(np.diff(pts))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]

    def point_at(t):
        s = (np.asarray(t, dtype=float) % 1.0) * total
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
        frac = (s - cum[idx]) / seg[idx]
        return pts[idx] + frac * (pts[idx + 1] - pts[idx])

    def distance(p):
        # nearest point of each segment a + s (b - a), s clipped to [0, 1];
        # a repeated vertex is a segment of length 0, whose point is a
        a, ab = pts[:-1], np.diff(pts)
        s = np.divide(((p - a) * ab.conj()).real, seg**2, out=np.zeros_like(seg), where=seg > 0)
        s = np.clip(s, 0.0, 1.0)
        return float(np.min(np.abs(p - (a + s * ab))))

    def rule(n):
        # n Gauss-Legendre nodes on each straight edge a + (b - a)(1 + x)/2
        x, wx = _gauss_legendre(n)
        half = np.diff(pts)[:, None] / 2
        return ((pts[:-1, None] + half) + half * x).ravel(), (half * wx).ravel()

    c = sum(verts) / len(verts)
    s = max(abs(v - c) for v in verts)
    # even-odd membership, whether or not the curve itself counts
    inside = lambda pts, closed: _points_in_polygon(pts, verts)
    return _Curve(total, point_at, distance, c, s, inside, rule)


class PlanarRegion:
    """Base class.  A shape builds its boundary curves once, when it is
    built, the outer curve first and then one curve per hole; every other
    fact about the region follows from them here.  The curves are kept on
    the instance outside the dataclass fields, so they take no part in
    equality, hashing or ``repr``."""

    def _keep_curves(self, *curves: _Curve) -> None:
        object.__setattr__(self, "_curves", curves)

    def boundary_curves(self) -> tuple[_Curve, ...]:
        return self._curves

    def __reduce__(self):
        # the curves hold closures, so a pickled or copied shape is rebuilt
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def bounded_holes(self) -> int:
        return len(self.boundary_curves()) - 1

    def complement_components(self) -> int:
        """Components of the complement, counting the unbounded one."""
        return self.bounded_holes() + 1

    def contains(self, pts) -> np.ndarray:
        """Membership in K: inside the closed outer curve and in no open hole."""
        pts = np.asarray(pts, dtype=complex)
        outer, *holes = self.boundary_curves()
        inside = outer.inside(pts, True)
        for hole in holes:
            inside &= ~hole.inside(pts, False)
        return inside

    def center_scale(self) -> tuple[complex, float]:
        """The outer curve's centre and length scale, for basis normalization."""
        outer = self.boundary_curves()[0]
        return (outer.center, outer.scale)

    def hole_anchor_points(self) -> list[complex]:
        """One point per bounded complement component: its curve's centre."""
        return [hole.center for hole in self.boundary_curves()[1:]]

    def hole_index(self, p: complex) -> int | None:
        """Which bounded complement component contains p, if any."""
        for i, hole in enumerate(self.boundary_curves()[1:]):
            if hole.inside(np.asarray([p], dtype=complex), False)[0]:
                return i
        return None

    def boundary_distance(self, p: complex) -> float:
        """Exact distance from p to the nearest boundary curve."""
        return min(c.distance(complex(p)) for c in self.boundary_curves())

    def to_json(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> PlanarRegion:
        shape = obj.get("shape")
        if shape == "disk":
            return Disk(_pair_to_complex(obj["center"]), float(obj["radius"]))
        if shape == "annulus":
            c = _pair_to_complex(obj["center"])
            return Annulus(c, float(obj["r_in"]), float(obj["r_out"]))
        if shape == "polygon":
            return Polygon(tuple(_pair_to_complex(v) for v in obj["vertices"]))
        if shape == "polygon-with-holes":
            return PolygonWithHoles(
                tuple(_pair_to_complex(v) for v in obj["outer"]),
                tuple(tuple(_pair_to_complex(v) for v in hole) for hole in obj["holes"]),
            )
        raise GeometryError(f"unknown shape {shape!r}")


def _pair_json(c: complex) -> list[float]:
    return [c.real, c.imag]


@dataclass(frozen=True)
class Disk(PlanarRegion):
    center: complex
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        _require_finite("disk", self.center, self.radius)
        if not self.radius > 0:
            raise GeometryError(f"disk radius must be positive, got {self.radius}")
        _require_resolved("disk", self.center, self.radius)
        self._keep_curves(_circle_curve(self.center, self.radius))

    def to_json(self):
        return {"shape": "disk", "center": _pair_json(self.center), "radius": self.radius}


@dataclass(frozen=True)
class Annulus(PlanarRegion):
    center: complex
    r_in: float
    r_out: float

    def __post_init__(self):
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "r_in", float(self.r_in))
        object.__setattr__(self, "r_out", float(self.r_out))
        _require_finite("annulus", self.center, self.r_in, self.r_out)
        if not 0 < self.r_in < self.r_out:
            raise GeometryError(
                f"annulus needs 0 < r_in < r_out, got ({self.r_in}, {self.r_out})"
            )
        _require_resolved("annulus", self.center, self.r_in)
        self._keep_curves(
            _circle_curve(self.center, self.r_out), _circle_curve(self.center, self.r_in)
        )

    def to_json(self):
        return {
            "shape": "annulus",
            "center": _pair_json(self.center),
            "r_in": self.r_in,
            "r_out": self.r_out,
        }


def _validate_polygon(verts: tuple[complex, ...], what: str) -> None:
    if len(verts) < 3:
        raise GeometryError(f"{what} needs at least 3 vertices")
    if abs(_polygon_area(verts)) <= 0:
        raise GeometryError(f"{what} has zero area")


@dataclass(frozen=True)
class Polygon(PlanarRegion):
    vertices: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(complex(v) for v in self.vertices))
        _require_finite("polygon", *self.vertices)
        _validate_polygon(self.vertices, "polygon")
        self._keep_curves(_polyline_curve(self.vertices))

    def to_json(self):
        return {"shape": "polygon", "vertices": [_pair_json(v) for v in self.vertices]}


@dataclass(frozen=True)
class PolygonWithHoles(PlanarRegion):
    outer: tuple[complex, ...]
    holes: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "outer", tuple(complex(v) for v in self.outer))
        object.__setattr__(
            self, "holes", tuple(tuple(complex(v) for v in h) for h in self.holes)
        )
        _require_finite("polygon-with-holes", *self.outer, *(v for h in self.holes for v in h))
        _validate_polygon(self.outer, "outer boundary")
        for i, hole in enumerate(self.holes):
            _validate_polygon(hole, f"hole {i}")
            inside = _points_in_polygon(np.asarray(hole, dtype=complex), self.outer)
            if not inside.all():
                raise GeometryError(f"hole {i} is not strictly inside the outer boundary")
        self._keep_curves(_polyline_curve(self.outer), *map(_polyline_curve, self.holes))

    def to_json(self):
        return {
            "shape": "polygon-with-holes",
            "outer": [_pair_json(v) for v in self.outer],
            "holes": [[_pair_json(v) for v in h] for h in self.holes],
        }


# -- product compacts --------------------------------------------------------


@dataclass(frozen=True)
class ProductCompact:
    """K = K1*e1 + K2*e2 with K1, K2 from the shape vocabulary."""

    k1: PlanarRegion
    k2: PlanarRegion

    def region(self, slot: int) -> PlanarRegion:
        return self.k1 if slot == 1 else self.k2

    def to_json(self) -> dict:
        return {"k1": self.k1.to_json(), "k2": self.k2.to_json()}

    @staticmethod
    def from_json(obj: dict) -> ProductCompact:
        return ProductCompact(
            PlanarRegion.from_json(obj["k1"]), PlanarRegion.from_json(obj["k2"])
        )


@dataclass(frozen=True)
class ComplementClassification:
    """Complement pattern of a product compact.

    label is one of T1 (both slot complements have holes), T2 (only slot
    1), T3 (only slot 2), T4 (both connected); counts are per-slot
    complement component counts including the unbounded component.
    """

    label: str
    counts: tuple[int, int]


def classify_complement(k: ProductCompact) -> ComplementClassification:
    h1 = k.k1.bounded_holes()
    h2 = k.k2.bounded_holes()
    if h1 and h2:
        label = "T1"
    elif h1:
        label = "T2"
    elif h2:
        label = "T3"
    else:
        label = "T4"
    return ComplementClassification(
        label, (k.k1.complement_components(), k.k2.complement_components())
    )


# -- sampling ----------------------------------------------------------------


@dataclass(frozen=True)
class RegionSamples:
    """The boundary points ``sample_region`` returns."""

    boundary: np.ndarray

    @property
    def interior(self) -> np.ndarray:
        """Always empty: no interior point is ever sampled.  Only the
        benchmark tracer reads it, for its ``regions.interior_share``
        metric; the benchmark-hygiene item of ROADMAP.md may drop both."""
        return np.empty(0, dtype=complex)


def _allocate_boundary(lengths: list[float], total: int) -> list[int]:
    """Proportional-to-arclength allocation with a floor of 8 per curve.

    The requested total is preserved when possible by trimming the largest
    allocations (never below the floor); with many curves the floors may
    force a larger total.
    """
    k = len(lengths)
    target = max(total, _MIN_PER_CURVE * k)
    whole = sum(lengths)
    counts = [max(_MIN_PER_CURVE, int(math.floor(total * L / whole + 0.5))) for L in lengths]
    while sum(counts) > target:
        i = max(range(k), key=lambda j: (counts[j], -j))
        if counts[i] <= _MIN_PER_CURVE:
            break
        counts[i] -= 1
    while sum(counts) < target:
        i = max(range(k), key=lambda j: (lengths[j], -j))
        counts[i] += 1
    return counts


def sample_region(region: PlanarRegion, n_boundary: int) -> RegionSamples:
    """Points equispaced by arclength on every boundary curve of the region,
    holes included, split among the curves by ``_allocate_boundary``."""
    if n_boundary < _MIN_PER_CURVE:
        raise DomainError(f"need at least {_MIN_PER_CURVE} boundary samples")
    curves = region.boundary_curves()
    counts = _allocate_boundary([c.length for c in curves], n_boundary)
    chunks = [c.point_at(np.arange(m) / m) for c, m in zip(curves, counts)]
    return RegionSamples(np.concatenate(chunks))
