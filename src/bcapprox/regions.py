"""Plane regions, product-type compacts, and deterministic sampling.

The approximation engine only needs the complement topology of each slot
region, so the shape vocabulary is closed: disks, annuli, polygons, and
polygons with polygonal holes.  Bounded complement components ("holes")
are then known exactly by construction: a disk or polygon has none, an
annulus has one, a polygon with h holes has h.

A product compact K = K1*e1 + K2*e2 is classified by which slots have
holes; the four patterns decide polynomial versus rational approximants
per slot.  Classification reads the slot complements directly, so it
serves equally whether or not the null cone is excised from the
complement (excision changes no slot topology).

Boundary points are equispaced by arclength on every boundary curve and
do not depend on the seed.  They are the only points the fitter and its
error measurement use: by the maximum-modulus principle the sup of a
holomorphic error over K is its sup over the boundary.  Interior points
remain for other callers.  They are deterministic given the seed:
Owen-scrambled Halton points in bases 2 and 3 (Owen, "A randomized Halton
algorithm in R", arXiv:1706.02808), their digit permutations drawn from
``numpy.random.default_rng(seed)``, mapped to the bounding box and kept when
inside the region; they are identical, bit for bit, to scipy's
``qmc.Halton(d=2, scramble=True, seed=seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _pair_to_complex
from .errors import DomainError, GeometryError

_MIN_PER_CURVE = 8


def _as_complex_array(pts) -> np.ndarray:
    return np.asarray(pts, dtype=complex)


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
    acc = 0.0
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        acc += a.real * b.imag - b.real * a.imag
    return 0.5 * acc


class _Curve:
    """A closed boundary curve parametrized proportionally to arclength,
    with the exact distance from a point to it."""

    def __init__(self, length: float, point_at, distance):
        self.length = length
        self.point_at = point_at  # t in [0, 1) -> complex
        self.distance = distance  # complex p -> float


def _circle_curve(center: complex, radius: float) -> _Curve:
    return _Curve(
        2 * math.pi * radius,
        lambda t: center + radius * np.exp(2j * math.pi * np.asarray(t)),
        lambda p: abs(abs(p - center) - radius),
    )


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

    return _Curve(total, point_at, distance)


class PlanarRegion:
    """Base class; concrete shapes implement topology, membership and
    boundary parametrization."""

    def bounded_holes(self) -> int:
        raise NotImplementedError

    def complement_components(self) -> int:
        """Components of the complement, counting the unbounded one."""
        return self.bounded_holes() + 1

    def boundary_curves(self) -> list[_Curve]:
        raise NotImplementedError

    def contains(self, pts) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[float, float, float, float]:
        raise NotImplementedError

    def center_scale(self) -> tuple[complex, float]:
        """A centering point and length scale for basis normalization."""
        raise NotImplementedError

    def hole_anchor_points(self) -> list[complex]:
        """One representative point per bounded complement component."""
        return []

    def hole_index(self, p: complex) -> int | None:
        """Which bounded complement component contains p, if any."""
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
        if not self.radius > 0:
            raise GeometryError(f"disk radius must be positive, got {self.radius}")

    def bounded_holes(self) -> int:
        return 0

    def boundary_curves(self):
        return [_circle_curve(self.center, self.radius)]

    def contains(self, pts):
        return np.abs(_as_complex_array(pts) - self.center) <= self.radius * (1 + 1e-12)

    def bounding_box(self):
        c, r = self.center, self.radius
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def center_scale(self):
        return (self.center, self.radius)

    def to_json(self):
        return {"shape": "disk", "center": _pair_json(self.center), "radius": self.radius}


@dataclass(frozen=True)
class Annulus(PlanarRegion):
    center: complex
    r_in: float
    r_out: float

    def __post_init__(self):
        if not 0 < self.r_in < self.r_out:
            raise GeometryError(
                f"annulus needs 0 < r_in < r_out, got ({self.r_in}, {self.r_out})"
            )

    def bounded_holes(self) -> int:
        return 1

    def boundary_curves(self):
        return [
            _circle_curve(self.center, self.r_out),
            _circle_curve(self.center, self.r_in),
        ]

    def contains(self, pts):
        d = np.abs(_as_complex_array(pts) - self.center)
        return (d >= self.r_in * (1 - 1e-12)) & (d <= self.r_out * (1 + 1e-12))

    def bounding_box(self):
        c, r = self.center, self.r_out
        return (c.real - r, c.real + r, c.imag - r, c.imag + r)

    def center_scale(self):
        return (self.center, self.r_out)

    def hole_anchor_points(self):
        return [self.center]

    def hole_index(self, p):
        return 0 if abs(p - self.center) < self.r_in else None

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
        _validate_polygon(self.vertices, "polygon")

    def bounded_holes(self) -> int:
        return 0

    def boundary_curves(self):
        return [_polyline_curve(self.vertices)]

    def contains(self, pts):
        return _points_in_polygon(_as_complex_array(pts), self.vertices)

    def bounding_box(self):
        xs = [v.real for v in self.vertices]
        ys = [v.imag for v in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys))

    def center_scale(self):
        c = sum(self.vertices) / len(self.vertices)
        s = max(abs(v - c) for v in self.vertices)
        return (c, s)

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
        _validate_polygon(self.outer, "outer boundary")
        for i, hole in enumerate(self.holes):
            _validate_polygon(hole, f"hole {i}")
            inside = _points_in_polygon(np.asarray(hole, dtype=complex), self.outer)
            if not inside.all():
                raise GeometryError(f"hole {i} is not strictly inside the outer boundary")

    def bounded_holes(self) -> int:
        return len(self.holes)

    def boundary_curves(self):
        return [_polyline_curve(self.outer)] + [_polyline_curve(h) for h in self.holes]

    def contains(self, pts):
        pts = _as_complex_array(pts)
        inside = _points_in_polygon(pts, self.outer)
        for hole in self.holes:
            inside &= ~_points_in_polygon(pts, hole)
        return inside

    def bounding_box(self):
        xs = [v.real for v in self.outer]
        ys = [v.imag for v in self.outer]
        return (min(xs), max(xs), min(ys), max(ys))

    def center_scale(self):
        c = sum(self.outer) / len(self.outer)
        s = max(abs(v - c) for v in self.outer)
        return (c, s)

    def hole_anchor_points(self):
        return [sum(h) / len(h) for h in self.holes]

    def hole_index(self, p):
        arr = np.asarray([p], dtype=complex)
        for i, hole in enumerate(self.holes):
            if _points_in_polygon(arr, hole)[0]:
                return i
        return None

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
    boundary: np.ndarray
    interior: np.ndarray

    @property
    def all_points(self) -> np.ndarray:
        return np.concatenate([self.boundary, self.interior])


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


def _halton_tables(seed: int) -> list[np.ndarray]:
    """Owen's random digit permutations for bases 2 and 3, one row per digit
    that can still change a double (base**-k > 2**-54), each row stored as
    permutation times digit weight base**-(k+1).  The weights come from
    repeated division, as scipy's do; base**-k differs in the last bit."""
    rng = np.random.default_rng(seed)
    tables = []
    for base in (2, 3):
        rows = math.ceil(54 / math.log2(base)) - 1
        # shuffles each row in turn, drawing as rng.shuffle(row) would
        perms = rng.permuted(np.repeat(np.arange(base)[None], rows, axis=0), axis=1)
        weights = np.empty(rows)
        w = 1.0
        for k in range(rows):
            w /= base
            weights[k] = w
        tables.append(perms * weights[:, None])
    return tables


def _scrambled_radical_inverse(table: np.ndarray, start: int, n: int) -> np.ndarray:
    """Coordinates start .. start+n-1 in the base of one _halton_tables table.

    Each sums its permuted digits from the least significant one up; past the
    last digit of every index, each row adds its entry for digit 0.
    """
    base = table.shape[1]
    q = np.arange(start, start + n)
    acc = np.zeros(n)
    ndigits = len(np.base_repr(start + n - 1, base))
    for row in table[:ndigits]:
        q, digit = np.divmod(q, base)
        acc += row[digit]
    for zero in table[ndigits:, 0].tolist():
        acc += zero
    return acc


def sample_region(
    region: PlanarRegion, n_boundary: int, n_interior: int = 0, seed: int = 0
) -> RegionSamples:
    """Deterministic samples: equispaced-by-arclength boundary points on
    every boundary curve (holes included), plus n_interior quasi-random
    interior points.  The seed changes the interior points only; with the
    default n_interior of 0 only the region and n_boundary matter.

    The interior points are Owen-scrambled Halton points in bases 2 and 3,
    seeded by ``numpy.random.default_rng(seed)`` and identical to those of
    scipy's ``qmc.Halton(d=2, scramble=True, seed=seed)``.  They are drawn in
    batches of max(4 * n_interior, 64) consecutive sequence points over the
    bounding box and kept when inside the region, up to 64 batches.
    """
    if n_boundary < _MIN_PER_CURVE:
        raise DomainError(f"need at least {_MIN_PER_CURVE} boundary samples")
    curves = region.boundary_curves()
    counts = _allocate_boundary([c.length for c in curves], n_boundary)
    chunks = [c.point_at(np.arange(m) / m) for c, m in zip(curves, counts)]
    boundary = np.concatenate(chunks)

    if n_interior <= 0:
        return RegionSamples(boundary, np.empty(0, dtype=complex))

    xmin, xmax, ymin, ymax = region.bounding_box()
    tables = _halton_tables(seed)
    batch = max(4 * n_interior, 64)
    accepted: list[np.ndarray] = []
    got = 0
    for start in range(0, 64 * batch, batch):
        x, y = (_scrambled_radical_inverse(table, start, batch) for table in tables)
        pts = (xmin + x * (xmax - xmin)) + 1j * (ymin + y * (ymax - ymin))
        keep = pts[region.contains(pts)]
        accepted.append(keep)
        got += len(keep)
        if got >= n_interior:
            break
    if got < n_interior:
        raise GeometryError("interior sampling failed; region appears degenerate")
    interior = np.concatenate(accepted)[:n_interior]
    return RegionSamples(boundary, interior)
