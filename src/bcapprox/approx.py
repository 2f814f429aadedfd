"""Constructive approximation on product-type compacts.

Each slot of a product-type function is fit independently on its plane
region; the complement pattern of the product compact decides the form:

    T4 (both complements connected)   polynomial x polynomial
    T2 (slot-1 complement has holes)  rational slot 1, polynomial slot 2
    T3 (mirror)                       polynomial slot 1, rational slot 2
    T1 (both have holes)              rational x rational

Both forms come out of one escalation loop; a polynomial is the rational
case with no poles.  A step adds one column to every column group below its
target: the degree, and the order of each prescribed pole (z - p)^-m, one
per bounded complement component.  Cauchy moments of f on the region's
curves set the targets; then all groups grow jointly to their caps.
The degree-t column is w times the orthonormal degree-(t-1) column
(Vandermonde with Arnoldi, Brubeck, Nakatsukasa & Trefethen 2021), which
stays well conditioned far beyond where raw monomials give up; the raw pole
column of order m+1 is that of order m times 1/(z - p).  Every new column
is orthogonalized against all earlier ones, a second time only when the
first pass kept less than 0.7 of its norm.  Row k of a matrix T holds
column k's coefficients in the raw columns w^j and (z - p)^-m, so a step is
exported to monomial and partial-fraction form as coef @ T.

The work buffers are sized by the budget but store one basis column per
row.  Each column is then one contiguous row, and memory pages are touched
only for the rows written, so a fit pays for the columns it adds, not for
the budget it was given.

Fit and validation samples lie on the boundary alone.  f - R is holomorphic
on a neighbourhood of K, so by the maximum-modulus principle its sup over K
is its sup over the boundary, and interior points could never raise the
error.  A slot draws one sample: the validation points, four per fit point
on every curve, and the fit points are every fourth of them, so f is
evaluated once per validation point.  Slots without poles size it from the
column budget; slots with poles from their moment targets, doubling it as
the columns outgrow it.  The loop gates on the fit sample; an exported step
is screened on the fit points and accepted only if it meets eps on the
whole validation sample, and that per-slot sup norm is the reported error;
the pair of slot sup errors is the hyperbolic sup error of the bicomplex
approximant.  Boundary points are equispaced by arclength, so a fit depends
on its inputs alone, and fitting a slot never looks at the other slot.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Bicomplex,
    Hyperbolic,
    _pair_to_complex,
    _read_float,
    _read_int,
    _read_node,
    _read_pairs,
)
from .errors import (
    DegreeExceededError,
    DomainError,
    IllConditionedError,
    PolePlacementError,
)
from .funcspec import Expr, FunctionSpec, check_poles_clear
from .regions import (
    PlanarRegion,
    ProductCompact,
    _allocate_boundary,
    classify_complement,
    sample_region,
)


# -- approximant representation ----------------------------------------------


@dataclass(frozen=True)
class PoleTerm:
    """Partial-fraction block at one finite pole: sum_m coeffs[m-1] * (z-p)^-m."""

    location: complex
    order: int
    coeffs: tuple[complex, ...]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        u = 1.0 / (np.asarray(z, dtype=complex) - self.location)
        return np.polyval(list(self.coeffs[::-1]) + [0j], u)

    def to_json(self) -> dict:
        return {
            "location": [self.location.real, self.location.imag],
            "order": self.order,
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj: dict, where: str = "pole term") -> PoleTerm:
        _read_node(obj, dict, where, "an object with location, order and coeffs")
        order = _read_int(obj["order"], f"{where}.order")
        coeffs = _read_pairs(obj["coeffs"], f"{where}.coeffs")
        if order != len(coeffs):
            raise ValueError(
                f"pole term order {order} differs from its {len(coeffs)} coefficient(s)"
            )
        return PoleTerm(_pair_to_complex(obj["location"], f"{where}.location"), order, coeffs)


@dataclass(frozen=True)
class SlotRational:
    """One slot of a bicomplex rational: polynomial part plus pole blocks.

    The polynomial is stored in the centered variable w = (z - center)/scale
    (ascending coefficients); centering keeps the coefficients meaningful at
    the degrees the escalation reaches.  A slot with no pole blocks is a
    pure polynomial, i.e. its only pole is at infinity.
    """

    center: complex
    scale: float
    poly: tuple[complex, ...]
    poles: tuple[PoleTerm, ...] = ()

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        w = (z - self.center) / self.scale
        vals = np.polyval(self.poly[::-1], w)
        for block in self.poles:
            vals = vals + block(z)
        return vals

    @property
    def degree(self) -> int:
        return len(self.poly) - 1

    @property
    def pole_orders(self) -> tuple[int, ...]:
        return tuple(b.order for b in self.poles)

    def is_polynomial(self) -> bool:
        return not self.poles

    def to_json(self) -> dict:
        return {
            "center": [self.center.real, self.center.imag],
            "scale": self.scale,
            "poly": [[c.real, c.imag] for c in self.poly],
            "poles": [b.to_json() for b in self.poles],
        }

    @staticmethod
    def from_json(obj: dict, where: str = "slot rational") -> SlotRational:
        _read_node(obj, dict, where, "an object with center, scale, poly and poles")
        poles = _read_node(obj["poles"], list, f"{where}.poles", "a list")
        return SlotRational(
            _pair_to_complex(obj["center"], f"{where}.center"),
            _read_float(obj["scale"], f"{where}.scale"),
            _read_pairs(obj["poly"], f"{where}.poly"),
            tuple(PoleTerm.from_json(b, f"{where}.poles[{i}]") for i, b in enumerate(poles)),
        )


@dataclass(frozen=True)
class BicomplexRational:
    """Product-type rational approximant R = R1*e1 + R2*e2."""

    r1: SlotRational
    r2: SlotRational

    def slot(self, slot: int) -> SlotRational:
        return self.r1 if slot == 1 else self.r2

    def evaluate_slot(self, slot: int, z) -> np.ndarray:
        return self.slot(slot)(z)

    def evaluate(self, z: Bicomplex) -> Bicomplex:
        v1 = self.r1(np.asarray([z.beta1]))[0]
        v2 = self.r2(np.asarray([z.beta2]))[0]
        return Bicomplex(complex(v1), complex(v2))

    def pole_marker(self) -> tuple[str, str]:
        """Per slot, "finite" when the slot carries finite poles, else "inf"
        (a pure polynomial's pole sits at that slot's infinity)."""
        return (
            "finite" if not self.r1.is_polynomial() else "inf",
            "finite" if not self.r2.is_polynomial() else "inf",
        )

    def pole_points_extended(self) -> list[dict]:
        """Pole locations as extended-plane points {"b1": ..., "b2": ...},
        pairing every slot-1 pole (or infinity) with every slot-2 one."""

        def marks(sr: SlotRational):
            if sr.is_polynomial():
                return ["inf"]
            return [[b.location.real, b.location.imag] for b in sr.poles]

        return [{"b1": m1, "b2": m2} for m1 in marks(self.r1) for m2 in marks(self.r2)]

    def to_json(self) -> dict:
        return {"r1": self.r1.to_json(), "r2": self.r2.to_json()}

    @staticmethod
    def from_json(obj: dict) -> BicomplexRational:
        _read_node(obj, dict, "rational", "an object with keys r1 and r2")
        return BicomplexRational(
            SlotRational.from_json(obj["r1"], "rational r1"),
            SlotRational.from_json(obj["r2"], "rational r2"),
        )


# -- slot fitting --------------------------------------------------------------


@dataclass(frozen=True)
class SlotFit:
    """Outcome of one slot fit.  ``samples`` counts the fit and validation
    points the fit actually used."""

    approximant: SlotRational
    sup_error: float
    degree: int
    pole_orders: tuple[int, ...]
    achieved: bool
    trace: tuple[tuple[int, tuple[int, ...], float], ...]
    samples: dict[str, int]


def _evaluate(f, pts: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return np.asarray(f.evaluate(pts) if isinstance(f, Expr) else f(pts), dtype=complex)


def _fvals(f, pts: np.ndarray) -> np.ndarray:
    """Values of f on pts; a non-finite value is an undeclared singularity."""
    vals = _evaluate(f, pts)
    bad = pts[~np.isfinite(vals)]
    if len(bad):
        shown = ", ".join(f"{complex(z):.6g}" for z in bad[:3])
        raise DomainError(
            f"slot function is not finite at {len(bad)} sample point(s), e.g. {shown}; "
            "it has an undeclared singularity on the region or overflows there"
        )
    return vals


def _orthonormalize(basis: np.ndarray, v: np.ndarray, what: tuple):
    """Classical Gram-Schmidt of v against the orthonormal rows of basis,
    repeated only when the first pass kept less than 0.7 of v's norm (Daniel,
    Gragg, Kaufman & Stewart 1976), so a column near collapse is tested after
    two passes.  Returns the projection coefficients h, the remaining norm and
    the new unit row: v = h @ basis + norm * row.  v is conjugated, not basis.
    The parts of ``what`` name the column; they are joined only when a
    collapse is raised."""
    ref = math.sqrt(np.vdot(v, v).real)
    h = (basis @ v.conj()).conj()
    v = v - h @ basis
    nrm = math.sqrt(np.vdot(v, v).real)
    if nrm < 0.7 * ref:
        h2 = (basis @ v.conj()).conj()
        v, h = v - h2 @ basis, h + h2
        nrm = math.sqrt(np.vdot(v, v).real)
    if nrm <= 1e-14 * max(ref, 1e-300):
        raise IllConditionedError(
            f"orthogonalization collapsed at {' '.join(map(str, what))}; "
            "the sample set cannot resolve it"
        )
    return h, nrm, v / nrm


def _moment_bounds(f, curve, a: complex, top: int, eps: float, outer: bool = False):
    """Cauchy lower bounds L_j, j = 0..top, on sup |f - R| over one curve.

    On a hole curve, about a point a in the hole, L_j is
    |integral of f (z-a)^j dz| / integral of |z-a|^j |dz|.  It bounds every R
    whose pole order at a is <= j: R's polynomial part and its poles in other
    holes are holomorphic inside the curve, and (z-a)^(j-m) has no residue for
    m <= j.  L_0 is |integral of f dz| / length, the bound of every polynomial.
    On the ``outer`` curve, about a point a inside it, the moments of
    (z-a)^(-j-1) bound every R of degree < j: R (z-a)^(-j-1) decays like z^-2
    and has no singularity outside the curve.

    A moment counts only if the n- and 2n-node rules of ``curve.rule`` agree
    to 1e-3 relative, it stands clear of its own rounding (the sum exceeds
    1e3 u times the sum of its terms' moduli, u = 2^-53) and f is finite at
    every node; otherwise L_j = 0, the trivial bound.  An n-node rule tests
    j < n only.  From (32, 64) the rules double while the highest j with
    L_j > eps lies within 8 of the highest j tested, until ``top`` is
    tested; each doubled pair reuses the previous fine rule and f's values
    on it.  The powers are a running product of x = (z-a)/s, or s/(z-a) on
    the outer curve, with s the largest or smallest |z-a| at the nodes: no
    factor exceeds 1 in modulus, so no power overflows, and L_j does not
    depend on s.
    """
    n = 32
    zc, wc = curve.rule(n)
    vc = _evaluate(f, zc)
    with np.errstate(all="ignore"):  # an overflow fails the tests below
        while True:
            jmax = min(n - 1, top)
            zf, wf = curve.rule(2 * n)
            vf = _evaluate(f, zf)
            nodes, nc = np.concatenate([zc, zf]), len(zc)
            vals = np.concatenate([vc, vf])
            if not np.isfinite(vals).all():
                return np.zeros(jmax + 1)
            dist = np.abs(nodes - a)
            x = np.min(dist) / (nodes - a) if outer else (nodes - a) / np.max(dist)
            weights = np.concatenate([wc, wf])
            # row j is row 0 times x^j, built by doubling: rows b..2b-1 are
            # rows 0..b-1 times x^b (np.cumprod along axis 0 runs strided and
            # costs twice as much)
            powers = np.empty((jmax + 1, len(x)), dtype=complex)
            powers[0] = weights * x if outer else weights  # (z-a)^-1 = x/s
            b, xb = 1, x
            while b <= jmax:
                e = min(2 * b, jmax + 1)
                np.multiply(powers[: e - b], xb, out=powers[b:e])
                xb, b = xb * xb, e
            fine = powers[:, nc:] @ vals[nc:]
            diff, fine = np.abs(fine - powers[:, :nc] @ vals[:nc]), np.abs(fine)
            size = np.abs(powers[:, nc:])
            bounds = fine / size.sum(axis=1)
            # the sum's own rounding: u = 2^-53 times the sum of its terms' moduli
            counted = (diff <= 1e-3 * fine) & (fine > 1e3 * 2.0**-53 * (size @ np.abs(vals[nc:])))
            bounds = np.where(counted, bounds, 0.0)
            above = np.flatnonzero(bounds > eps)
            resolved = jmax == top or not len(above) or above[-1] < jmax - 8
            if resolved or 4 * n * len(x) > 1 << 22:  # no power array beyond 2^22 entries
                return bounds
            # the doubled pair's coarse rule is this pair's fine one
            n, zc, wc, vc = 2 * n, zf, wf, vf


def _check_budget(eps: float, max_degree: int) -> None:
    """The one rule for a fit's target and degree budget."""
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"error target eps must be a positive finite number, got {eps!r}")
    if max_degree < 0:
        raise DomainError(f"degree budget max_degree must be >= 0, got {max_degree}")


def _escalate(f, region, poles, eps, max_degree, n_boundary) -> SlotFit:
    """The one escalation loop behind both slot fitters (see the module
    docstring), over poles located by :func:`_validate_poles`.  It works on
    the fit sample alone: each added column costs one projection coefficient
    and one update of the residual f - Q @ coef, whose sup is the step's
    trace error.  A step whose residual reaches eps is exported; the export
    is screened on the fit points, which are validation points, and accepted
    when it meets eps on the whole validation sample, the error it reports.
    An exhausted budget, or a basis collapse after step 0, exports the step
    with the lowest residual.

    Each group first grows to its target: the degree to the highest j whose
    outer moment bound exceeds eps, each pole to one above the highest j
    whose hole bound does, at least 1, both clipped to their caps.  A cap
    below its hole's need is named in the note of a fit that misses eps.
    A fit with no poles on a region with holes runs step 0 only when a j = 0
    hole bound, which every polynomial obeys, exceeds 2 eps; the slot ends
    not achieved there, and its note names the hole and the bound.

    The validation sample holds four points per fit point on every curve,
    and the fit points are every fourth of them, so f is evaluated once per
    validation point.  A given ``n_boundary`` fixes the fit sample's size.
    Otherwise a slot without poles has max(240, 6 columns) fit points for
    its whole column budget, split among the curves by arclength, and a
    slot with poles starts at 6 points per column of its targets plus 4
    columns of headroom: when a step would take the columns past a sixth of
    the fit points, or the basis collapses, every curve's count doubles, up
    to the budget's size, and the steps so far rerun on the new sample with
    the same targets.
    """
    _check_budget(eps, max_degree)
    caps = [cap for _, cap, _ in poles]
    ncols = max_degree + 1 + sum(caps)
    fixed = n_boundary is not None
    if not fixed:
        n_boundary = max(240, 6 * ncols)
    curves = region.boundary_curves()
    lengths = [c.length for c in curves]
    full = _allocate_boundary(lengths, n_boundary)
    m_full = sum(full)
    if m_full < ncols + 1:
        raise IllConditionedError(
            f"{m_full} samples cannot support an orthonormal basis of degree {max_degree} "
            f"with pole orders {tuple(caps)}"
        )
    # One basis column per row, on as many points as the sample in use has:
    # np.empty reserves the whole budget, but only the rows written get
    # pages, so a fit pays for the columns it added; a budget too large for
    # memory fails here, before any sample is drawn.  Row k of T holds
    # column k's coefficients in the raw columns: w^0 .. w^max_degree, then
    # each pole's (z-p)^-1 .. (z-p)^-cap.
    try:
        q_buf = np.empty(ncols * m_full, dtype=complex)
        T = np.zeros((ncols, ncols), dtype=complex)
    except (MemoryError, ValueError) as exc:  # numpy: "array is too big"
        raise DomainError(
            f"degree budget max_degree={max_degree} with pole orders {tuple(caps)} needs "
            f"{ncols} basis columns on {m_full} samples; its work buffers cannot be allocated"
        ) from exc
    coef = np.empty(ncols, dtype=complex)
    offsets = [max_degree + 1 + sum(caps[:j]) for j in range(len(caps))]
    center, scale = region.center_scale()
    # the targets each group grows to on its own, before all grow to their caps
    top_d, need_d, needs = max_degree, 0, []
    stop, notes = "degree/order budget exhausted", []
    counts = full
    if not poles:
        # Cauchy: every polynomial integrates to 0 around a hole, so f's
        # integral bounds sup |f - p| from below for all of them at once
        floors = [(_moment_bounds(f, c, c.center, 0, eps)[0], i) for i, c in enumerate(curves[1:])]
        floor, hole = max(floors, default=(0.0, 0))
        if floor > 2 * eps:
            top_d = 0
            stop = (
                f"no polynomial reaches eps: on hole {hole}, |integral of f dz| / length = "
                f"{floor:.3e} bounds every polynomial's sup error from below"
            )
    else:
        # an unresolved moment, or a centre outside the outer curve, leaves target 0
        if curves[0].inside(np.asarray([center]), False)[0]:
            bounds = _moment_bounds(f, curves[0], center, max_degree, eps, outer=True)
            need_d = int(max(np.flatnonzero(bounds > eps), default=0))
        for p, cap, hole in poles:
            bounds = _moment_bounds(f, curves[1 + hole], p, cap, eps)
            need = int(max(np.flatnonzero(bounds > eps), default=-1)) + 1
            if need > cap:
                notes.append(f"hole {hole} needs pole order ≥ {need} at {p}; cap is {cap}")
            needs.append(min(max(need, 1), cap))
        if not fixed:
            # 4 columns of headroom: fits run a few columns past their targets
            sized = _allocate_boundary(lengths, 6 * (need_d + 1 + sum(needs) + 4))
            if sum(sized) < m_full:
                counts = sized
    targets = need_d, needs

    def times_w(a, out):
        # raw coefficients of w times a column: powers of w move up by one,
        # and w (z-p)^-m = ((z-p)^-(m-1) + (p - center) (z-p)^-m) / scale
        out.fill(0)
        out[1 : max_degree + 1] = a[:max_degree]
        for (p, cap, _), o in zip(poles, offsets):
            b = a[o : o + cap] / scale
            out[o : o + cap] += (p - center) * b
            out[o : o + cap - 1] += b[1:]
            out[0] += b[0]

    def export(k, d, orders) -> SlotRational:
        a = (coef[:k] @ T[:k]).tolist()
        pairs = zip(poles, orders, offsets)
        blocks = tuple(PoleTerm(p, o, tuple(a[i : i + o])) for (p, *_), o, i in pairs)
        return SlotRational(center, scale, tuple(a[: d + 1]), blocks)

    def add(col, what, unit=None):
        # column k: row k of T holds its raw coefficients, written in place
        # from the unit raw column ``unit`` or, for a degree column, from
        # times_w before this call
        row = T[k]
        if unit is not None:
            row.fill(0)
            row[unit] = 1
        h, nrm, q = _orthonormalize(q_fit[:k], col, what)
        q_fit[k] = q
        row -= h @ T[:k]
        row /= nrm
        coef[k] = c = np.vdot(q, f_fit)
        np.subtract(resid, c * q, out=resid)

    while True:
        zv = sample_region(region, [4 * c for c in counts]).boundary
        f_val = _fvals(f, zv)
        # contiguous copies: a fit sample that is one curve's whole sample
        # keeps the bits it has when drawn on its own
        zf, f_fit = zv[::4].copy(), f_val[::4].copy()
        m = len(zf)
        q_fit = q_buf[: ncols * m].reshape(ncols, m)
        w = (zf - center) / scale
        # 1/(z - p) per pole and the latest raw pole column: order t+1 = order t * u
        u = [1.0 / (zf - p) for p, *_ in poles]
        raw = [np.ones(m, dtype=complex) for _ in poles]
        resid = f_fit.copy()
        samples = {"n_boundary": m, "n_validation_boundary": 4 * m}
        trace: list[tuple[int, tuple[int, ...], float]] = []
        best = (math.inf, 0, 0, ())
        k = last = 0
        d, orders = -1, [0] * len(poles)
        need_d, needs = targets
        grow = False
        try:
            while True:
                if d >= need_d and orders == needs:
                    if need_d == top_d and needs == caps:
                        break  # every group at its cap
                    need_d, needs = top_d, caps  # every group at its target: grow jointly
                added = (d < need_d) + sum(o < t for o, t in zip(orders, needs))
                grow = 6 * (k + added) > m and m < m_full
                if grow:
                    break
                if d < need_d:
                    # degree d is w times the orthonormal degree-(d-1) row `last`
                    d += 1
                    if d:
                        times_w(T[last], T[k])
                        add(w * q_fit[last], ("degree", d))
                    else:
                        add(np.ones(m, dtype=complex), ("degree", 0), 0)
                    last, k = k, k + 1
                for j, (p, *_) in enumerate(poles):
                    if orders[j] < needs[j]:
                        raw[j] *= u[j]
                        orders[j] += 1
                        add(raw[j], ("pole order", orders[j], "at", p), offsets[j] + orders[j] - 1)
                        k += 1
                err = float(np.abs(resid).max())
                trace.append((d, tuple(orders), err))
                if err < best[0]:
                    best = (err, k, d, tuple(orders))
                # the fit points are validation points: an export that misses
                # eps on them cannot pass on the whole validation sample
                if err <= eps:
                    sr = export(k, d, orders)
                    if np.abs(f_fit - sr(zf)).max() <= eps:
                        val_err = float(np.abs(f_val - sr(zv)).max())
                        if val_err <= eps:
                            orders = tuple(orders)
                            return SlotFit(sr, val_err, d, orders, True, tuple(trace), samples)
        except IllConditionedError as exc:
            if not trace:
                raise
            grow = m < m_full  # a larger sample may resolve the column
            if not grow:
                stop = str(exc)  # a collapse after step 0 ends the fit at its best step
        if not grow:
            break
        counts = [2 * c for c in counts]
        if sum(counts) >= m_full:
            counts = full
    _, k, d, orders = best
    sr = export(k, d, orders)
    err = float(np.abs(f_val - sr(zv)).max())
    raise DegreeExceededError(
        f"{'; '.join([stop, *notes])}; best sup error {err:.3e} > {eps:.3e}",
        SlotFit(sr, err, d, orders, False, tuple(trace), samples),
        err,
    )


def fit_polynomial_slot(
    f,
    region: PlanarRegion,
    eps: float,
    max_degree: int,
    *,
    n_boundary: int | None = None,
) -> SlotFit:
    """Least-squares polynomial fit with degree escalation.

    Escalates until a step meets eps on the fit sample and its export meets
    eps on the validation sample; raises DegreeExceededError (carrying the
    lowest-residual step) when the budget runs out.  Convergence is
    guaranteed only when the region's complement is connected and f is
    holomorphic on a neighborhood; calling it on a holed region is allowed
    and tends to end in DegreeExceededError, after step 0 alone when a
    hole's contour integral shows that no polynomial reaches eps.
    """
    return _escalate(f, region, [], eps, max_degree, n_boundary)


def _validate_poles(
    region: PlanarRegion, poles, automatic: bool = False
) -> list[tuple[complex, int, int]]:
    """The poles as (location, cap, hole index) triples, checked one per
    bounded hole.

    ``automatic`` poles are the hole anchors, in hole order, standing in for
    poles nobody gave: one on the boundary is refused by its hole's size.
    """
    holes = region.bounded_holes()
    poles = [(complex(p), _read_int(cap, "pole max_order")) for p, cap in poles]
    if len(poles) != holes:
        raise PolePlacementError(
            f"region has {holes} bounded complement component(s) but "
            f"{len(poles)} pole(s) were prescribed"
        )
    located: dict[int, tuple[complex, int, int]] = {}
    # the even-odd hole test counts some boundary points as inside a hole
    on_boundary = 1e-12 * region.center_scale()[1]
    for i, (p, cap) in enumerate(poles):
        if not cmath.isfinite(p):
            raise PolePlacementError(f"pole {p} is not finite")
        if cap < 1:
            raise PolePlacementError(f"pole order cap must be >= 1, got {cap}")
        if region.boundary_distance(p) <= on_boundary:
            if automatic:
                raise PolePlacementError(
                    f"hole {i} of size {region.boundary_curves()[1 + i].scale:g} is too "
                    f"small for an automatic pole (its anchor lies within {on_boundary:g} "
                    "of the boundary); an empty pole list for its slot forces a polynomial fit"
                )
            raise PolePlacementError(f"pole {p} lies on the region's boundary")
        idx = region.hole_index(p)
        if idx is None:
            raise PolePlacementError(
                f"pole {p} lies in the region or its unbounded complement component"
            )
        if idx in located:
            raise PolePlacementError(
                f"two prescribed poles share bounded complement component {idx}"
            )
        located[idx] = (p, cap, idx)
    return list(located.values())


def fit_rational_slot(
    f,
    region: PlanarRegion,
    poles,
    eps: float,
    max_degree: int,
    *,
    n_boundary: int | None = None,
    automatic: bool = False,
) -> SlotFit:
    """Least-squares fit in {1, w, ..., w^d} + {(z-p_j)^-m} with joint
    degree/order escalation.

    poles is a sequence of (location, max_order); there must be exactly one
    pole per bounded complement component, each in its own component.  With
    no poles this is fit_polynomial_slot.  ``automatic`` marks the poles as
    the region's hole anchors, so that a refusal names the hole.
    """
    poles = _validate_poles(region, poles, automatic)
    return _escalate(f, region, poles, eps, max_degree, n_boundary)


# -- product-level driver ------------------------------------------------------


@dataclass(frozen=True)
class ApproxReport:
    """Machine-readable result of a product-compact approximation run."""

    classification: str
    complement_counts: tuple[int, int]
    sup_error: Hyperbolic
    target_eps: float
    achieved: bool
    degrees: tuple[int, int]
    pole_orders: tuple[tuple[int, ...], tuple[int, ...]]
    pole_marker: tuple[str, str]
    pole_points: list[dict]
    samples: dict
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "class": self.classification,
            "complement_components": list(self.complement_counts),
            "sup_error": {"a1": self.sup_error.a1, "a2": self.sup_error.a2},
            "target_eps": self.target_eps,
            "achieved": self.achieved,
            "degrees": list(self.degrees),
            "pole_orders": [list(o) for o in self.pole_orders],
            "pole_marker": {"e1": self.pole_marker[0], "e2": self.pole_marker[1]},
            "pole_points": self.pole_points,
            "samples": self.samples,
            "diagnostics": self.diagnostics,
        }


def approximate(
    func: FunctionSpec,
    compact: ProductCompact,
    eps: float,
    max_degree: int = 40,
    poles=None,
    *,
    n_boundary: int | None = None,
) -> tuple[BicomplexRational, ApproxReport]:
    """Approximate a product-type function on a product compact.

    The complement class picks polynomial or rational slots.  ``poles``
    optionally overrides per slot: a pair whose entries are None (auto:
    one pole per hole, anchored at hole centers; a hole too small to hold
    its anchor off the boundary is refused by name), an explicit list of
    (location, max_order), or an empty list to force a polynomial fit
    regardless of topology.  A pole whose max_order is None, automatic
    poles included, is order-capped at max(1, max_degree).

    ``pole_clearance`` in a slot's diagnostics is the exact distance from
    its nearest pole to the slot region's boundary; for a pole in a hole
    that is its distance to the region.

    A slot that exhausts its budget is reported honestly: the best
    approximant is returned with achieved=False and a diagnostic message.
    """
    _check_budget(eps, max_degree)
    cls = classify_complement(compact)
    requested = (None, None) if poles is None else poles
    fits: list[SlotFit] = []
    diagnostics: dict[str, dict] = {}
    for slot in (1, 2):
        region = compact.region(slot)
        expr = func.slot_expr(slot)
        req = requested[slot - 1]
        automatic = req is None
        if automatic:
            req = [(a, None) for a in region.hole_anchor_points()]
        plist = [(complex(p), max(1, max_degree) if cap is None else cap) for p, cap in req]
        try:
            check_poles_clear(expr, region)
            if plist:
                fit = fit_rational_slot(
                    expr, region, plist, eps, max_degree, n_boundary=n_boundary,
                    automatic=automatic,
                )
            else:
                fit = fit_polynomial_slot(expr, region, eps, max_degree, n_boundary=n_boundary)
            note = "converged"
        except DegreeExceededError as exc:
            fit = exc.best
            note = str(exc)
        except DomainError as exc:
            raise DomainError(f"slot {slot}: {exc}") from exc
        fits.append(fit)
        clearance = None
        if fit.approximant.poles:
            clearance = min(
                region.boundary_distance(block.location) for block in fit.approximant.poles
            )
        diagnostics[f"slot{slot}"] = {
            "achieved": fit.achieved,
            "note": note,
            "degree": fit.degree,
            "pole_orders": list(fit.pole_orders),
            "forced_polynomial": bool(req == [] and region.bounded_holes() > 0),
            "pole_clearance": clearance,
        }
    rational = BicomplexRational(fits[0].approximant, fits[1].approximant)
    report = ApproxReport(
        classification=cls.label,
        complement_counts=cls.counts,
        sup_error=Hyperbolic(fits[0].sup_error, fits[1].sup_error),
        target_eps=float(eps),
        achieved=fits[0].achieved and fits[1].achieved,
        degrees=(fits[0].degree, fits[1].degree),
        pole_orders=(fits[0].pole_orders, fits[1].pole_orders),
        pole_marker=rational.pole_marker(),
        pole_points=rational.pole_points_extended(),
        samples={"slot1": fits[0].samples, "slot2": fits[1].samples},
        diagnostics=diagnostics,
    )
    return rational, report


def sup_error_k(
    func: FunctionSpec,
    rational: BicomplexRational,
    compact: ProductCompact,
    n_validation: int,
) -> Hyperbolic:
    """Hyperbolic sup norm of F - R over max(8, n_validation) boundary points
    per slot, equispaced by arclength.  By the maximum-modulus principle the
    sup over the boundary is the sup over K; slot errors never mix.
    """
    errs = []
    for slot in (1, 2):
        pts = sample_region(compact.region(slot), max(8, n_validation)).boundary
        f = func.evaluate_slot(slot, pts)
        r = rational.evaluate_slot(slot, pts)
        errs.append(float(np.max(np.abs(f - r))))
    return Hyperbolic(errs[0], errs[1])
