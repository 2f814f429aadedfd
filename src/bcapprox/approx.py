"""Constructive approximation on product-type compacts.

Each slot of a product-type function is fit independently on its plane
region; the complement pattern of the product compact decides the form:

    T4 (both complements connected)   polynomial x polynomial
    T2 (slot-1 complement has holes)  rational slot 1, polynomial slot 2
    T3 (mirror)                       polynomial slot 1, rational slot 2
    T1 (both have holes)              rational x rational

Both forms come out of one escalation loop; a polynomial is the rational
case with no poles.  Step t adds the degree-t polynomial, built by the
Vandermonde-with-Arnoldi device (each new power orthogonalized against the
previous polynomials on the sample set, which keeps the basis well
conditioned far beyond where raw monomials give up), then order t+1 of each
prescribed pole (z - p)^-m, one pole per bounded complement component; the
raw pole column of order t+1 is that of order t times 1/(z - p).  Every new
column is orthonormalized once against all earlier ones, so the
least-squares fit grows by one coefficient per column and is exported to
monomial and partial-fraction form only when a step meets the target.

The work buffers are sized by the budget but store one basis column per
row.  Each column is then one contiguous row, and memory pages are touched
only for the rows written, so a fit pays for the columns it adds, not for
the budget it was given.

Fit and validation samples lie on the boundary alone.  f - R is holomorphic
on a neighbourhood of K, so by the maximum-modulus principle its sup over K
is its sup over the boundary, and interior points could never raise the
error.  The loop gates on the fit sample; an exported step is accepted only
if it meets eps on a validation sample four times denser, and that per-slot
sup norm is the reported error; the pair of slot sup errors is the
hyperbolic sup error of the bicomplex approximant.  Boundary points are
equispaced by arclength, so a fit depends on its inputs alone, and fitting
a slot never looks at the other slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Bicomplex, Hyperbolic, _pair_to_complex
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
    def from_json(obj: dict) -> PoleTerm:
        return PoleTerm(
            _pair_to_complex(obj["location"]),
            int(obj["order"]),
            tuple(_pair_to_complex(c) for c in obj["coeffs"]),
        )


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
    def from_json(obj: dict) -> SlotRational:
        return SlotRational(
            _pair_to_complex(obj["center"]),
            float(obj["scale"]),
            tuple(_pair_to_complex(c) for c in obj["poly"]),
            tuple(PoleTerm.from_json(b) for b in obj["poles"]),
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
        return BicomplexRational(
            SlotRational.from_json(obj["r1"]), SlotRational.from_json(obj["r2"])
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


def _fvals(f, pts: np.ndarray) -> np.ndarray:
    """Values of f on pts; a non-finite value is an undeclared singularity."""
    with np.errstate(all="ignore"):
        vals = np.asarray(f.evaluate(pts) if isinstance(f, Expr) else f(pts), dtype=complex)
    bad = pts[~np.isfinite(vals)]
    if len(bad):
        shown = ", ".join(f"{complex(z):.6g}" for z in bad[:3])
        raise DomainError(
            f"slot function is not finite at {len(bad)} sample point(s), e.g. {shown}; "
            "it has an undeclared singularity on the region or overflows there"
        )
    return vals


def _orthonormalize(basis: np.ndarray, v: np.ndarray, what: str):
    """Two-pass classical Gram-Schmidt of v against the orthonormal rows of
    basis: returns the projection coefficients h, the remaining norm and the
    new unit row, so that v = h @ basis + norm * row.  The vector is
    conjugated, not the basis, so no copy of the basis is made."""
    ref = np.linalg.norm(v)
    h = (basis @ v.conj()).conj()
    v = v - h @ basis
    h2 = (basis @ v.conj()).conj()
    v = v - h2 @ basis
    nrm = np.linalg.norm(v)
    if nrm <= 1e-14 * max(ref, 1e-300):
        raise IllConditionedError(
            f"orthogonalization collapsed at {what}; the sample set cannot resolve it"
        )
    return h + h2, nrm, v / nrm


def _check_budget(eps: float, max_degree: int) -> None:
    """The one rule for a fit's target and degree budget."""
    if not (math.isfinite(eps) and eps > 0):
        raise DomainError(f"error target eps must be a positive finite number, got {eps!r}")
    if max_degree < 0:
        raise DomainError(f"degree budget max_degree must be >= 0, got {max_degree}")


def _escalate(f, region, poles, eps, max_degree, n_boundary) -> SlotFit:
    """The one escalation loop behind both slot fitters (see the module
    docstring).  It works on the fit sample alone: each added column costs
    one projection coefficient and one update of the residual f - Q @ coef,
    whose sup is the step's trace error.  A step whose residual reaches eps
    is exported and accepted when the export meets eps on the validation
    sample, the error it reports; an exhausted budget exports the step with
    the lowest residual.
    """
    _check_budget(eps, max_degree)
    caps = [cap for _, cap in poles]
    ncols = max_degree + 1 + sum(caps)
    if n_boundary is None:
        n_boundary = max(240, 6 * ncols)
    lengths = [c.length for c in region.boundary_curves()]
    m = sum(_allocate_boundary(lengths, n_boundary))
    mv = sum(_allocate_boundary(lengths, 4 * n_boundary))
    if m < ncols + 1:
        raise IllConditionedError(
            f"{m} samples cannot support an orthonormal basis of degree {max_degree} "
            f"with pole orders {tuple(caps)}"
        )
    # One basis column per row: np.empty reserves the whole budget, but a
    # row's pages are touched only when its column is written, so a fit that
    # stops early pays for the columns it added.  The buffers are allocated
    # before any sample is drawn, so a budget too large for memory fails
    # here without touching any.
    try:
        # Arnoldi polynomials and their ascending monomial coefficients in w
        # (column d holds p_d, an upper triangular matrix)
        p_fit = np.empty((max_degree + 1, m), dtype=complex)
        mono = np.zeros((max_degree + 1, max_degree + 1), dtype=complex)
        # least-squares basis: the columns in the order added, orthonormalized;
        # row k = (added column k - r[:k, k] @ q[:k]) / r[k, k]
        q_fit = np.empty((ncols, m), dtype=complex)
        r = np.zeros((ncols, ncols), dtype=complex)
    except MemoryError as exc:
        raise DomainError(
            f"degree budget max_degree={max_degree} with pole orders {tuple(caps)} needs "
            f"{ncols} basis columns on {m} samples; its work buffers cannot be allocated"
        ) from exc
    coef = np.empty(ncols, dtype=complex)
    owner = np.empty(ncols, dtype=int)  # -1 for a polynomial column, else the pole

    zf = sample_region(region, n_boundary).boundary
    zv = sample_region(region, 4 * n_boundary).boundary
    f_fit, f_val = _fvals(f, zf), _fvals(f, zv)
    center, scale = region.center_scale()
    w = (zf - center) / scale
    # 1/(z - p) per pole, and the latest raw pole column: order t + 1 is
    # order t times u, one multiply per sample point
    u = [1.0 / (zf - p) for p, _ in poles]
    raw = [np.ones(m, dtype=complex) for _ in poles]
    resid = f_fit.copy()

    def export(k, d, orders) -> tuple[SlotRational, float]:
        a = np.linalg.solve(r[:k, :k], coef[:k])
        poly = mono[: d + 1, : d + 1] @ a[owner[:k] == -1]
        blocks = tuple(
            PoleTerm(p, o, tuple(complex(c) for c in a[owner[:k] == j]))
            for j, ((p, _), o) in enumerate(zip(poles, orders))
        )
        sr = SlotRational(center, scale, tuple(complex(c) for c in poly), blocks)
        return sr, float(np.max(np.abs(f_val - sr(zv))))

    samples = {"n_boundary": m, "n_validation_boundary": mv}
    trace: list[tuple[int, tuple[int, ...], float]] = []
    best = (math.inf, 0, 0, ())
    k = d = 0
    for t in range(max(max_degree, max(caps, default=0) - 1) + 1):
        new = []
        if t <= max_degree:
            if t == 0:
                p_fit[0] = mono[0, 0] = 1.0 / math.sqrt(m)
            else:
                h, nrm, p_fit[t] = _orthonormalize(p_fit[:t], w * p_fit[t - 1], f"degree {t}")
                mono[1 : t + 1, t] = mono[:t, t - 1]
                mono[: t + 1, t] = (mono[: t + 1, t] - mono[: t + 1, :t] @ h) / nrm
            new.append((p_fit[t], -1, f"degree {t}"))
            d = t
        for j, (p, cap) in enumerate(poles):
            if t < cap:
                raw[j] *= u[j]
                new.append((raw[j], j, f"pole order {t + 1} at {p}"))
        for col, who, what in new:
            r[:k, k], r[k, k], q_fit[k] = _orthonormalize(q_fit[:k], col, what)
            owner[k] = who
            coef[k] = np.vdot(q_fit[k], f_fit)
            resid -= coef[k] * q_fit[k]
            k += 1
        orders = tuple(min(t + 1, cap) for cap in caps)
        err = float(np.max(np.abs(resid)))
        trace.append((d, orders, err))
        if err < best[0]:
            best = (err, k, d, orders)
        if err <= eps:
            sr, true_err = export(k, d, orders)
            if true_err <= eps:
                return SlotFit(sr, true_err, d, orders, True, tuple(trace), samples)
    _, k, d, orders = best
    sr, err = export(k, d, orders)
    raise DegreeExceededError(
        f"degree/order budget exhausted; best sup error {err:.3e} > {eps:.3e}",
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
    and simply tends to end in DegreeExceededError.
    """
    return _escalate(f, region, [], eps, max_degree, n_boundary)


def _validate_poles(region: PlanarRegion, poles) -> list[tuple[complex, int]]:
    holes = region.bounded_holes()
    poles = [(complex(p), int(cap)) for p, cap in poles]
    if len(poles) != holes:
        raise PolePlacementError(
            f"region has {holes} bounded complement component(s) but "
            f"{len(poles)} pole(s) were prescribed"
        )
    seen: set[int] = set()
    # the even-odd hole test counts some boundary points as inside a hole
    on_boundary = 1e-12 * region.center_scale()[1]
    for p, cap in poles:
        if cap < 1:
            raise PolePlacementError(f"pole order cap must be >= 1, got {cap}")
        if region.boundary_distance(p) <= on_boundary:
            raise PolePlacementError(f"pole {p} lies on the region's boundary")
        idx = region.hole_index(p)
        if idx is None:
            raise PolePlacementError(
                f"pole {p} lies in the region or its unbounded complement component"
            )
        if idx in seen:
            raise PolePlacementError(
                f"two prescribed poles share bounded complement component {idx}"
            )
        seen.add(idx)
    return poles


def fit_rational_slot(
    f,
    region: PlanarRegion,
    poles,
    eps: float,
    max_degree: int,
    *,
    n_boundary: int | None = None,
) -> SlotFit:
    """Least-squares fit in {1, w, ..., w^d} + {(z-p_j)^-m} with joint
    degree/order escalation.

    poles is a sequence of (location, max_order); there must be exactly one
    pole per bounded complement component, each in its own component.  With
    no poles this is fit_polynomial_slot.
    """
    poles = _validate_poles(region, poles)
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
    one pole per hole, anchored at hole centers), an explicit list of
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
        if req is None:
            req = [(a, None) for a in region.hole_anchor_points()]
        plist = [(complex(p), max(1, max_degree) if cap is None else int(cap)) for p, cap in req]
        try:
            check_poles_clear(expr, region)
            if plist:
                fit = fit_rational_slot(
                    expr, region, plist, eps, max_degree, n_boundary=n_boundary
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
        target_eps=eps,
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
