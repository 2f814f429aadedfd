"""Truncated bicomplex power/Laurent series and univalence functionals.

Two series shapes are supported, both with bicomplex coefficients acting
independently per idempotent slot:

* ``power-F``:      F(Z) = Z + sum_{n>=2} A_n Z^n        (A_0 = 0, A_1 = 1),
  the normalized maps of the unit bidisk;
* ``laurent-Sigma``: G(Z) = Z + B_0 + sum_{n>=1} B_n Z^-n (leading coeff 1),
  the normalized maps of the exterior region |Z|_k > 1.

On top of these sit numeric functionals for the classical univalence
theorems in their bicomplex form: the area inequality
sum n*|B_n|_k^2 <= 1, the second-coefficient bound |A_2|_k <= 2 through the
square-root/inversion transform pipeline, and the quarter-disk covering
probe via boundary sampling.  All functionals split per slot, so every
result is a Hyperbolic pair.

Series are truncated at a fixed order N which is carried in every result;
evaluating a truncation outside its reliable radius is the caller's risk
(bound checks then simply fail honestly).

Storage follows the idempotent decomposition: a series is one read-only
complex array of shape (2, N+1) (exterior series: (2, N+2)), one row per
slot, and every routine here works on both rows at once.  Bicomplex
objects are built only for the few coefficients a report quotes.  Costs
per series of order N: parsing, evaluation and the area sum O(N); the
square-root and inversion transforms O(N log N) together, for both slots:
the coefficient recurrence up to order 64, then Newton doubling on FFT
products; the contour and covering probes O(N + ns log ns) for ns sample
points, through one FFT for both slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import Bicomplex, Hyperbolic, _read_int, _read_node, idempotent_pair_from_json
from .errors import DomainError, InvalidRotationError, NullConeError

KIND_POWER = "power-F"
KIND_LAURENT = "laurent-Sigma"

_UNIMODULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients of a truncated series, one row per idempotent slot.

    ``slots`` is a read-only complex array of shape (2, N+1) for
    ``power-F`` and (2, N+2) for ``laurent-Sigma``; row 0 holds the beta1
    components, row 1 the beta2 components, and columns are indexed as:

    ``power-F``:       column n multiplies Z^n for n = 0..N.
    ``laurent-Sigma``: column 0 multiplies Z, column 1 is the constant
                       B_0, column n+1 multiplies Z^-n for n = 1..N.

    Build instances with :func:`power_series`, :func:`laurent_series` or
    :meth:`from_json`, which check the normalization.
    """

    kind: str
    slots: np.ndarray
    # For an odd series made by sqrt_transform: the coefficients of 1/h,
    # computed in the same pass, which inversion_transform then reads.
    _reciprocal: np.ndarray | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.slots.shape[1] - (1 if self.kind == KIND_POWER else 2)

    @property
    def coeffs(self) -> tuple[Bicomplex, ...]:
        """The coefficients as bicomplex numbers (built on each access)."""
        return tuple(Bicomplex(x, y) for x, y in self.slots.T)

    def slot(self, slot: int) -> np.ndarray:
        """Coefficient row of one idempotent slot (1 or 2), read-only."""
        if slot not in (1, 2):
            raise ValueError(f"idempotent slot must be 1 or 2, got {slot!r}")
        return self.slots[slot - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.slots, other.slots)

    def truncated(self, order: int) -> TruncatedSeries:
        """The same series cut back to ``order`` (unchanged if not shorter)."""
        if order < 0:
            raise ValueError(f"truncation order must be nonnegative, got {order}")
        if order >= self.order:
            return self
        keep = order + (1 if self.kind == KIND_POWER else 2)
        return _series(self.kind, self.slots[:, :keep])

    def to_json(self) -> dict:
        b1, b2 = (np.stack([row.real, row.imag], axis=1).tolist() for row in self.slots)
        return {
            "kind": self.kind,
            "N": self.order,
            "coeffs": [{"b1": x, "b2": y} for x, y in zip(b1, b2)],
        }

    @staticmethod
    def from_json(obj: dict) -> TruncatedSeries:
        kind = _read_node(obj, dict, "series", "an object with keys kind and coeffs")["kind"]
        if kind not in (KIND_POWER, KIND_LAURENT):
            raise ValueError(f"series kind must be {KIND_POWER} or {KIND_LAURENT}, got {kind!r}")
        coeffs = _read_node(obj["coeffs"], list, "series coeffs", "a list")
        # one flat pass into the array: no per-coefficient container outlives
        # its step, which keeps large files from feeding the cyclic collector
        flat = chain.from_iterable(map(idempotent_pair_from_json, coeffs))
        try:
            slots = np.fromiter(flat, complex, 2 * len(coeffs))
        except ValueError:
            # read again one by one, so that the fault is named by its place
            for i, c in enumerate(coeffs):
                idempotent_pair_from_json(c, f"series coeffs[{i}]")
            raise
        s = _series(kind, slots.reshape(-1, 2).T)
        if "N" in obj and _read_int(obj["N"], "series N") != s.order:
            raise ValueError(
                f"declared order {obj['N']} does not match {len(coeffs)} coefficients"
            )
        return s


def _as_slots(coeffs) -> np.ndarray:
    """(2, n) array from a sequence of bicomplex numbers or scalars."""
    pairs = [(c.beta1, c.beta2) if isinstance(c, Bicomplex) else (c, c) for c in coeffs]
    return np.array(pairs, dtype=complex).reshape(-1, 2).T


def _series(kind: str, slots: np.ndarray, reciprocal: np.ndarray | None = None) -> TruncatedSeries:
    """Check the normalization of ``kind`` and freeze a copy of ``slots``."""
    if slots.shape[1] < 2:
        raise ValueError(
            "a normalized power series needs at least coefficients 0 and 1"
            if kind == KIND_POWER
            else "an exterior series needs the leading and constant coefficients"
        )
    if kind == KIND_POWER:
        if np.any(slots[:, 0] != 0):
            raise ValueError("normalization requires zero constant coefficient")
        if np.any(slots[:, 1] != 1):
            raise ValueError("normalization requires unit linear coefficient")
    elif np.any(slots[:, 0] != 1):
        raise ValueError("exterior series must have unit leading coefficient")
    frozen = np.array(slots, dtype=complex)
    frozen.flags.writeable = False
    return TruncatedSeries(kind, frozen, reciprocal)


def power_series(coeffs) -> TruncatedSeries:
    """Build a normalized power series; coeffs[0] must be 0, coeffs[1] must be 1."""
    return _series(KIND_POWER, _as_slots(coeffs))


def laurent_series(coeffs) -> TruncatedSeries:
    """Build an exterior series; coeffs[0] (the Z coefficient) must be 1."""
    return _series(KIND_LAURENT, _as_slots(coeffs))


def identity_series(order: int = 1) -> TruncatedSeries:
    slots = np.zeros((2, max(order, 1) + 1), dtype=complex)
    slots[:, 1] = 1.0
    return _series(KIND_POWER, slots)


# -- evaluation -------------------------------------------------------------


def _horner(c: np.ndarray, x) -> np.ndarray:
    """sum_m c[:, m] x^m for both slots at once; x broadcasts against (2, 1).

    One pass over the columns from the highest power down, with the same
    operations as ``np.polyval`` on each row.  Both rows live in one flat
    buffer and x is expanded to match it: numpy multiplies equal-length
    vectors and adds scalars faster than it broadcasts.
    """
    shape = np.broadcast_shapes((2, 1), np.shape(x))
    x = np.broadcast_to(x, shape).ravel()
    y = np.zeros(x.shape, dtype=complex)
    y1, y2 = y.reshape(shape)
    for a1, a2 in zip(c[0, ::-1].tolist(), c[1, ::-1].tolist()):
        y *= x
        y1 += a1
        y2 += a2
    return y.reshape(shape)


def _on_circle(c: np.ndarray, r: float, ns: int, *, reciprocal: bool = False) -> np.ndarray:
    """sum_m c[:, m] x^m for both slots at every x = z_k (1/z_k if
    ``reciprocal``), z_k = r e^(2 pi i k/ns), k = 0..ns-1; shape (2, ns).

    On this grid the values are one length-ns DFT of the coefficients
    scaled by r^m (r^-m), folded mod ns since x^m repeats with period ns in
    the angle.  The powers of z_k come from the inverse transform, those of
    1/z_k from the forward one; neither is normalized by 1/ns.
    """
    n = c.shape[1]
    m = np.arange(n)
    folded = np.zeros((2, -(-n // ns) * ns), dtype=complex)
    folded[:, :n] = c * (r ** -m if reciprocal else r ** m)
    folded = folded.reshape(2, -1, ns).sum(axis=1)
    if reciprocal:
        return np.fft.fft(folded, axis=1)
    return np.fft.ifft(folded, axis=1, norm="forward")


def _eval_laurent(c: np.ndarray, z) -> np.ndarray:
    """c[:, 0]*z + c[:, 1] + sum_{n>=1} c[:, n+1] z^-n via Horner in 1/z."""
    return c[:, :1] * z + _horner(c[:, 1:], 1.0 / z)


def series_eval(s: TruncatedSeries, z: Bicomplex) -> Bicomplex:
    """Value of the truncated sum at a bicomplex point, slot by slot."""
    if s.kind == KIND_LAURENT and z.in_null_cone():
        raise NullConeError(
            "exterior series cannot be evaluated on the null cone "
            f"(idempotent components {z.beta1}, {z.beta2})"
        )
    x = np.array([[z.beta1], [z.beta2]])
    v = _horner(s.slots, x) if s.kind == KIND_POWER else _eval_laurent(s.slots, x)
    return Bicomplex(v[0, 0], v[1, 0])


# -- constructions ----------------------------------------------------------


def koebe_rotation_series(bparam: Bicomplex, order: int) -> TruncatedSeries:
    """The map t -> t / (1 + B t)^2 as a power series, truncated.

    Coefficients are A_n = n * (-B)^(n-1); the parameter must be unimodular
    in both slots (these are exactly the extremal maps for the
    second-coefficient bound).
    """
    nrm = bparam.norm_k()
    if abs(nrm.a1 - 1.0) > _UNIMODULAR_TOL or abs(nrm.a2 - 1.0) > _UNIMODULAR_TOL:
        raise InvalidRotationError(
            f"rotation parameter must be unimodular per slot, got |B|_k = {nrm.as_tuple()}"
        )
    if order < 1:
        raise DomainError("truncation order must be at least 1")
    n = np.arange(order + 1)
    rot = -np.array([[bparam.beta1], [bparam.beta2]])
    return _series(KIND_POWER, n * rot ** np.maximum(n - 1, 0))


# -- transforms -------------------------------------------------------------
#
# Write an odd normalized series as G(z) = z h(z^2) with h_0 = 1.  Then
# G^2 = F(z^2) reads h^2 = p with p(w) = F(w)/w, and the inversion is
# H(Z) = 1/G(1/Z) = Z q(Z^-2) with q = 1/h.  Both transforms work on the
# odd coefficients only, for both slots at once.

# orders below this come from the recurrence, exactly as it rounds them
_SEED = 64


def _recurrence(h: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
    """q = 1/h for both slots (shape (2, K), h_0 = q_0 = 1); when p is
    given, h = p^(1/2) is first filled into ``h`` in place, step by step.

    Step k solves, with S_x = sum_{j=1}^{k-1} h_j x_{k-j},
        h_k = (p_k - S_h) / 2,      q_k = -(S_q + h_k),
    from one matrix-vector product per step; a reversed copy of (h, q)
    keeps the product's operand contiguous.  Cost: O(K^2) operations and
    K numpy calls for both slots together.
    """
    size = h.shape[1]
    rev = np.zeros((2, 2, size), dtype=complex)  # rev[:, :, size-1-j] = (h_j, q_j)
    rev[:, :, size - 1] = 1.0
    for k in range(1, size):
        s = rev[:, :, size - k:size - 1] @ h[:, 1:k, None]
        if p is not None:
            h[:, k] = (p[:, k] - s[:, 0, 0]) / 2.0
        rev[:, 0, size - 1 - k] = h[:, k]
        rev[:, 1, size - 1 - k] = -(s[:, 1, 0] + h[:, k])
    return rev[:, 1, ::-1]


def _product(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Coefficients lo..hi-1 of a * b for both slots, by one zero-padded FFT.

    The cyclic length L is the least power of two with L >= hi and
    L > deg a + deg b - lo, so every term that wraps around lands below lo.
    """
    size = max(hi, a.shape[1] + b.shape[1] - 1 - lo)
    n = 1 << (size - 1).bit_length()
    fa = np.fft.fft(a, n, axis=1)
    fb = fa if b is a else np.fft.fft(b, n, axis=1)
    return np.fft.ifft(fa * fb, axis=1)[:, lo:hi]


def _growth_scale(h: np.ndarray, q: np.ndarray, m: int) -> np.ndarray | None:
    """r^k for k < m per slot, shape (2, m), where r is the geometric growth
    rate that the known orders of h and q (shape (2, n)) show; None when
    neither slot grows.

    A series grows when the largest modulus in the upper half of its known
    orders exceeds twice that in the lower half; r is that ratio's root over
    the halves' distance, the least over the series that grow, and 1 in a
    slot where neither does.  r^(m-1) stays below 2^1000, so the scale and
    its reciprocal are finite.
    """
    n = h.shape[1]
    half = n // 2
    mod = np.abs(np.stack([h, q]))
    growth = mod[..., half:].max(axis=-1) / mod[..., :half].max(axis=-1)
    rate = np.where(growth > 2.0, growth, np.inf).min(axis=0)
    if np.isinf(rate).all():
        return None
    r = np.where(np.isinf(rate), 1.0, np.minimum(rate ** (1.0 / (n - half)), 2.0 ** (1000 / m)))
    return r[:, None] ** np.arange(m)


def _require_finite(x: np.ndarray, start: int, what) -> None:
    """Name the first order k >= start at which a slot of x[:, k - start] is
    not finite; ``what(k)`` is that coefficient's name."""
    bad = ~np.isfinite(x).all(axis=0)
    if bad.any():
        k = start + int(np.argmax(bad))
        raise DomainError(f"{what(k)} overflows the float range")


def _root_and_reciprocal(h: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
    """q = 1/h for both slots (shape (2, K), h_0 = q_0 = 1); when p is
    given, h = p^(1/2) is first filled into ``h`` in place.

    The recurrence (:func:`_recurrence`) gives orders below min(K, 64).
    Newton iteration on power series (Brent & Kung, J. ACM 1978) then
    doubles the known length n -> m = min(2n, K), each * one FFT product:
        h[n:m] = (q[:m-n] * (p - h[:n] * h[:n])[n:m])[:m-n] / 2   (p given)
        q[n:m] = -(q[:m-n] * (h[:m] * q[:n])[n:m])[:m-n]
    When the known orders grow geometrically, a doubling runs on the
    series rescaled w -> w/r per slot, r their growth rate
    (:func:`_growth_scale`), and scales the new orders back; when neither
    slot grows it runs on the series as it is.
    Cost: O(K log K) operations and, past the recurrence's 64 calls,
    O(log K) numpy calls, for both slots together.  Without p the
    same reciprocal steps run on the same h, so q has the same bits either
    way.

    Accuracy: orders below 64 carry the recurrence's coefficient-wise
    error and its exact bits.  Beyond them the FFT products' error is
    normwise in the rescaled series.  For bounded h and q (no growth) every
    coefficient k >= 64 of h and of q lies, in each slot, within
    eps * log2(K) * ||h||_1^2 * ||q||_1^2 of the exact one, where eps is
    the double epsilon and the norms are 1-norms of the slot's row; a
    small coefficient far down a decaying tail is then exact only relative
    to the largest ones.  Coefficients that grow geometrically, as they do
    whenever p has a zero inside the unit disk, keep their relative
    accuracy: the tests hold them to 1e-12 per coefficient up to K = 400.

    Overflow: a coefficient beyond the float range is a DomainError naming
    the transform and the first order that is not finite.  Since one FFT
    product pairs every two coefficients of its operands, this can refuse a
    series with two coefficients past ~1e154 that the recurrence would
    carry; the area sum, which squares coefficients of that size, is
    beyond the float range anyway.
    """
    size = h.shape[1]
    n = min(size, _SEED)
    q = np.zeros_like(h)
    root = lambda k: f"square-root transform coefficient G_{2 * k + 1}"
    recip = lambda k: f"inversion transform coefficient B_{2 * k - 1}"
    with np.errstate(over="ignore", invalid="ignore"):
        q[:, :n] = _recurrence(h[:, :n], None if p is None else p[:, :n])
        if p is not None:
            _require_finite(h[:, :n], 0, root)
        _require_finite(q[:, :n], 0, recip)
        while n < size:
            m = min(2 * n, size)
            up = _growth_scale(h[:, :n], q[:, :n], m)
            hs, qs = (h, q) if up is None else (h[:, :m] / up, q[:, :m] / up)
            if p is not None:
                ps = p if up is None else p[:, :m] / up
                hn = hs[:, :n]
                r = ps[:, n:m] - _product(hn, hn, n, m)
                hs[:, n:m] = _product(qs[:, :m - n], r, 0, m - n) / 2.0
                if up is not None:
                    h[:, n:m] = hs[:, n:m] * up[:, n:m]
                    hs[:, n:m] = h[:, n:m] / up[:, n:m]  # as the reciprocal alone scales it
                _require_finite(h[:, n:m], n, root)
            e = _product(hs[:, :m], qs[:, :n], n, m)
            qs[:, n:m] = -_product(qs[:, :m - n], e, 0, m - n)
            if up is not None:
                q[:, n:m] = qs[:, n:m] * up[:, n:m]
            _require_finite(q[:, n:m], n, recip)
            n = m
    return q


def sqrt_transform(f: TruncatedSeries) -> TruncatedSeries:
    """The odd series G with G(Z)^2 = F(Z^2), G normalized.

    Matching convolution coefficients of G^2 against F(Z^2) determines the
    odd coefficients triangularly: each new one enters linearly with factor
    2 (the leading coefficient is 1, so no null-cone division can occur).
    In particular G_3 = A_2/2 and G_5 = (A_3 - A_2^2/4)/2.  The same pass
    computes the reciprocal that :func:`inversion_transform` needs.
    """
    if f.kind != KIND_POWER:
        raise ValueError("square-root transform applies to normalized power series")
    h = np.zeros((2, f.order), dtype=complex)
    h[:, 0] = 1.0
    q = _root_and_reciprocal(h, f.slots[:, 1:])
    g = np.zeros((2, 2 * f.order), dtype=complex)
    g[:, 1::2] = h
    return _series(KIND_POWER, g, q)


def inversion_transform(g: TruncatedSeries) -> TruncatedSeries:
    """The exterior series H(Z) = 1 / G(1/Z) for an odd normalized G.

    Coefficients come from the product identity G(1/Z) * H(Z) = 1, that is
    from the reciprocal of G's odd part (see :func:`_root_and_reciprocal`);
    the constant and every even-index tail coefficient are 0 and the first
    tail coefficient is -G_3.
    """
    if g.kind != KIND_POWER:
        raise ValueError("inversion transform applies to normalized power series")
    if np.any(g.slots[:, 0::2] != 0):
        raise ValueError("inversion transform needs an odd series")
    q = g._reciprocal
    if q is None:
        q = _root_and_reciprocal(g.slots[:, 1::2])
    out = np.zeros((2, max(g.order, 2)), dtype=complex)
    out[:, 0] = 1.0
    tail = (out.shape[1] - 1) // 2
    out[:, 2::2] = q[:, 1:tail + 1]
    return _series(KIND_LAURENT, out)


# -- functionals ------------------------------------------------------------


def gronwall_area_sum(g: TruncatedSeries) -> Hyperbolic:
    """sum_n n * |B_n|_k^2 over the truncated tail, per slot."""
    if g.kind != KIND_LAURENT:
        raise ValueError("area sum is defined for exterior series")
    n = np.arange(1, g.order + 1)
    # every term is >= 0, so an overflow means the sum itself is beyond range
    with np.errstate(over="ignore"):
        s1, s2 = np.sum(n * np.abs(g.slots[:, 2:]) ** 2, axis=1)
    if not np.isfinite([s1, s2]).all():
        raise DomainError(
            f"area sum sum_n n |B_n|_k^2 = {(float(s1), float(s2))} lies beyond the float range"
        )
    return Hyperbolic(s1, s2)


def area_contour_estimate(g: TruncatedSeries, r: float, nsamples: int) -> Hyperbolic:
    """Enclosed area of each slot's image of the circle of radius r.

    Integrates (1/2) Im(conj(w) dw) with the periodic trapezoid rule, which
    is exact for trigonometric polynomials once nsamples exceeds the
    bandwidth; for a truncation this matches the closed form
    pi * (r^2 - sum n |B_n|^2 r^(-2n)) to quadrature accuracy.  The tail
    of w and of its derivative come from one FFT each over the r-scaled
    coefficients (folded mod nsamples), so the cost is
    O(N + nsamples log nsamples) time and O(N + nsamples) memory.
    """
    if g.kind != KIND_LAURENT:
        raise ValueError("contour area is defined for exterior series")
    if not 1 < r < np.inf:
        raise DomainError(f"sampling radius must be finite and exceed 1, got {r}")
    if nsamples < max(4 * g.order, 4):
        raise DomainError(
            f"need at least {max(4 * g.order, 4)} samples for order {g.order}"
        )
    theta = 2 * np.pi * np.arange(nsamples) / nsamples
    z = r * np.exp(1j * theta)
    c = g.slots
    lead = c[:, :1] * z
    w = lead + _on_circle(c[:, 1:], r, nsamples, reciprocal=True)
    # dw = i z w'(z) = i (B_-1 z - sum_n n B_n z^-n)
    tail = np.arange(g.order + 1) * c[:, 1:]
    dw = 1j * (lead - _on_circle(tail, r, nsamples, reciprocal=True))
    with np.errstate(over="ignore", invalid="ignore"):
        a1, a2 = 0.5 * np.mean(np.imag(np.conj(w) * dw), axis=1) * 2 * np.pi
    if not np.isfinite([a1, a2]).all():
        raise DomainError(
            f"contour area at radius {r} = {(float(a1), float(a2))} lies beyond the float range"
        )
    return Hyperbolic(a1, a2)


@dataclass(frozen=True)
class BieberbachResult:
    """Outcome of the second-coefficient bound check."""

    value: Hyperbolic
    holds: bool
    trace: dict

    def __iter__(self):
        return iter((self.value, self.holds))


def bieberbach_check(f: TruncatedSeries) -> BieberbachResult:
    """|A_2|_k against the bound (2, 2), with the transform-pipeline trace.

    The trace records the square-root transform's cubic coefficient, the
    inversion transform's first tail coefficient C_1 = -A_2/2, and the
    area sum of the computed exterior tail, so the bound can be audited
    through the same route the classical proof takes.
    """
    if f.kind != KIND_POWER:
        raise ValueError("second-coefficient check applies to normalized power series")
    a2 = Bicomplex(*f.slots[:, 2]) if f.order >= 2 else Bicomplex.from_scalar(0)
    value = a2.norm_k()
    if np.isinf(value.max_component()):
        raise DomainError(f"|A_2|_k = {value.as_tuple()} lies beyond the float range")
    holds = value.leq(Hyperbolic(2.0, 2.0))
    g = sqrt_transform(f)
    h = inversion_transform(g)
    c1 = Bicomplex(*h.slots[:, 2]) if h.order >= 1 else Bicomplex.from_scalar(0)
    trace = {
        "abs_a2": list(value.as_tuple()),
        "bound": [2.0, 2.0],
        "sqrt_cubic_coeff": Bicomplex(*g.slots[:, 3]).to_json() if g.order >= 3 else None,
        "inversion_c1": c1.to_json(),
        "abs_c1": list(c1.norm_k().as_tuple()),
        "c1_within_unit": c1.norm_k().leq(Hyperbolic(1.0, 1.0)),
        "tail_area_sum": list(gronwall_area_sum(h).as_tuple()),
    }
    return BieberbachResult(value, holds, trace)


def koebe_covering_min(f: TruncatedSeries, r: float, nsamples: int) -> Hyperbolic:
    """Per-slot minimum of |F(r e^(i theta))| over equispaced samples.

    For a univalent map the image of the circle bounds the image of the
    disk, so this minimum is a lower-bound proxy for the covered disk
    radius.  Univalence is the caller's assertion and truncation error is
    the caller's risk: the probe reports whatever the truncated polynomial
    does on the circle.  The samples are r e^(2 pi i k/nsamples), where
    the polynomial's values are one FFT of its r-scaled coefficients
    (folded mod nsamples), so the cost is O(N + nsamples log nsamples).
    """
    if f.kind != KIND_POWER:
        raise ValueError("covering probe applies to normalized power series")
    if not 0 < r < 1:
        raise DomainError(f"probe radius must lie in (0, 1), got {r}")
    if nsamples < 8:
        raise DomainError("need at least 8 boundary samples")
    m1, m2 = np.min(np.abs(_on_circle(f.slots, r, nsamples)), axis=1)
    return Hyperbolic(m1, m2)
