"""Bicomplex function theory at desk scale: exact-structure arithmetic,
Moebius maps on the extended plane, univalence functionals on truncated
series, and a constructive approximation engine for product-type compacts.
"""

from .approx import (
    ApproxReport,
    BicomplexRational,
    PoleTerm,
    SlotFit,
    SlotRational,
    approximate,
    fit_polynomial_slot,
    fit_rational_slot,
    sup_error_k,
)
from .core import (
    E1,
    E2,
    INF,
    ONE,
    ZERO,
    I,
    J,
    K,
    Bicomplex,
    ExtendedBicomplex,
    Hyperbolic,
    conjugate,
    hyp_leq,
    idempotent_compose,
    idempotent_decompose,
    invert,
    is_zero_divisor,
    multiply,
    norm_k,
)
from .errors import (
    DegenerateMapError,
    DegreeExceededError,
    DomainError,
    GeometryError,
    IllConditionedError,
    InvalidRotationError,
    NullConeError,
    PolePlacementError,
)
from .funcspec import (
    Add,
    Compose,
    Const,
    Div,
    Exp,
    Expr,
    FunctionSpec,
    Mul,
    Pow,
    Sub,
    Var,
    const,
    exp,
    var,
)
from .moebius import (
    MoebiusMap,
    identity_map,
    moebius_apply,
    moebius_compose,
    moebius_inverse,
    moebius_new,
)
from .regions import (
    Annulus,
    ComplementClassification,
    Disk,
    PlanarRegion,
    Polygon,
    PolygonWithHoles,
    ProductCompact,
    RegionSamples,
    classify_complement,
    sample_region,
)
from .series import (
    KIND_LAURENT,
    KIND_POWER,
    BieberbachResult,
    TruncatedSeries,
    area_contour_estimate,
    bieberbach_check,
    gronwall_area_sum,
    identity_series,
    inversion_transform,
    koebe_covering_min,
    koebe_rotation_series,
    laurent_series,
    power_series,
    series_eval,
    sqrt_transform,
)

__version__ = "0.1.0"
