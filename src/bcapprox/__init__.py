"""Bicomplex function theory at desk scale: exact-structure arithmetic,
Moebius maps on the extended plane, univalence functionals on truncated
series, and a constructive approximation engine for product-type compacts.

The public names resolve on first access (PEP 562), so ``import bcapprox``
loads no submodule and not numpy: a command pays only for the modules it
runs.
"""

import importlib

# the submodule that defines each public name
_EXPORTS = {
    "approx": (
        "ApproxReport",
        "BicomplexRational",
        "PoleTerm",
        "SlotFit",
        "SlotRational",
        "approximate",
        "fit_polynomial_slot",
        "fit_rational_slot",
        "sup_error_k",
    ),
    "core": (
        "E1",
        "E2",
        "INF",
        "ONE",
        "ZERO",
        "I",
        "J",
        "K",
        "Bicomplex",
        "ExtendedBicomplex",
        "Hyperbolic",
        "conjugate",
        "hyp_leq",
        "idempotent_compose",
        "idempotent_decompose",
        "invert",
        "is_zero_divisor",
        "multiply",
        "norm_k",
    ),
    "errors": (
        "DegenerateMapError",
        "DegreeExceededError",
        "DomainError",
        "GeometryError",
        "IllConditionedError",
        "InvalidRotationError",
        "NullConeError",
        "PolePlacementError",
    ),
    "funcspec": (
        "Add",
        "Compose",
        "Const",
        "Div",
        "Exp",
        "Expr",
        "FunctionSpec",
        "Mul",
        "Pow",
        "Sub",
        "Var",
        "const",
        "exp",
        "var",
    ),
    "moebius": (
        "MoebiusMap",
        "identity_map",
        "moebius_apply",
        "moebius_compose",
        "moebius_inverse",
        "moebius_new",
    ),
    "regions": (
        "Annulus",
        "ComplementClassification",
        "Disk",
        "PlanarRegion",
        "Polygon",
        "PolygonWithHoles",
        "ProductCompact",
        "RegionSamples",
        "classify_complement",
        "sample_region",
    ),
    "series": (
        "KIND_LAURENT",
        "KIND_POWER",
        "BieberbachResult",
        "TruncatedSeries",
        "area_contour_estimate",
        "bieberbach_check",
        "gronwall_area_sum",
        "identity_series",
        "inversion_transform",
        "koebe_covering_min",
        "koebe_rotation_series",
        "laurent_series",
        "power_series",
        "series_eval",
        "sqrt_transform",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    # a name found here is bound in the package, so this runs once per name
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, an attribute as when all loaded eagerly
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
