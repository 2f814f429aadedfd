"""Command-line front end: approx / verify / eval jobs over JSON files.

Exit codes are part of the contract: 0 success, 1 when a bound or error
target is not met (or evaluation hits the null cone), 2 for input errors.
Reports are written with the deterministic JSON writer, so two runs with
the same inputs produce byte-identical files.

Every subcommand accepts --seed, which BCAPPROX_SEED overrides when set.
Only the approx report records it ("seed"), and no output depends on it:
fits sample the boundary at points equispaced by arclength.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import jsonio
from .approx import BicomplexRational, approximate
from .core import Bicomplex, ExtendedBicomplex, Hyperbolic, _pair_to_complex
from .errors import DomainError, IllConditionedError, NullConeError
from .funcspec import FunctionSpec
from .moebius import MoebiusMap, moebius_apply
from .regions import ProductCompact
from .series import (
    KIND_POWER,
    TruncatedSeries,
    area_contour_estimate,
    bieberbach_check,
    gronwall_area_sum,
    inversion_transform,
    koebe_covering_min,
    series_eval,
    sqrt_transform,
)

_BOUND_SLACK = 1e-12
_SAMPLES = 4096
DEFAULT_SEED = 1729


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so every ``main`` call can share it."""
    p = argparse.ArgumentParser(prog="bcapprox")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("approx", help="fit a product-type function on a product compact")
    pa.add_argument("--function", required=True, help="function JSON (expression per slot)")
    pa.add_argument("--region", required=True, help="region JSON (k1/k2 shapes)")
    pa.add_argument("--eps", required=True, type=float, help="sup-error target per slot")
    pa.add_argument("--max-degree", type=int, default=40)
    pa.add_argument("--poles", help="poles JSON; empty slot list forces a polynomial fit")
    pa.add_argument("--samples", type=int, help="boundary samples per slot for fitting")
    pa.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pa.add_argument("--out", required=True, help="report JSON path")

    pv = sub.add_parser("verify", help="check a univalence functional on a series")
    pv.add_argument("--series", required=True, help="series JSON")
    grp = pv.add_mutually_exclusive_group(required=True)
    grp.add_argument("--area", action="store_true", help="tail area sum against 1")
    grp.add_argument("--bieberbach", action="store_true", help="|A_2|_k against 2")
    grp.add_argument("--koebe", action="store_true", help="covering minimum at --radius")
    pv.add_argument("--order", type=int, help="re-truncate the series to this order first")
    pv.add_argument("--radius", type=float, help="sampling radius (koebe: in (0,1); area trace: > 1)")
    pv.add_argument(
        "--samples", type=int, help=f"probe samples (koebe, area with --radius; default {_SAMPLES})"
    )
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--out", help="report JSON path (default: stdout)")

    pe = sub.add_parser("eval", help="evaluate a series/Moebius/rational object at a point")
    pe.add_argument("--series", help="series JSON")
    pe.add_argument("--moebius", help="Moebius map JSON")
    pe.add_argument("--rational", help="rational approximant JSON")
    pe.add_argument("--at", required=True, help='point: JSON {"b1":..,"b2":..} / {"z1":..} or a number')
    pe.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pe.add_argument("--out", help="value JSON path (default: stdout)")
    return p


def _emit(report: dict, out: str | None) -> None:
    if out:
        jsonio.dump_path(report, out)
    else:
        print(jsonio.dumps(report))


def _hyp_json(h: Hyperbolic) -> dict:
    return {"a1": h.a1, "a2": h.a2}


# -- approx -------------------------------------------------------------------


def _load_poles(path: str | None):
    if path is None:
        return None
    obj = jsonio.load_path(path)
    if not isinstance(obj, dict):
        raise ValueError(
            f"poles file: expected an object with keys k1 and k2, got {type(obj).__name__}"
        )
    out = []
    for key in ("k1", "k2"):
        entries = obj.get(key)
        if entries is None:
            out.append(None)
            continue
        if not isinstance(entries, list):
            raise ValueError(
                f"poles file: {key} must be a list of poles, got {type(entries).__name__}"
            )
        for i, e in enumerate(entries):
            if not isinstance(e, dict):
                raise ValueError(
                    f"poles file: {key} entry {i} must be an object with a location, "
                    f"got {type(e).__name__}"
                )
        # a missing max_order leaves the cap to approximate's default rule
        out.append([(_pair_to_complex(e["location"]), e.get("max_order")) for e in entries])
    return tuple(out)


def cmd_approx(args: argparse.Namespace) -> int:
    func = FunctionSpec.from_json(jsonio.load_path(args.function))
    compact = ProductCompact.from_json(jsonio.load_path(args.region))
    poles = _load_poles(args.poles)
    rational, report = approximate(
        func, compact, args.eps, args.max_degree, poles, n_boundary=args.samples
    )
    payload = report.to_json()
    payload["command"] = "approx"
    payload["seed"] = args.seed
    payload["approximant"] = rational.to_json()
    _emit(payload, args.out)
    return 0 if report.achieved else 1


# -- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    functional = "area" if args.area else "bieberbach" if args.bieberbach else "koebe"
    # a flag the functional would ignore is an input error, not a silent no-op
    if args.bieberbach:
        ignored, where = ("radius", "samples"), "--bieberbach"
    elif args.area and args.radius is None:
        ignored, where = ("samples",), "--area without --radius"
    else:
        ignored, where = (), ""
    for flag in ignored:
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} has no effect on {where}")
    samples = _SAMPLES if args.samples is None else args.samples
    series = TruncatedSeries.from_json(jsonio.load_path(args.series))
    if args.order is not None:
        series = series.truncated(args.order)
    trace: dict = {"kind": series.kind, "N": series.order}

    if functional == "bieberbach":
        if series.kind != KIND_POWER:
            raise ValueError("--bieberbach needs a power-F series")
        res = bieberbach_check(series)
        value, bound, holds = res.value, Hyperbolic(2.0, 2.0), res.holds
        trace.update(res.trace)
    elif functional == "area":
        if series.kind == KIND_POWER:
            tail = inversion_transform(sqrt_transform(series))
            trace["pipeline"] = "sqrt_transform -> inversion_transform"
            trace["tail_N"] = tail.order
        else:
            tail = series
        value = gronwall_area_sum(tail)
        bound = Hyperbolic(1.0, 1.0)
        holds = value.leq(Hyperbolic(1.0 + _BOUND_SLACK, 1.0 + _BOUND_SLACK))
        if args.radius is not None:
            # the contour's floor at order 0; larger orders raise it to 4 * N
            if samples < 4:
                raise ValueError(f"the contour needs --samples of at least 4, got {samples}")
            ns = max(samples, 4 * tail.order)
            area = area_contour_estimate(tail, args.radius, ns)
            trace["contour_area"] = _hyp_json(area)
            trace["contour_radius"] = args.radius
            trace["contour_nsamples"] = ns
    else:  # koebe
        if series.kind != KIND_POWER:
            raise ValueError("--koebe needs a power-F series")
        r = 0.99 if args.radius is None else args.radius
        value = koebe_covering_min(series, r, samples)
        b = r / (1 + r) ** 2
        bound = Hyperbolic(b, b)
        holds = value.geq(Hyperbolic(b - _BOUND_SLACK, b - _BOUND_SLACK))
        trace["radius"] = r
        trace["nsamples"] = samples

    report = {
        "command": "verify",
        "functional": functional,
        "value": _hyp_json(value),
        "bound": _hyp_json(bound),
        "holds": holds,
        "trace": trace,
    }
    _emit(report, args.out)
    return 0 if holds else 1


# -- eval ---------------------------------------------------------------------


def _parse_point(text: str):
    def finite(num: str) -> float:
        x = float(num)
        if not math.isfinite(x):
            raise ValueError(f"--at point {text!r} has a non-finite coordinate {num}")
        return x

    # NaN, Infinity and numbers beyond the float range all pass through finite
    try:
        obj = json.loads(text, parse_float=finite, parse_int=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse --at point: {exc}") from exc
    if isinstance(obj, (int, float)):
        return Bicomplex.from_scalar(obj)
    if isinstance(obj, list):
        return Bicomplex.from_scalar(_pair_to_complex(obj))
    if isinstance(obj, dict):
        if "inf" in (obj.get("b1"), obj.get("b2")):
            return ExtendedBicomplex.from_json(obj)
        return Bicomplex.from_json(obj)
    raise ValueError(f"cannot interpret --at point {text!r}")


def cmd_eval(args: argparse.Namespace) -> int:
    sources = [s for s in (args.series, args.moebius, args.rational) if s]
    if len(sources) != 1:
        raise ValueError("eval needs exactly one of --series/--moebius/--rational")
    point = _parse_point(args.at)

    if args.moebius:
        m = MoebiusMap.from_json(jsonio.load_path(args.moebius))
        if isinstance(point, Bicomplex):
            point = ExtendedBicomplex.from_bicomplex(point)
        try:
            value = moebius_apply(m, point).to_json()
        except DomainError as exc:
            raise DomainError(f"value at --at point {args.at} is undefined: {exc}") from exc
    else:
        if isinstance(point, ExtendedBicomplex):
            point = point.to_bicomplex()
        if args.series:
            s = TruncatedSeries.from_json(jsonio.load_path(args.series))
        else:
            r = BicomplexRational.from_json(jsonio.load_path(args.rational))
        with np.errstate(all="ignore"):
            v = series_eval(s, point) if args.series else r.evaluate(point)
        if not np.isfinite([v.beta1, v.beta2]).all():
            raise DomainError(
                f"value at --at point {args.at} is not finite; "
                "the object overflows or is undefined there"
            )
        value = v.to_json()

    _emit({"command": "eval", "value": value}, args.out)
    return 0


# -- entry point ---------------------------------------------------------------


def _error_payload(kind: str, exc: Exception) -> str:
    # str() of a KeyError is the bare repr of the key
    detail = f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) and exc.args else str(exc)
    return jsonio.dumps({"error": kind, "detail": detail})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the contract
        return int(exc.code or 0)
    try:
        env = os.environ.get("BCAPPROX_SEED")
        if env is not None:
            args.seed = int(env)
        if args.command == "approx":
            return cmd_approx(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_eval(args)
    except NullConeError as exc:
        print(_error_payload("null-cone", exc), file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError, OSError, IllConditionedError) as exc:
        print(_error_payload("input", exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
