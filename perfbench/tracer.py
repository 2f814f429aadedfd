"""Spans around the calls into each bcapprox layer, recorded from outside.

Tracer.install() replaces the listed functions and methods with wrappers.
A module-level function is rebound on every bcapprox module attribute that
holds it, because cli, approx and the package namespace import several of
them by name; a binding left alone would run untimed.  Each call records
a span [name, start, end, parent, job] in memory while the tracer is
enabled; counts (points, bytes, escalation steps) are taken at the same
boundaries.  Spans are written out once, at the end of the run.

Self time is a span's duration minus the union of its child spans.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name) of every traced module-level function
FUNCTIONS = (
    ("bcapprox.cli", "main", "cli.main"),
    ("bcapprox.jsonio", "load_path", "jsonio.load_path"),
    ("bcapprox.jsonio", "dump_path", "jsonio.dump_path"),
    ("bcapprox.regions", "sample_region", "regions.sample_region"),
    ("bcapprox.approx", "approximate", "approx.approximate"),
    ("bcapprox.approx", "fit_polynomial_slot", "approx.fit_slot"),
    ("bcapprox.approx", "fit_rational_slot", "approx.fit_slot"),
    ("bcapprox.series", "sqrt_transform", "series.sqrt_transform"),
    ("bcapprox.series", "inversion_transform", "series.inversion_transform"),
    ("bcapprox.series", "bieberbach_check", "series.bieberbach_check"),
    ("bcapprox.series", "koebe_covering_min", "series.koebe_covering_min"),
    ("bcapprox.series", "area_contour_estimate", "series.area_contour_estimate"),
    ("bcapprox.series", "gronwall_area_sum", "series.gronwall_area_sum"),
    ("bcapprox.moebius", "moebius_apply", "moebius.moebius_apply"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.job = None
        self._stack: list[int] = []
        self._eval_depth = 0

    # -- recording -------------------------------------------------------------

    def _wrap(self, name, fn, after=None, outermost=False):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled or (outermost and tracer._eval_depth):
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            rec = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            if outermost:
                tracer._eval_depth += 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
                if outermost:
                    tracer._eval_depth -= 1
                if after is not None:
                    after(tracer.counters, args, kwargs, result, exc)

        return wrapper

    def install(self) -> None:
        """Wrap the traced layer entry points of an imported bcapprox."""
        from bcapprox import approx, core, funcspec, series

        after = {
            "load_path": _load_bytes,
            "dump_path": _dump_bytes,
            "sample_region": _sample_counts,
            "sqrt_transform": _coeffs_in,
            "inversion_transform": _coeffs_in,
            "fit_polynomial_slot": _fit_counts(approx.fit_polynomial_slot),
            "fit_rational_slot": _fit_counts(approx.fit_rational_slot),
        }
        mods = [m for n, m in list(sys.modules.items()) if n == "bcapprox" or n.startswith("bcapprox.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, after.get(attr))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

        def expr_classes(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from expr_classes(sub)

        for cls in expr_classes(funcspec.Expr):
            if "evaluate" in vars(cls):
                cls.evaluate = self._wrap("funcspec.evaluate", vars(cls)["evaluate"],
                                          _count_points("funcspec.evaluate.points"), outermost=True)
        approx.SlotRational.__call__ = self._wrap(
            "approx.eval", approx.SlotRational.__call__, _count_points("approx.eval.points"))
        series.TruncatedSeries.from_json = staticmethod(
            self._wrap("series.from_json", series.TruncatedSeries.from_json))

        post_init = core.Bicomplex.__post_init__
        tracer = self

        def counted_post_init(obj):
            if tracer.enabled:
                tracer.counters["core.bicomplex_objects"] += 1
            post_init(obj)

        core.Bicomplex.__post_init__ = counted_post_init

    # -- output ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}

    def absorb(self, obj: dict, job) -> None:
        """Merge the spans and counts of a traced child process."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in obj["spans"]:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, job])
        for key, val in obj["counters"].items():
            self.counters[key] += val


# -- counts taken at the span boundaries ---------------------------------------


def _count_points(key):
    def after(counters, args, kwargs, result, exc):
        counters[key] += np.size(args[1])
    return after


def _load_bytes(counters, args, kwargs, result, exc):
    counters["jsonio.load_path.bytes"] += os.path.getsize(args[0])


def _dump_bytes(counters, args, kwargs, result, exc):
    if exc is None:
        counters["jsonio.dump_path.bytes"] += os.path.getsize(args[1])


def _sample_counts(counters, args, kwargs, result, exc):
    if exc is None:
        counters["regions.sample_region.points"] += len(result.boundary) + len(result.interior)
        counters["regions.sample_region.interior"] += len(result.interior)


def _coeffs_in(counters, args, kwargs, result, exc):
    counters["series.coeffs_in"] += args[0].order


def _fit_counts(fn):
    sig = inspect.signature(fn)

    def after(counters, args, kwargs, result, exc):
        fit = result if exc is None else getattr(exc, "best", None)
        if fit is None:
            return
        best = math.inf
        for _, _, err in fit.trace:
            if err < best:
                best = err
                counters["approx.steps_lowering"] += 1
        counters["approx.steps"] += len(fit.trace)
        counters["approx.fits"] += 1
        counters["approx.fits_achieved"] += fit.achieved
        counters["approx.degree_used"] += fit.degree + 1
        counters["approx.degree_budget"] += sig.bind(*args, **kwargs).arguments["max_degree"] + 1
    return after


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for i, (name, t0, t1, _, _) in enumerate(spans):
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans: list[list], counters: dict, n_jobs: int, job_s: float) -> dict[str, float]:
    """Per-layer figures per measured job (times in ms), plus ratios."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for (name, t0, t1, _, _), s in zip(spans, self_times(spans)):
        total[name] += t1 - t0
        own[name] += s
        calls[name] += 1
    c = defaultdict(float, counters)
    per = 1.0 / max(n_jobs, 1)

    def ms(name):
        return 1000.0 * total[name] * per

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.main.calls": calls["cli.main"] * per,
        "cli.main.self_ms": 1000.0 * own["cli.main"] * per,
        "jsonio.load_path.ms": ms("jsonio.load_path"),
        "jsonio.load_path.bytes": c["jsonio.load_path.bytes"] * per,
        "jsonio.dump_path.ms": ms("jsonio.dump_path"),
        "jsonio.dump_path.bytes": c["jsonio.dump_path.bytes"] * per,
        "regions.sample_region.ms": ms("regions.sample_region"),
        "regions.sample_region.calls": calls["regions.sample_region"] * per,
        "regions.sample_region.points": c["regions.sample_region.points"] * per,
        "regions.interior_share": ratio(c["regions.sample_region.interior"], c["regions.sample_region.points"]),
        "funcspec.evaluate.ms": ms("funcspec.evaluate"),
        "funcspec.evaluate.points": c["funcspec.evaluate.points"] * per,
        "approx.approximate.ms": ms("approx.approximate"),
        "approx.fit_slot.ms": ms("approx.fit_slot"),
        "approx.fit_slot.self_ms": 1000.0 * own["approx.fit_slot"] * per,
        "approx.fit_slot.calls": calls["approx.fit_slot"] * per,
        "approx.steps": c["approx.steps"] * per,
        "approx.step_yield": ratio(c["approx.steps_lowering"], c["approx.steps"]),
        "approx.budget_use_ratio": ratio(c["approx.degree_used"], c["approx.degree_budget"]),
        "approx.achieved_ratio": ratio(c["approx.fits_achieved"], c["approx.fits"]),
        "approx.eval.ms": ms("approx.eval"),
        "approx.eval.points": c["approx.eval.points"] * per,
        "series.from_json.ms": ms("series.from_json"),
        "series.sqrt_transform.ms": ms("series.sqrt_transform"),
        "series.inversion_transform.ms": ms("series.inversion_transform"),
        "series.bieberbach_check.self_ms": 1000.0 * own["series.bieberbach_check"] * per,
        "series.koebe_covering_min.ms": ms("series.koebe_covering_min"),
        "series.area_contour_estimate.ms": ms("series.area_contour_estimate"),
        "series.gronwall_area_sum.ms": ms("series.gronwall_area_sum"),
        "series.coeffs_in": c["series.coeffs_in"] * per,
        "core.bicomplex_objects": c["core.bicomplex_objects"] * per,
        "moebius.moebius_apply.calls": calls["moebius.moebius_apply"] * per,
        "moebius.moebius_apply.ms": ms("moebius.moebius_apply"),
    }
    job_ms = 1000.0 * job_s * per
    m["share.fit_slot_self"] = ratio(m["approx.fit_slot.self_ms"], job_ms)
    m["share.sample_region"] = ratio(m["regions.sample_region.ms"], job_ms)
    m["share.series_transforms"] = ratio(
        m["series.sqrt_transform.ms"] + m["series.inversion_transform.ms"], job_ms)
    return m
