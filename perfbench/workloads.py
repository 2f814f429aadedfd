"""Seeded input generation for the benchmark workloads.

Each workload is a list of jobs.  A job is one CLI invocation: its argv
(with absolute paths into the work directory), where its result lands
(a report file or stdout), the exit codes that count as correct, and the
closed-form facts the oracle checks the result against.  The program
sees only the generated JSON files; the facts stay on this side.

The measured phase cycles through the job list in whole cycles, so every
run of a workload sees the same job mix in the same proportions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Job:
    name: str
    argv: list[str]
    out: str | None  # report path, or None when the result goes to stdout
    check: dict  # oracle facts; check["kind"] picks the oracle
    exit_ok: tuple[int, ...] = (0, 1)


# -- JSON builders -------------------------------------------------------------


def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _const(z: complex) -> dict:
    return {"op": "const", "value": _c(z)}


def exp_expr(a: complex) -> dict:
    return {"op": "exp", "arg": {"op": "mul", "args": [_const(a), {"op": "var"}]}}


def inv_expr(p: complex) -> dict:
    """1/(z - p) with its pole declared."""
    den = {"op": "sub", "args": [{"op": "var"}, _const(p)]}
    return {"op": "div", "args": [_const(1), den], "poles": [_c(p)]}


def disk(c: complex, r: float) -> dict:
    return {"shape": "disk", "center": _c(c), "radius": r}


def annulus(c: complex, r_in: float, r_out: float) -> dict:
    return {"shape": "annulus", "center": _c(c), "r_in": r_in, "r_out": r_out}


def polygon(verts) -> dict:
    return {"shape": "polygon", "vertices": [_c(v) for v in verts]}


def polygon_with_hole(outer, hole) -> dict:
    return {
        "shape": "polygon-with-holes",
        "outer": [_c(v) for v in outer],
        "holes": [[_c(v) for v in hole]],
    }


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _unit(rng) -> complex:
    return complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))


def _ngon(c: complex, r: float, k: int, rot: float) -> list[complex]:
    return [c + r * np.exp(1j * (rot + 2 * math.pi * j / k)) for j in range(k)]


def _rect(c: complex, w: float, h: float, rot: float) -> list[complex]:
    u = np.exp(1j * rot)
    return [c + u * complex(sx * w / 2, sy * h / 2) for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1))]


# -- fit workloads -------------------------------------------------------------


def _approx_job(wd: Path, name: str, f1, f2, k1, k2, eps, fn1, fn2, label, poles=None):
    """fn1/fn2 are the closed forms, ("exp", a) or ("inv", p), for the oracle."""
    argv = [
        "approx",
        "--function", _write(wd / f"{name}.f.json", {"f1": f1, "f2": f2}),
        "--region", _write(wd / f"{name}.k.json", {"k1": k1, "k2": k2}),
        "--eps", repr(eps),
    ]
    if poles is not None:
        argv += ["--poles", _write(wd / f"{name}.p.json", poles)]
    out = str(wd / f"{name}.out.json")
    argv += ["--out", out]
    check = {"kind": "approx", "eps": eps, "label": label, "f": [fn1, fn2], "k": [k1, k2]}
    return Job(name, argv, out, check)


# The seed places and rotates each shape and picks each exponent's direction;
# sizes and magnitudes vary only a little, so that a job's cost (its final
# degree) depends little on the seed and runs with different seeds compare.


def _t4(wd, name, rng, eps=1e-8):
    a, b = rng.uniform(1.4, 1.6) * _unit(rng), rng.uniform(1.4, 1.6) * _unit(rng)
    k1 = disk(0.5 * rng.uniform() * _unit(rng), rng.uniform(0.95, 1.05))
    k2 = disk(0.5 * rng.uniform() * _unit(rng), rng.uniform(0.95, 1.05))
    return _approx_job(wd, name, exp_expr(a), exp_expr(b), k1, k2, eps,
                       ("exp", _c(a)), ("exp", _c(b)), "T4")


def _t2(wd, name, rng):
    r_in = rng.uniform(0.58, 0.62)
    k1 = annulus(0.15 * r_in * _unit(rng), r_in, rng.uniform(1.1, 1.2))
    b = rng.uniform(1.4, 1.6) * _unit(rng)
    k2 = disk(0.5 * rng.uniform() * _unit(rng), rng.uniform(0.95, 1.05))
    return _approx_job(wd, name, inv_expr(0j), exp_expr(b), k1, k2, 1e-9,
                       ("inv", [0.0, 0.0]), ("exp", _c(b)), "T2")


def _t1(wd, name, rng):
    a, b = rng.uniform(1.4, 1.6) * _unit(rng), rng.uniform(1.4, 1.6) * _unit(rng)
    k1 = annulus(0.2 * _unit(rng), rng.uniform(0.48, 0.52), rng.uniform(0.95, 1.05))
    k2 = annulus(0.2 * _unit(rng), rng.uniform(0.48, 0.52), rng.uniform(0.95, 1.05))
    return _approx_job(wd, name, exp_expr(a), exp_expr(b), k1, k2, 1e-10,
                       ("exp", _c(a)), ("exp", _c(b)), "T1")


def _t3(wd, name, rng, sides):
    a, b = rng.uniform(1.4, 1.6) * _unit(rng), rng.uniform(1.4, 1.6) * _unit(rng)
    k1 = polygon(_ngon(0.3 * _unit(rng), rng.uniform(0.95, 1.05), sides, rng.uniform(0, math.pi)))
    c2 = 0.3 * _unit(rng)
    rot = rng.uniform(0, math.pi)
    outer = _rect(c2, 2.0 * rng.uniform(0.95, 1.05), 2.0 * rng.uniform(0.95, 1.05), rot)
    hole = _ngon(c2, rng.uniform(0.3, 0.35), 3, rot)
    k2 = polygon_with_hole(outer, hole)
    return _approx_job(wd, name, exp_expr(a), exp_expr(b), k1, k2, 1e-8,
                       ("exp", _c(a)), ("exp", _c(b)), "T3")


def fit_converge(wd: Path, rng) -> list[Job]:
    """All four complement classes; every job is expected to reach eps."""
    # Cost per job rises T4 < T2 < T3 < T1.  As many T4+T2 jobs as T1 jobs put
    # the median in the middle of the T3 class, not on a class boundary.
    jobs = [_t4(wd, f"t4-{i}", rng) for i in range(3)]
    jobs += [_t2(wd, f"t2-{i}", rng) for i in range(3)]
    jobs += [_t3(wd, f"t3-{i}", rng, sides=3 + i % 4) for i in range(6)]
    jobs += [_t1(wd, f"t1-{i}", rng) for i in range(6)]
    for job in jobs:
        job.check["expect_achieved"] = True
        job.exit_ok = (0,)
    return jobs


def _forced_poly(wd, name, rng):
    """Holed regions fit by polynomials only: the pole in each hole cannot be
    reached, so the escalation runs to max_degree and exits 1."""
    c1 = 0.2 * _unit(rng)
    k1 = annulus(c1, rng.uniform(0.4, 0.6), rng.uniform(0.9, 1.1))
    p1 = c1 + 0.1 * _unit(rng)
    c2 = 0.2 * _unit(rng)
    rot = rng.uniform(0, math.pi)
    outer = _rect(c2, 2.0, 2.0, rot)
    hole = _ngon(c2, rng.uniform(0.3, 0.45), 4, rot + math.pi / 4)
    k2 = polygon_with_hole(outer, hole)
    p2 = c2 + 0.05 * _unit(rng)
    return _approx_job(wd, name, inv_expr(p1), inv_expr(p2), k1, k2, 1e-8,
                       ("inv", _c(p1)), ("inv", _c(p2)), "T1",
                       poles={"k1": [], "k2": []})


def _thin_rect(wd, name, rng):
    """2 x 0.02 rectangles with exp(16z)/exp(24z): the degree budget runs out."""
    a = 16.0 * np.exp(1j * rng.uniform(-0.1, 0.1))
    b = 24.0 * np.exp(1j * rng.uniform(-0.1, 0.1))
    k1 = polygon(_rect(0.05 * _unit(rng), 2.0, 0.02, 0.0))
    k2 = polygon(_rect(0.05 * _unit(rng), 2.0, 0.02, 0.0))
    return _approx_job(wd, name, exp_expr(a), exp_expr(b), k1, k2, 1e-8,
                       ("exp", _c(a)), ("exp", _c(b)), "T4")


def fit_exhaust(wd: Path, rng) -> list[Job]:
    # forced-polynomial jobs cost a little less than thin rectangles; more
    # thin ones keep the median inside that class
    plan = (("forced", _forced_poly, 3), ("thin", _thin_rect, 7))
    return [maker(wd, f"{tag}-{i}", rng) for tag, maker, count in plan for i in range(count)]


# -- series workload -----------------------------------------------------------


def koebe_coeffs(b: complex, n: int) -> np.ndarray:
    """A_k = k (-b)^(k-1), k = 0..n, for unimodular b (A_0 = 0)."""
    k = np.arange(n + 1)
    phase = np.mod((k - 1) * (np.angle(b) + math.pi), 2 * math.pi)
    a = k * np.exp(1j * phase)
    a[0], a[1] = 0, 1
    return a


def drawn_coeffs(rng, n: int) -> np.ndarray:
    """A normalized series with geometrically decaying random coefficients
    (floored at 1e-3/k^2, which keeps them clear of subnormals)."""
    rho = rng.uniform(0.2, 0.45)
    k = np.arange(n + 1)
    u = np.sqrt(rng.uniform(0, 1, n + 1)) * np.exp(1j * rng.uniform(0, 2 * math.pi, n + 1))
    a = u * (rho ** np.maximum(k - 1, 0) + 1e-3 / np.maximum(k, 1) ** 2)
    a[0], a[1] = 0, 1
    return a


def series_json(s1: np.ndarray, s2: np.ndarray) -> dict:
    coeffs = [{"b1": _c(x), "b2": _c(y)} for x, y in zip(s1, s2)]
    return {"kind": "power-F", "N": len(s1) - 1, "coeffs": coeffs}


def _series_input(wd: Path, name: str, s1, s2, info: dict) -> tuple[str, dict]:
    path = _write(wd / f"{name}.s.json", series_json(s1, s2))
    return path, dict(info, c1=[_c(x) for x in s1], c2=[_c(x) for x in s2])


def series_large(wd: Path, rng) -> list[Job]:
    """Koebe series with a distinct unimodular rotation per slot, and drawn
    normalized series, at N = 512 / 1024 / 2048."""
    inputs = {}
    for tag, n in (("k512", 512), ("k1024", 1024), ("k2048", 2048)):
        b1, b2 = _unit(rng), _unit(rng)
        inputs[tag] = _series_input(wd, tag, koebe_coeffs(b1, n), koebe_coeffs(b2, n),
                                    {"series": "koebe", "b": [_c(b1), _c(b2)]})
    for tag, n in (("d1024", 1024), ("d2048", 2048)):
        inputs[tag] = _series_input(wd, tag, drawn_coeffs(rng, n), drawn_coeffs(rng, n),
                                    {"series": "drawn"})
    # Sorted by cost a cycle is eight covering probes at N = 2048 (~50 ms,
    # from_json plus 4096-point evaluation), two transform jobs at N = 1024
    # (~1 s), the contour job and the N = 2048 transforms (~4 s).  The
    # median falls among the probes, which are many and short, so it rests on
    # many samples; the transforms dominate jobs_per_s.
    plan = (
        ("k1024", ["--bieberbach"]),
        ("d1024", ["--area"]),
        ("k2048", ["--area"]),
        ("k512", ["--area", "--radius", "1.5"]),
    ) + (("k2048", ["--koebe"]), ("d2048", ["--koebe"])) * 4
    jobs = []
    for i, (tag, flags) in enumerate(plan):
        path, info = inputs[tag]
        name = f"{tag}-{flags[0][2:]}-{i}"
        out = str(wd / f"{name}.out.json")
        argv = ["verify", "--series", path, *flags, "--out", out]
        check = dict(info, kind="verify", functional=flags[0][2:],
                     radius=float(flags[2]) if len(flags) > 2 else None)
        jobs.append(Job(name, argv, out, check))
    return jobs


# -- cold-process workload -----------------------------------------------------


def _bicomplex_point(z: tuple[complex, complex]) -> str:
    return json.dumps({"b1": _c(z[0]), "b2": _c(z[1])})


def cli_cold(wd: Path, rng) -> list[Job]:
    """One fresh `python -m bcapprox` per job.  The eval --rational job reads
    the approximant out of the approx job's report: the warm-up pass writes
    it to check["rational_out"] after running the approx job."""
    approx = _t4(wd, "approx", rng)
    approx.exit_ok = (0,)
    approx.check["expect_achieved"] = True

    kb = (_unit(rng), _unit(rng))
    s64, info64 = _series_input(wd, "k64", koebe_coeffs(kb[0], 64), koebe_coeffs(kb[1], 64),
                                {"series": "koebe", "b": [_c(kb[0]), _c(kb[1])]})
    bieb = Job("bieberbach-64", ["verify", "--series", s64, "--bieberbach"], None,
               dict(info64, kind="verify", functional="bieberbach", radius=None))

    sd, infod = _series_input(wd, "d64", drawn_coeffs(rng, 64), drawn_coeffs(rng, 64),
                              {"series": "drawn"})
    at = (0.5 * rng.uniform() * _unit(rng), 0.5 * rng.uniform() * _unit(rng))
    eval_series = Job("eval-series", ["eval", "--series", sd, "--at", _bicomplex_point(at)],
                      None, dict(infod, kind="eval-series", at=[_c(at[0]), _c(at[1])]),
                      exit_ok=(0,))

    coeffs = [(_unit(rng) * rng.uniform(0.5, 2.0), _unit(rng) * rng.uniform(0.5, 2.0))
              for _ in range(4)]
    mpath = _write(wd / "moebius.json",
                   {k: {"b1": _c(c[0]), "b2": _c(c[1])} for k, c in zip("ABCD", coeffs)})
    atm = (_unit(rng) * rng.uniform(0.2, 3.0), _unit(rng) * rng.uniform(0.2, 3.0))
    eval_moebius = Job("eval-moebius", ["eval", "--moebius", mpath, "--at", _bicomplex_point(atm)],
                       None, {"kind": "eval-moebius", "abcd": [[_c(c[0]), _c(c[1])] for c in coeffs],
                              "at": [_c(atm[0]), _c(atm[1])]}, exit_ok=(0,))

    k1, k2 = approx.check["k"]
    atr = (complex(*k1["center"]), complex(*k2["center"]))
    rpath = str(wd / "rational.json")
    approx.check["rational_out"] = rpath
    eval_rational = Job("eval-rational", ["eval", "--rational", rpath, "--at", _bicomplex_point(atr)],
                        None, {"kind": "eval-rational", "at": [_c(atr[0]), _c(atr[1])],
                               "f": approx.check["f"], "eps": approx.check["eps"],
                               "rational": rpath}, exit_ok=(0,))

    bad = _write(wd / "malformed.k.json", {"k1": {"shape": "trefoil"}, "k2": disk(0j, 1.0)})
    malformed = Job("malformed", ["approx", "--function", approx.argv[2], "--region", bad,
                                  "--eps", "1e-8", "--out", str(wd / "malformed.out.json")],
                    None, {"kind": "malformed"}, exit_ok=(2,))
    return [approx, bieb, eval_series, eval_moebius, eval_rational, malformed]


WORKLOADS = {
    "fit-converge": fit_converge,
    "fit-exhaust": fit_exhaust,
    "series-large": series_large,
    "cli-cold": cli_cold,
}


def generate(workload: str, seed: int, wd: Path) -> list[Job]:
    wd.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    return WORKLOADS[workload](wd, rng)
