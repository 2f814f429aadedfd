"""Per-job correctness oracle, independent of the program's own code.

Approximants are re-evaluated from their JSON with explicit power sums and
compared with the closed-form slot functions on fresh boundary points (by
the maximum-modulus principle the boundary carries the sup of f - R).
Koebe series are checked against closed forms; drawn series against an
independent numpy solution of G(z)^2 = F(z^2) and G(1/Z) H(Z) = 1 whose own
accuracy is confirmed at sample points.

check(job, rc, out_text, err_text) returns None for a correct outcome, or a
one-line reason.
"""

from __future__ import annotations

import json
import math

import numpy as np

_N_BOUNDARY = 2000


def _cx(v) -> complex:
    return complex(v[0], v[1])


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


# -- regions and functions -----------------------------------------------------


def _circle(c: complex, r: float, n: int, rng) -> np.ndarray:
    return c + r * np.exp(2j * np.pi * (np.arange(n) + rng.uniform()) / n)


def _polyline(verts: list[complex], n: int, rng) -> np.ndarray:
    v = np.asarray(verts + verts[:1])
    edges = v[1:] - v[:-1]
    lengths = np.abs(edges)
    idx = rng.choice(len(edges), size=n, p=lengths / lengths.sum())
    return v[idx] + rng.uniform(0, 1, n) * edges[idx]


def boundary_points(k: dict, n: int = _N_BOUNDARY, seed: int = 20221121) -> np.ndarray:
    """Random points on every boundary curve of a region given as JSON."""
    rng = np.random.default_rng(seed)
    shape = k["shape"]
    if shape == "disk":
        return _circle(_cx(k["center"]), k["radius"], n, rng)
    if shape == "annulus":
        c = _cx(k["center"])
        return np.concatenate([_circle(c, k["r_out"], n // 2, rng), _circle(c, k["r_in"], n // 2, rng)])
    if shape == "polygon":
        return _polyline([_cx(v) for v in k["vertices"]], n, rng)
    curves = [k["outer"], *k["holes"]]
    return np.concatenate([_polyline([_cx(v) for v in c], n // len(curves), rng) for c in curves])


def closed_form(fn, z: np.ndarray) -> np.ndarray:
    kind, par = fn
    if kind == "exp":
        return np.exp(_cx(par) * z)
    return 1.0 / (z - _cx(par))


def eval_slot_rational(sr: dict, z: np.ndarray) -> np.ndarray:
    """Polynomial in w = (z - center)/scale plus pole blocks, summed term by
    term (no Horner), straight from the report JSON."""
    z = np.asarray(z, dtype=complex)
    w = (z - _cx(sr["center"])) / sr["scale"]
    poly = np.array([_cx(c) for c in sr["poly"]])
    vals = (w[:, None] ** np.arange(len(poly))[None, :]) @ poly
    for block in sr["poles"]:
        u = 1.0 / (z - _cx(block["location"]))
        coeffs = np.array([_cx(c) for c in block["coeffs"]])
        vals = vals + (u[:, None] ** np.arange(1, len(coeffs) + 1)[None, :]) @ coeffs
    return vals


def approximant_terms(sr: dict) -> int:
    return len(sr["poly"]) + sum(len(b["coeffs"]) for b in sr["poles"])


# -- approx --------------------------------------------------------------------


def _check_approx(job, rc: int, rep: dict) -> str | None:
    c = job.check
    eps = c["eps"]
    if rep.get("command") != "approx":
        return "not an approx report"
    if rc != (0 if rep["achieved"] else 1):
        return f"exit {rc} does not match achieved={rep['achieved']}"
    if rep["class"] != c["label"]:
        return f"class {rep['class']} != expected {c['label']}"
    reported = (rep["sup_error"]["a1"], rep["sup_error"]["a2"])
    for slot, key in ((0, "r1"), (1, "r2")):
        z = boundary_points(c["k"][slot])
        err = float(np.max(np.abs(eval_slot_rational(rep["approximant"][key], z) - closed_form(c["f"][slot], z))))
        if reported[slot] <= eps:
            if err > 10 * eps:
                return f"slot {slot + 1}: boundary error {err:.3e} > 10*eps though reported {reported[slot]:.3e}"
        elif not 0.5 <= err / reported[slot] <= 2.0:
            return f"slot {slot + 1}: reported sup error {reported[slot]:.3e} vs re-measured {err:.3e}"
    if c.get("expect_achieved") and not rep["achieved"]:
        return "eps not reached"
    return None


# -- series --------------------------------------------------------------------


def sqrt_and_inversion(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For F = sum a_n z^n (a_0 = 0, a_1 = 1): g with G(z) = z g(z^2), g^2 = F(w)/w,
    and q with H(Z) = Z q(Z^-2), q = 1/g.  Returns (g, q), each of length N."""
    p = a[1:]
    n = len(p)
    g = np.zeros(n, dtype=complex)
    q = np.zeros(n, dtype=complex)
    g[0] = q[0] = 1.0
    for k in range(1, n):
        g[k] = (p[k] - np.dot(g[1:k], g[k - 1:0:-1])) / 2.0
    for k in range(1, n):
        q[k] = -np.dot(g[1:k + 1], q[k - 1::-1])
    return g, q


def _identities_hold(a, g, q) -> bool:
    z = 0.6 * np.exp(2j * np.pi * np.arange(16) / 16)
    big_g = z * np.polyval(g[::-1], z * z)
    f_z2 = np.polyval(a[::-1], z * z)
    zz = 1.5 * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16)
    g_inv = np.polyval(g[::-1], zz ** -2) / zz
    h = zz * np.polyval(q[::-1], zz ** -2)
    return (np.max(np.abs(big_g ** 2 - f_z2)) <= 1e-10 * max(1.0, np.max(np.abs(f_z2)))
            and np.max(np.abs(g_inv * h - 1)) <= 1e-10)


def _area_sum(q: np.ndarray) -> float:
    k = np.arange(1, len(q))
    return float(np.sum((2 * k - 1) * np.abs(q[1:]) ** 2))


def koebe_min_closed_form(b: complex, n: int, r: float, ns: int) -> float:
    """min |F_N| on the probe grid for F_N(z) = sum_{k<=N} k (-b z)^(k-1) z."""
    z = r * np.exp(1j * 2 * np.pi * np.arange(ns) / ns)
    x = -b * z
    f = z * (1 - (n + 1) * x ** n + n * x ** (n + 1)) / (1 - x) ** 2
    return float(np.min(np.abs(f)))


def _grid_min(a: np.ndarray, r: float, ns: int) -> float:
    """min |F| on r e^(2 pi i k/ns) through an FFT of the scaled coefficients."""
    n = len(a)
    reps = -(-n // ns)
    c = np.zeros(reps * ns, dtype=complex)
    c[:n] = a * r ** np.arange(n)
    vals = ns * np.fft.ifft(c.reshape(reps, ns).sum(axis=0))
    return float(np.min(np.abs(vals)))


def _series_expect(c: dict, slot: int) -> dict:
    """Closed-form or independently computed values of one slot."""
    a = np.array([_cx(v) for v in c[f"c{slot + 1}"]])
    n = len(a) - 1
    r = c["radius"]
    if c["series"] == "koebe":
        b = _cx(c["b"][slot])
        out = {"abs_a2": 2 * abs(b), "g3": -b, "c1": b, "area": abs(b) ** 2}
        if c["functional"] == "koebe":
            out["koebe_min"] = koebe_min_closed_form(b, n, 0.99, 4096)
        if r is not None:
            out["contour"] = math.pi * (r * r - abs(b) ** 2 / r ** 2)
        return out
    g, q = sqrt_and_inversion(a)
    if not _identities_hold(a, g, q):
        raise ArithmeticError("reference transforms fail G^2 = F(z^2) or G(1/Z)H(Z) = 1")
    out = {"abs_a2": abs(a[2]), "g3": g[1], "c1": q[1], "area": _area_sum(q)}
    if c["functional"] == "koebe":
        out["koebe_min"] = _grid_min(a, 0.99, 4096)
    return out


def _check_verify(job, rc: int, rep: dict) -> str | None:
    c = job.check
    fn = c["functional"]
    if rep.get("command") != "verify" or rep.get("functional") != fn:
        return "not the requested verify report"
    if rc != (0 if rep["holds"] else 1):
        return f"exit {rc} does not match holds={rep['holds']}"
    value = (rep["value"]["a1"], rep["value"]["a2"])
    bound = (rep["bound"]["a1"], rep["bound"]["a2"])
    if fn == "koebe":
        holds = all(v >= bnd - 1e-12 for v, bnd in zip(value, bound))
    else:
        slack = 0.0 if fn == "bieberbach" else 1e-12
        holds = all(v <= bnd + slack for v, bnd in zip(value, bound))
    if holds != rep["holds"]:
        return f"holds={rep['holds']} contradicts value {value} against bound {bound}"
    tr = rep["trace"]
    for slot in (0, 1):
        e = _series_expect(c, slot)
        if fn == "bieberbach":
            if not _close(value[slot], e["abs_a2"], 1e-12):
                return f"slot {slot + 1}: |A2| {value[slot]!r} != {e['abs_a2']!r}"
            g3 = _cx(tr["sqrt_cubic_coeff"][f"b{slot + 1}"])
            c1 = _cx(tr["inversion_c1"][f"b{slot + 1}"])
            if abs(g3 - e["g3"]) > 1e-12 * max(1, abs(e["g3"])) or abs(c1 - e["c1"]) > 1e-12 * max(1, abs(e["c1"])):
                return f"slot {slot + 1}: G3/C1 {g3}/{c1} != {e['g3']}/{e['c1']}"
            if not _close(tr["tail_area_sum"][slot], e["area"], 1e-9, 1e-12):
                return f"slot {slot + 1}: tail area {tr['tail_area_sum'][slot]!r} != {e['area']!r}"
        elif fn == "area":
            if not _close(value[slot], e["area"], 1e-9, 1e-12):
                return f"slot {slot + 1}: area sum {value[slot]!r} != {e['area']!r}"
            if c["radius"] is not None:
                got = tr["contour_area"][f"a{slot + 1}"]
                if not _close(got, e["contour"], 1e-9):
                    return f"slot {slot + 1}: contour area {got!r} != {e['contour']!r}"
        elif not _close(value[slot], e["koebe_min"], 1e-7):
            return f"slot {slot + 1}: covering min {value[slot]!r} != {e['koebe_min']!r}"
    return None


# -- eval ----------------------------------------------------------------------


def _value_pair(rep: dict) -> tuple[complex, complex]:
    v = rep["value"]
    return _cx(v["b1"]), _cx(v["b2"])


def _check_eval(job, rep: dict) -> str | None:
    c = job.check
    if rep.get("command") != "eval":
        return "not an eval report"
    got = _value_pair(rep)
    at = [_cx(p) for p in c["at"]]
    if c["kind"] == "eval-series":
        want = [np.sum(np.array([_cx(v) for v in c[f"c{s + 1}"]]) * at[s] ** np.arange(len(c[f"c{s + 1}"])))
                for s in (0, 1)]
        tol = [1e-12 * max(1.0, abs(w)) for w in want]
    elif c["kind"] == "eval-moebius":
        abcd = [[_cx(p) for p in pair] for pair in c["abcd"]]
        want = [(abcd[0][s] * at[s] + abcd[1][s]) / (abcd[2][s] * at[s] + abcd[3][s]) for s in (0, 1)]
        tol = [1e-12 * max(1.0, abs(w)) for w in want]
    else:
        with open(c["rational"], encoding="utf-8") as fh:
            rat = json.load(fh)
        want = [eval_slot_rational(rat[key], np.array([at[s]]))[0] for s, key in ((0, "r1"), (1, "r2"))]
        for s in (0, 1):
            f = closed_form(c["f"][s], np.array([at[s]]))[0]
            if abs(want[s] - f) > 10 * c["eps"]:
                return f"slot {s + 1}: rational misses f by {abs(want[s] - f):.3e} at {at[s]}"
        tol = [1e-10 * max(1.0, abs(w)) for w in want]
    for s in (0, 1):
        if abs(got[s] - want[s]) > tol[s]:
            return f"slot {s + 1}: value {got[s]} != {want[s]}"
    return None


# -- entry point ---------------------------------------------------------------


def check(job, rc: int, out_text: str, err_text: str) -> str | None:
    if rc not in job.exit_ok:
        return f"exit code {rc} not in {job.exit_ok}"
    if "Traceback" in err_text:
        return "traceback on stderr"
    kind = job.check["kind"]
    if kind == "malformed":
        try:
            payload = json.loads(err_text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return "no JSON error payload on stderr"
        return None if payload.get("error") == "input" and not out_text else "wrong error payload"
    try:
        rep = json.loads(out_text)
    except ValueError:
        return "output is not JSON"
    if not _finite(rep):
        return "non-finite field in report"
    try:
        if kind == "approx":
            return _check_approx(job, rc, rep)
        if kind == "verify":
            return _check_verify(job, rc, rep)
        return _check_eval(job, rep)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks an expected field: {exc!r}"
