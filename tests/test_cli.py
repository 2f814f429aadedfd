"""CLI contract: exit codes, report files, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcapprox
from bcapprox import (
    Annulus,
    Bicomplex,
    BicomplexRational,
    Disk,
    FunctionSpec,
    ProductCompact,
    SlotRational,
    exp,
    gronwall_area_sum,
    inversion_transform,
    jsonio,
    koebe_rotation_series,
    laurent_series,
    power_series,
    sqrt_transform,
    var,
)
from bcapprox import cli
from bcapprox.funcspec import Const, Div, Var


def child_env(env_extra=None):
    env = dict(os.environ)
    env.pop("BCAPPROX_SEED", None)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, cwd, env_extra=None):
    """Run the CLI in a child process; every run keeps the exit contract:
    0, 1 or 2, and never a traceback, and whatever it prints on stdout is
    canonical report text."""
    r = subprocess.run(
        [sys.executable, "-m", "bcapprox", *args],
        cwd=cwd,
        env=child_env(env_extra),
        capture_output=True,
        text=True,
    )
    assert r.returncode in (0, 1, 2), r.stderr
    assert "Traceback" not in r.stderr, r.stderr
    if r.stdout:
        assert jsonio.dumps(json.loads(r.stdout)) + "\n" == r.stdout
    return r


def test_child_imports_package_under_test(tmp_path):
    # a lost path fails the import; a stale installed copy prints another file
    r = subprocess.run(
        [sys.executable, "-c", "import bcapprox; print(bcapprox.__file__)"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert Path(r.stdout.strip()).resolve() == Path(bcapprox.__file__).resolve()


def test_child_loads_no_scipy(tmp_path):
    # `python -m bcapprox` imports the package and its CLI, nothing more
    r = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, bcapprox, bcapprox.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
        ],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_child_approx_loads_no_numpy_random(workdir):
    # the library draws no random numbers, so nothing pulls in numpy.random
    r = subprocess.run(
        [
            sys.executable, "-X", "importtime", "-m", "bcapprox", "approx",
            "--function", "f_invz.json", "--region", "k_annulus.json",
            "--eps", "1e-9", "--out", "rep.json",
        ],
        cwd=workdir,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    assert "bcapprox.cli" in r.stderr  # the import log is there to read
    assert "numpy.random" not in r.stderr


@pytest.fixture
def workdir(tmp_path):
    func = FunctionSpec(var() ** 2, var() ** 3)
    compact = ProductCompact(Disk(0, 1.0), Disk(0, 1.0))
    jsonio.dump_path(func.to_json(), tmp_path / "f_poly.json")
    jsonio.dump_path(compact.to_json(), tmp_path / "k_bidisk.json")

    annulus_func = FunctionSpec(Div(Const(1), Var(), poles=(0j,)), exp(var()))
    annulus_compact = ProductCompact(Annulus(0, 1.0, 2.0), Disk(0, 1.0))
    jsonio.dump_path(annulus_func.to_json(), tmp_path / "f_invz.json")
    jsonio.dump_path(annulus_compact.to_json(), tmp_path / "k_annulus.json")
    jsonio.dump_path({"k1": [], "k2": []}, tmp_path / "poles_none.json")

    koebe = koebe_rotation_series(Bicomplex.from_scalar(-1), 64)
    jsonio.dump_path(koebe.to_json(), tmp_path / "koebe.json")
    jsonio.dump_path(
        power_series([0, 1, 5]).to_json(), tmp_path / "a2_five.json"
    )
    jsonio.dump_path(
        power_series([0, 1]).to_json(), tmp_path / "identity.json"
    )
    jsonio.dump_path(laurent_series([1, 0, 1]).to_json(), tmp_path / "z_plus_invz.json")
    (tmp_path / "broken.json").write_text("{not json", encoding="ascii")
    return tmp_path


# -- approx ---------------------------------------------------------------------


def test_approx_success_exit0(workdir):
    r = run_cli(
        [
            "approx", "--function", "f_poly.json", "--region", "k_bidisk.json",
            "--eps", "1e-10", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["achieved"] is True
    assert rep["class"] == "T4"
    assert rep["sup_error"]["a1"] <= 1e-12 and rep["sup_error"]["a2"] <= 1e-12
    assert rep["approximant"]["r1"]["poly"]


def test_approx_polynomial_floor_exit1(workdir):
    r = run_cli(
        [
            "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
            "--eps", "1e-9", "--max-degree", "40",
            "--poles", "poles_none.json", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 1
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["achieved"] is False
    assert rep["sup_error"]["a1"] >= 0.1


def test_approx_malformed_region_exit2(workdir):
    r = run_cli(
        [
            "approx", "--function", "f_poly.json", "--region", "broken.json",
            "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "input"


def test_approx_bad_eps_exit2(workdir):
    # nan and inf used to run the whole budget and fail in the report writer
    for eps in ("-1", "nan", "inf"):
        r = run_cli(
            [
                "approx", "--function", "f_poly.json", "--region", "k_bidisk.json",
                "--eps", eps, "--out", "rep.json",
            ],
            workdir,
        )
        assert r.returncode == 2, eps
        detail = json.loads(r.stderr)["detail"]
        assert "error target eps must be a positive finite number" in detail
        assert not (workdir / "rep.json").exists()


@pytest.mark.parametrize(
    "region, fn",
    [("k_bidisk.json", "f_poly.json"), ("k_annulus.json", "f_invz.json")],
    ids=["bidisk", "annulus"],
)
def test_approx_negative_max_degree_exit2(workdir, region, fn):
    # on a bidisk this wrote a degree-0 report for an empty fit; on an
    # annulus it blamed the pole order cap
    r = run_cli(
        [
            "approx", "--function", fn, "--region", region,
            "--eps", "1e-8", "--max-degree", "-1", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    payload = json.loads(r.stderr)
    assert payload == {"error": "input", "detail": "degree budget max_degree must be >= 0, got -1"}
    assert not (workdir / "rep.json").exists()


def test_approx_unallocatable_budget_exit2(workdir):
    # the work buffers are allocated before any sample is drawn, so this
    # fails at once without touching memory; it used to die in a numpy
    # allocation traceback
    r = run_cli(
        [
            "approx", "--function", "f_poly.json", "--region", "k_bidisk.json",
            "--eps", "1e-8", "--max-degree", "100000", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert "max_degree=100000" in payload["detail"]
    assert "cannot be allocated" in payload["detail"]
    assert not (workdir / "rep.json").exists()


def test_approx_undersampled_basis_exit2(workdir):
    # 8 boundary samples cannot carry an orthonormal basis of degree 40
    func = FunctionSpec(exp(var()), exp(var()))
    jsonio.dump_path(func.to_json(), workdir / "f_exp.json")
    r = run_cli(
        [
            "approx", "--function", "f_exp.json", "--region", "k_bidisk.json",
            "--eps", "1e-8", "--samples", "8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert "orthonormal basis" in payload["detail"]
    assert not (workdir / "rep.json").exists()


def test_approx_basis_collapse_exit1_with_report(workdir):
    # a 0.05 hole in the unit disk: the raw pole columns live almost wholly on
    # the hole circle, and the basis collapses at pole order 35; the fit ends
    # not achieved at its best step instead of failing as an input error
    f1 = exp(var()) + Div(Const(1), Var() - Const(0.03), poles=(0.03 + 0j,))
    jsonio.dump_path(FunctionSpec(f1, exp(var())).to_json(), workdir / "f_hole.json")
    compact = ProductCompact(Annulus(0, 0.05, 1.0), Disk(0, 1.0))
    jsonio.dump_path(compact.to_json(), workdir / "k_small_hole.json")
    r = run_cli(
        [
            "approx", "--function", "f_hole.json", "--region", "k_small_hole.json",
            "--eps", "1e-10", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 1, r.stderr
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["achieved"] is False
    assert rep["diagnostics"]["slot1"]["achieved"] is False
    assert "collapsed at pole order" in rep["diagnostics"]["slot1"]["note"]
    assert rep["diagnostics"]["slot2"]["achieved"] is True


def test_approx_huge_pole_order_refused_by_budget_exit2(workdir):
    # numpy refuses the buffer shape itself; the budget message names it
    poles = {"k1": [{"location": [0, 0], "max_order": 1e12}], "k2": []}
    jsonio.dump_path(poles, workdir / "p.json")
    r = run_cli(
        [
            "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
            "--poles", "p.json", "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    detail = json.loads(r.stderr)["detail"]
    assert detail.startswith(
        "slot 1: degree budget max_degree=40 with pole orders (1000000000000,) needs "
        "1000000000041 basis columns"
    )
    assert detail.endswith("its work buffers cannot be allocated")
    assert not (workdir / "rep.json").exists()


@pytest.mark.parametrize("location", [["nan", 0], [0, "inf"]])
def test_approx_non_finite_pole_location_exit2(workdir, location):
    # NaN used to be refused as lying in the region
    poles = {"k1": [{"location": location, "max_order": 2}], "k2": []}
    jsonio.dump_path(poles, workdir / "p.json")
    r = run_cli(
        [
            "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
            "--poles", "p.json", "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    p = complex(*map(float, location))
    assert json.loads(r.stderr) == {"error": "input", "detail": f"pole {p} is not finite"}
    assert not (workdir / "rep.json").exists()


def test_approx_undeclared_pole_exit2(workdir):
    # 1/(z - 1) with no declared pole: its pole sits on the unit circle
    jsonio.dump_path(
        FunctionSpec(Div(Const(1), Var() - 1), var()).to_json(), workdir / "f_hidden.json"
    )
    r = run_cli(
        [
            "approx", "--function", "f_hidden.json", "--region", "k_bidisk.json",
            "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert "not finite" in payload["detail"] and "1+0j" in payload["detail"]
    assert not (workdir / "rep.json").exists()


def test_approx_domain_error_names_slot(workdir):
    jsonio.dump_path(
        FunctionSpec(var(), Div(Const(1), Var() - 1)).to_json(), workdir / "f_hidden2.json"
    )
    r = run_cli(
        [
            "approx", "--function", "f_hidden2.json", "--region", "k_bidisk.json",
            "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert payload["detail"].startswith("slot 2: ") and "not finite" in payload["detail"]


def test_approx_samples_match_api(workdir):
    # --samples N and approximate(n_boundary=N) fit on N boundary points
    r = run_cli(
        [
            "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
            "--eps", "1e-9", "--samples", "300", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    func = FunctionSpec.from_json(jsonio.load_path(workdir / "f_invz.json"))
    compact = ProductCompact.from_json(jsonio.load_path(workdir / "k_annulus.json"))
    _, report = bcapprox.approximate(func, compact, 1e-9, n_boundary=300)
    assert json.loads((workdir / "rep.json").read_text())["samples"] == report.samples
    assert report.samples["slot2"] == {"n_boundary": 300, "n_validation_boundary": 1200}


def test_approx_max_degree_zero_on_holed_region(workdir):
    # the automatic pole order cap follows the degree budget but never
    # drops below 1, so a degree-0 budget fits a constant plus one pole
    r = run_cli(
        [
            "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
            "--eps", "1e-8", "--max-degree", "0", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode in (0, 1), r.stderr
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["pole_orders"] == [[1], []]
    assert rep["degrees"] == [0, 0]


@pytest.mark.parametrize(
    "poles, detail",
    [
        ([1, 2], "poles file: expected an object with keys k1 and k2, got list"),
        (
            {"k1": {"location": [0, 0]}},
            "poles file: k1 must be a list of poles, got dict",
        ),
        (
            {"k1": [{"location": [0, 0]}, [0, 0]]},
            "poles file: k1 entry 1 must be an object with a location, got list",
        ),
    ],
    ids=["top-level-list", "slot-object", "entry-list"],
)
def test_approx_poles_file_shape_refused_by_name_exit2(workdir, poles, detail):
    # a top-level list was taken as "no poles file"; the other two were
    # refused in Python's words about string and list indices
    jsonio.dump_path(poles, workdir / "p.json")
    r = run_cli(
        [
            "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
            "--poles", "p.json", "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    assert json.loads(r.stderr) == {"error": "input", "detail": detail}
    assert not (workdir / "rep.json").exists()


@pytest.mark.parametrize("pair", [[0.5], [0.5, 0.0, 1.0]], ids=["one", "three"])
@pytest.mark.parametrize("kind", ["region", "function", "poles", "rational"])
def test_malformed_pair_exit2(workdir, kind, pair):
    # every [re, im] pair in an input file is decoded by one rule
    files = {
        "region": {
            "k1": {"shape": "disk", "center": pair, "radius": 1.0},
            "k2": {"shape": "disk", "center": [0, 0], "radius": 1.0},
        },
        "function": {"f1": {"op": "const", "value": pair}, "f2": {"op": "var"}},
        "poles": {"k1": [{"location": pair, "max_order": 4}], "k2": None},
        "rational": {
            "r1": {"center": pair, "scale": 1.0, "poly": [[1, 0]], "poles": []},
            "r2": {"center": [0, 0], "scale": 1.0, "poly": [[1, 0]], "poles": []},
        },
    }
    jsonio.dump_path(files[kind], workdir / "bad.json")
    approx = ["approx", "--eps", "1e-8", "--out", "rep.json"]
    argv = {
        "region": [*approx, "--function", "f_poly.json", "--region", "bad.json"],
        "function": [*approx, "--function", "bad.json", "--region", "k_bidisk.json"],
        "poles": [
            *approx, "--function", "f_invz.json", "--region", "k_annulus.json",
            "--poles", "bad.json",
        ],
        "rational": ["eval", "--rational", "bad.json", "--at", "0.5"],
    }[kind]
    r = run_cli(argv, workdir)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert "expected [re, im]" in payload["detail"]
    assert not (workdir / "rep.json").exists()


def test_approx_pole_without_max_order_gets_degree_cap(workdir):
    # a poles-file entry without max_order is capped like an automatic pole,
    # at max(1, --max-degree); at a cap of 8 this fit missed eps (6.4e-6).
    # The hole moments of 1/(z - 0.1) about 0 ask for order 15
    func = FunctionSpec(
        exp(Const(1.5) * var()) + Div(Const(1), Var() - 0.1, poles=(0.1 + 0j,)), exp(var())
    )
    jsonio.dump_path(func.to_json(), workdir / "f_mixed.json")
    compact = ProductCompact(Annulus(0, 0.5, 1.0), Disk(0, 1.0))
    jsonio.dump_path(compact.to_json(), workdir / "k_thin.json")
    for cap, name in [(None, "p_nocap.json"), (0, "p_zero.json")]:
        entry = {"location": [0, 0]} if cap is None else {"location": [0, 0], "max_order": cap}
        jsonio.dump_path({"k1": [entry]}, workdir / name)
    approx = ["approx", "--function", "f_mixed.json", "--region", "k_thin.json", "--eps", "1e-10"]
    r = run_cli([*approx, "--poles", "p_nocap.json", "--out", "rep.json"], workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads((workdir / "rep.json").read_text())
    assert rep["pole_orders"] == [[15], []]
    # an explicit cap below 1 is still an input error
    r = run_cli([*approx, "--poles", "p_zero.json", "--out", "rep0.json"], workdir)
    assert r.returncode == 2
    assert json.loads(r.stderr) == {
        "error": "input", "detail": "pole order cap must be >= 1, got 0"
    }


@pytest.mark.parametrize(
    "location", [[-0.3, -0.3], [0, -0.3], [0.1, -0.3]], ids=["vertex", "edge-mid", "edge"]
)
def test_approx_pole_on_hole_boundary_exit2(workdir, location):
    # the even-odd hole test counts some edge points as inside the hole;
    # the vertex used to end in a matmul error, the edge points in a fit
    # with its pole on K
    square = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    hole = [[-0.3, -0.3], [0.3, -0.3], [0, 0.3]]
    k1 = {"shape": "polygon-with-holes", "outer": square, "holes": [hole]}
    jsonio.dump_path({"k1": k1, "k2": Disk(0, 1.0).to_json()}, workdir / "k_holed.json")
    jsonio.dump_path(FunctionSpec(exp(var()), exp(var())).to_json(), workdir / "f_exp.json")
    jsonio.dump_path({"k1": [{"location": location}]}, workdir / "p_edge.json")
    r = run_cli(
        [
            "approx", "--function", "f_exp.json", "--region", "k_holed.json",
            "--eps", "1e-8", "--poles", "p_edge.json", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 2
    payload = json.loads(r.stderr)  # the payload is all there is on stderr
    assert payload["error"] == "input"
    assert payload["detail"].endswith("lies on the region's boundary")
    assert str(complex(*location)) in payload["detail"]
    assert not (workdir / "rep.json").exists()


def test_approx_hole_too_small_for_automatic_pole_exit2(workdir):
    # the automatic anchor of a 1e-30 hole lies within the boundary tolerance;
    # the message used to blame "pole 0j", which nobody wrote
    k = ProductCompact(Annulus(0, 1e-30, 1.0), Disk(0, 1.0))
    jsonio.dump_path(k.to_json(), workdir / "k_tiny.json")
    jsonio.dump_path(FunctionSpec(exp(var()), exp(var())).to_json(), workdir / "f_exp.json")
    args = ["approx", "--function", "f_exp.json", "--region", "k_tiny.json", "--eps", "1e-8"]
    r = run_cli([*args, "--out", "rep.json"], workdir)
    assert r.returncode == 2
    detail = json.loads(r.stderr)["detail"]
    assert detail.startswith("hole 0 of size 1e-30 is too small for an automatic pole")
    assert detail.endswith("an empty pole list for its slot forces a polynomial fit")
    assert not (workdir / "rep.json").exists()
    # as the message says, an empty pole list fits a polynomial instead
    jsonio.dump_path({"k1": [], "k2": []}, workdir / "p_none.json")
    r = run_cli([*args, "--poles", "p_none.json", "--out", "rep.json"], workdir)
    assert r.returncode == 0, r.stderr


# Before the finiteness rule each of these reached the fit, and ended in numpy
# warnings and a message about NaN, a pole or the slot function, or in a
# traceback.
_UNIT_DISK = '{"shape": "disk", "center": [0, 0], "radius": 1}'
_NON_FINITE_REGIONS = {
    "vertex-1e400": ("polygon", '{"shape": "polygon", "vertices": [[0, 0], [1e400, 0], [0, 1]]}'),
    "vertices-1e308": (
        "polygon",
        '{"shape": "polygon", "vertices": [[-1e308, 0], [1e308, 0], [0, 1e308]]}',
    ),
    "disk-radius-1e400": ("disk", '{"shape": "disk", "center": [0, 0], "radius": 1e400}'),
    "disk-radius-1e308": ("disk", '{"shape": "disk", "center": [0, 0], "radius": 1e308}'),
    "annulus-r-out-1e400": (
        "annulus",
        '{"shape": "annulus", "center": [0, 0], "r_in": 1, "r_out": 1e400}',
    ),
    "disk-center-1e400": ("disk", '{"shape": "disk", "center": [1e400, 0], "radius": 1}'),
}
_WARNINGS_ENV = {"warnings-error": None, "warnings-default": {"PYTHONWARNINGS": ""}}


@pytest.mark.parametrize("env", _WARNINGS_ENV)
@pytest.mark.parametrize("case", _NON_FINITE_REGIONS)
def test_approx_non_finite_region_exit2(workdir, case, env):
    shape, k1 = _NON_FINITE_REGIONS[case]
    (workdir / "k_bad.json").write_text(f'{{"k1": {k1}, "k2": {_UNIT_DISK}}}', encoding="ascii")
    jsonio.dump_path(FunctionSpec(exp(var()), exp(var())).to_json(), workdir / "f_exp.json")
    r = run_cli(
        [
            "approx", "--function", "f_exp.json", "--region", "k_bad.json",
            "--eps", "1e-8", "--out", "rep.json",
        ],
        workdir,
        _WARNINGS_ENV[env],
    )
    assert r.returncode == 2
    payload = json.loads(r.stderr)  # the payload is all there is on stderr
    assert payload["error"] == "input"
    assert payload["detail"].startswith(f"{shape} coordinate or size ")
    assert not (workdir / "rep.json").exists()


_FUZZ_REGIONS = [
    {"k1": Annulus(0, 1.0, 2.0).to_json(), "k2": Disk(0, 1.0).to_json()},
    {
        "k1": {"shape": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
        "k2": {
            "shape": "polygon-with-holes",
            "outer": [[-1, -1], [1, -1], [1, 1], [-1, 1]],
            "holes": [[[-0.3, -0.3], [0.3, -0.3], [0, 0.3]]],
        },
    },
]


def _number_paths(obj, path=()):
    """The key path of every number in a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in items:
        if isinstance(val, (dict, list)):
            yield from _number_paths(val, path + (key,))
        elif isinstance(val, (int, float)):
            yield path + (key,)


_FUZZ_VALUES = st.one_of(
    st.floats(1e-300, 1e308),
    st.floats(-1e308, -1e-300),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_approx_region_fuzz_keeps_exit_contract(tmp_path_factory, data):
    # one number of a valid region file replaced: the run ends in 0, 1 or 2,
    # and no exception or warning escapes cli.main
    region = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_REGIONS)))
    path = data.draw(st.sampled_from(list(_number_paths(region))))
    target = region
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = data.draw(_FUZZ_VALUES)
    wd = tmp_path_factory.mktemp("fuzz")
    (wd / "k.json").write_text(json.dumps(region), encoding="ascii")
    jsonio.dump_path(FunctionSpec(exp(var()), exp(var())).to_json(), wd / "f.json")
    argv = [
        "approx", "--function", str(wd / "f.json"), "--region", str(wd / "k.json"),
        "--eps", "1e-8", "--max-degree", "4", "--out", str(wd / "rep.json"),
    ]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert json.loads(err.getvalue())["error"] == "input"


# -- verify ---------------------------------------------------------------------


def test_verify_bieberbach_equality(workdir):
    r = run_cli(
        ["verify", "--series", "koebe.json", "--bieberbach", "--out", "v.json"], workdir
    )
    assert r.returncode == 0
    rep = json.loads((workdir / "v.json").read_text())
    assert rep["holds"] is True
    assert rep["value"] == {"a1": 2.0, "a2": 2.0}
    assert rep["bound"] == {"a1": 2.0, "a2": 2.0}
    assert rep["trace"]["c1_within_unit"] is True


def test_verify_bieberbach_violation_exit1(workdir):
    r = run_cli(["verify", "--series", "a2_five.json", "--bieberbach"], workdir)
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert rep["holds"] is False and rep["value"]["a1"] == 5.0


def test_verify_area_identity_pipeline(workdir):
    r = run_cli(["verify", "--series", "identity.json", "--area"], workdir)
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["value"] == {"a1": 0.0, "a2": 0.0}
    assert rep["trace"]["pipeline"].startswith("sqrt_transform")


def test_verify_area_laurent_with_contour_trace(workdir):
    r = run_cli(
        ["verify", "--series", "z_plus_invz.json", "--area", "--radius", "2.0"], workdir
    )
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert abs(rep["value"]["a1"] - 1.0) < 1e-12
    assert abs(rep["trace"]["contour_area"]["a1"] - 3.141592653589793 * 3.75) < 1e-8


def test_verify_koebe_functional(workdir):
    r = run_cli(
        ["verify", "--series", "identity.json", "--koebe", "--radius", "0.9"], workdir
    )
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert abs(rep["value"]["a1"] - 0.9) < 1e-12
    assert abs(rep["bound"]["a1"] - 0.9 / 1.9**2) < 1e-15


@pytest.mark.parametrize("flags", [["--koebe"], ["--area", "--radius", "1.5"]])
def test_verify_samples_below_floor_exit2(workdir, flags):
    # --samples 0 used to run 4096 samples without a word
    r = run_cli(["verify", "--series", "koebe.json", *flags, "--samples", "0"], workdir)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr)["error"] == "input"


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--bieberbach", "--radius", "7"], "--radius has no effect on --bieberbach"),
        (["--bieberbach", "--samples", "0"], "--samples has no effect on --bieberbach"),
        (["--area", "--samples", "0"], "--samples has no effect on --area without --radius"),
    ],
    ids=["bieberbach-radius", "bieberbach-samples", "area-samples"],
)
def test_verify_flag_without_effect_exit2(workdir, flags, named):
    # each of these exited 0 as if the flag had been honoured
    r = run_cli(["verify", "--series", "koebe.json", *flags], workdir)
    assert r.returncode == 2
    assert r.stdout == ""
    assert json.loads(r.stderr) == {"error": "input", "detail": named}


def test_verify_area_records_contour_samples(workdir):
    # the contour runs at least 4 * tail_N samples, whatever --samples asks for
    for asked, used in (("16", 4 * 125), ("4096", 4096)):
        r = run_cli(
            ["verify", "--series", "koebe.json", "--area", "--radius", "1.5", "--samples", asked],
            workdir,
        )
        assert r.returncode == 0, r.stderr
        trace = json.loads(r.stdout)["trace"]
        assert trace["tail_N"] == 125
        assert trace["contour_nsamples"] == used


_OVERFLOWING_SERIES = {
    "power-bieberbach": (power_series, [0, 1, 0.5, 1e160], ["--bieberbach"]),
    "power-area": (power_series, [0, 1, 0.5, 1e160], ["--area"]),
    "power-area-radius": (power_series, [0, 1, 0.5, 1e160], ["--area", "--radius", "1.5"]),
    "laurent-area-radius": (laurent_series, [1, 0, 0.5, 1e160], ["--area", "--radius", "1.5"]),
}


@pytest.mark.parametrize("env", _WARNINGS_ENV)
@pytest.mark.parametrize("case", _OVERFLOWING_SERIES)
def test_verify_area_sum_past_float_range_exit2(workdir, case, env):
    # the area sum squares |B_n| ~ 1e160; numpy's overflow warning used to
    # come first, then "non-finite float in report" (or a traceback)
    build, coeffs, flags = _OVERFLOWING_SERIES[case]
    jsonio.dump_path(build(coeffs).to_json(), workdir / "huge_tail.json")
    r = run_cli(["verify", "--series", "huge_tail.json", *flags], workdir, _WARNINGS_ENV[env])
    assert r.returncode == 2
    assert r.stdout == ""
    payload = json.loads(r.stderr)  # the payload is all there is on stderr
    assert payload["error"] == "input"
    assert payload["detail"].startswith("area sum sum_n n |B_n|_k^2 = (")
    assert payload["detail"].endswith(") lies beyond the float range")


def _two_far_tail_terms():
    c = [0.0] * 301
    c[1], c[71], c[76] = 1.0, 1e200, 1e200
    return c


_OVERFLOWING_TRANSFORMS = {
    "short-area": ([0, 1, 1e200, 1e300, 1e300], "--area"),
    "short-bieberbach": ([0, 1, 1e200, 1e300, 1e300], "--bieberbach"),
    "far-area": (_two_far_tail_terms(), "--area"),
    "far-bieberbach": (_two_far_tail_terms(), "--bieberbach"),
}


@pytest.mark.parametrize("env", _WARNINGS_ENV)
@pytest.mark.parametrize("case", _OVERFLOWING_TRANSFORMS)
def test_verify_transform_past_float_range_exit2(workdir, case, env):
    # the square-root transform leaves the float range before any functional;
    # numpy's matmul warning (or a traceback) used to come first
    coeffs, flag = _OVERFLOWING_TRANSFORMS[case]
    jsonio.dump_path(power_series(coeffs).to_json(), workdir / "huge.json")
    r = run_cli(["verify", "--series", "huge.json", flag], workdir, _WARNINGS_ENV[env])
    assert r.returncode == 2
    assert r.stdout == ""
    payload = json.loads(r.stderr)  # the payload is all there is on stderr
    assert payload["error"] == "input"
    assert payload["detail"].startswith("square-root transform coefficient G_")
    assert payload["detail"].endswith(" overflows the float range")


_TAIL_MAGNITUDES = st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300))


@settings(max_examples=50, deadline=None)
@given(
    n=st.sampled_from([4, 100]),
    data=st.data(),
    x=_TAIL_MAGNITUDES,
    flag=st.sampled_from(["--bieberbach", "--area", "--koebe"]),
)
def test_verify_tail_magnitude_keeps_exit_contract(tmp_path_factory, n, data, x, flag):
    # one tail coefficient of any magnitude: the run ends in 0, 1 or 2, and
    # no exception or warning escapes cli.main
    order = data.draw(st.integers(2, n))
    coeffs = [0.0, 1.0] + [0.5**k for k in range(2, n + 1)]
    coeffs[order] = Bicomplex(x, 1j * x)
    path = tmp_path_factory.mktemp("tail") / "s.json"
    jsonio.dump_path(power_series(coeffs).to_json(), path)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["verify", "--series", str(path), flag])
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert json.loads(err.getvalue())["error"] == "input"
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue())


def test_verify_malformed_series_exit2(workdir):
    r = run_cli(["verify", "--series", "broken.json", "--area"], workdir)
    assert r.returncode == 2


def _drawn_coeffs(rng, count, scale):
    re1, im1, re2, im2 = rng.uniform(-1, 1, (4, count)) * scale
    return [Bicomplex(complex(a, b), complex(c, d)) for a, b, c, d in zip(re1, im1, re2, im2)]


def test_verify_order_retruncates_power_series(workdir):
    rng = np.random.default_rng(40)
    coeffs = [0, 1, *_drawn_coeffs(rng, 19, 0.5 ** np.arange(2, 21))]
    jsonio.dump_path(power_series(coeffs).to_json(), workdir / "f20.json")
    r = run_cli(["verify", "--series", "f20.json", "--area", "--order", "7"], workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["trace"]["N"] == 7
    assert rep["trace"]["tail_N"] == 2 * 7 - 3
    want = gronwall_area_sum(inversion_transform(sqrt_transform(power_series(coeffs[:8]))))
    full = gronwall_area_sum(inversion_transform(sqrt_transform(power_series(coeffs))))
    assert rep["value"]["a1"] == pytest.approx(want.a1, rel=1e-14)
    assert rep["value"]["a2"] == pytest.approx(want.a2, rel=1e-14)
    assert abs(rep["value"]["a1"] - full.a1) > 1e-6  # the cut is visible


def test_verify_order_retruncates_laurent_series(workdir):
    rng = np.random.default_rng(41)
    coeffs = [1, 0.25, *_drawn_coeffs(rng, 12, 0.15)]
    jsonio.dump_path(laurent_series(coeffs).to_json(), workdir / "g12.json")
    r = run_cli(["verify", "--series", "g12.json", "--area", "--order", "5"], workdir)
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["trace"] == {"kind": "laurent-Sigma", "N": 5}
    want = gronwall_area_sum(laurent_series(coeffs[:7]))
    assert rep["value"] == {"a1": want.a1, "a2": want.a2}
    # an order at or above N leaves the series as read; a negative one is bad input
    r = run_cli(["verify", "--series", "g12.json", "--area", "--order", "40"], workdir)
    assert json.loads(r.stdout)["trace"]["N"] == 12
    r = run_cli(["verify", "--series", "g12.json", "--area", "--order", "-3"], workdir)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "input"


# -- eval -----------------------------------------------------------------------


def test_eval_identity_moebius_echo(workdir):
    one = Bicomplex.from_scalar(1)
    zero = Bicomplex.from_scalar(0)
    m = {"A": one.to_json(), "B": zero.to_json(), "C": zero.to_json(), "D": one.to_json()}
    jsonio.dump_path(m, workdir / "ident.json")
    r = run_cli(
        ["eval", "--moebius", "ident.json", "--at", '{"b1": [1, 0], "b2": [0, 1]}'],
        workdir,
    )
    assert r.returncode == 0
    val = json.loads(r.stdout)["value"]
    assert val == {"b1": [1.0, 0.0], "b2": [0.0, 1.0]}


def test_eval_moebius_huge_point_finite(workdir):
    # z/(z + 1) at a huge finite point is ~1, though (z + 0)/(z + 1) overflows
    one, zero = Bicomplex.from_scalar(1).to_json(), Bicomplex.from_scalar(0).to_json()
    jsonio.dump_path({"A": one, "B": zero, "C": one, "D": one}, workdir / "z_over_z1.json")
    at = '{"b1": [1e308, 1e308], "b2": [0, 0]}'
    r = run_cli(["eval", "--moebius", "z_over_z1.json", "--at", at], workdir)
    assert r.returncode == 0, r.stderr
    value = json.loads(r.stdout)["value"]
    assert abs(complex(*value["b1"]) - 1) <= 1e-12
    assert value["b2"] == [0.0, 0.0]


def test_eval_moebius_huge_coefficients_and_point_finite(workdir):
    # A = C = 1e308(1 + i) at 1e308: A beta and C beta + 1 overflow as floats,
    # the exact quotient is ~1
    huge = Bicomplex.from_scalar(1e308 + 1e308j).to_json()
    one, zero = Bicomplex.from_scalar(1).to_json(), Bicomplex.from_scalar(0).to_json()
    jsonio.dump_path({"A": huge, "B": zero, "C": huge, "D": one}, workdir / "huge.json")
    at = '{"b1": [1e308, 0], "b2": [0, 0]}'
    r = run_cli(["eval", "--moebius", "huge.json", "--at", at], workdir)
    assert r.returncode == 0, r.stderr
    value = json.loads(r.stdout)["value"]
    assert abs(complex(*value["b1"]) - 1) <= 1e-12
    assert value["b2"] == [0.0, 0.0]


def test_eval_moebius_degenerate_past_float_range_exit2(workdir):
    # A = B = C = D = 1e200 in slot 1: AD - BC is exactly 0 there, though
    # its float value is inf - inf = NaN
    big, one = {"b1": [1e200, 0], "b2": [1, 0]}, {"b1": [1e200, 0], "b2": [0, 0]}
    jsonio.dump_path({"A": big, "B": one, "C": big, "D": big}, workdir / "degenerate.json")
    r = run_cli(["eval", "--moebius", "degenerate.json", "--at", "0.9"], workdir)
    assert r.returncode == 2
    payload = json.loads(r.stderr)
    assert payload["error"] == "input" and "null cone" in payload["detail"]


@pytest.mark.parametrize("bad", ["1e999", "-1e999", "NaN"])
def test_eval_moebius_non_finite_coefficient_exit2(workdir, bad):
    text = (
        f'{{"A": {{"b1": [{bad}, 0], "b2": [1, 0]}}, "B": {{"b1": [0, 0], "b2": [0, 0]}},'
        ' "C": {"b1": [0, 0], "b2": [0, 0]}, "D": {"b1": [1, 0], "b2": [1, 0]}}'
    )
    (workdir / "bad_coeff.json").write_text(text, encoding="ascii")
    r = run_cli(["eval", "--moebius", "bad_coeff.json", "--at", "0.5"], workdir)
    assert r.returncode == 2
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert payload["detail"].startswith("coefficient A = ") and "is not finite" in payload["detail"]


def test_eval_moebius_huge_denominator_coefficient(workdir):
    # C = 1.5e308(1 + i) in both slots: |C| overflows abs(), the value does not
    huge = Bicomplex.from_scalar(1.5e308 + 1.5e308j).to_json()
    one, zero = Bicomplex.from_scalar(1).to_json(), Bicomplex.from_scalar(0).to_json()
    jsonio.dump_path({"A": one, "B": zero, "C": huge, "D": one}, workdir / "huge_c.json")
    r = run_cli(["eval", "--moebius", "huge_c.json", "--at", "0.5"], workdir)
    assert r.returncode == 0, r.stderr
    with mpmath.workdps(50):
        beta = mpmath.mpf("0.5")
        want = complex(beta / (mpmath.mpc("1.5e308", "1.5e308") * beta + 1))
    assert abs(want - complex(3.33333e-309, -3.33333e-309)) <= 1e-5 * abs(want)
    for slot in json.loads(r.stdout)["value"].values():
        assert abs(complex(*slot) - want) <= 1e-12 * abs(want)


def test_eval_moebius_affine_overflow_exit2(workdir):
    # 2 z at 1e308(1 + i) lies beyond the float range: a named overflow, not NaN
    two, one = Bicomplex.from_scalar(2).to_json(), Bicomplex.from_scalar(1).to_json()
    zero = Bicomplex.from_scalar(0).to_json()
    jsonio.dump_path({"A": two, "B": zero, "C": zero, "D": one}, workdir / "double.json")
    at = '{"b1": [1e308, 1e308], "b2": [0, 0]}'
    r = run_cli(["eval", "--moebius", "double.json", "--at", at], workdir)
    assert r.returncode == 2
    assert r.stdout == ""
    detail = json.loads(r.stderr)["detail"]
    assert detail.startswith(f"value at --at point {at} is undefined")
    assert "overflows" in detail and "NaN" not in detail


def test_eval_laurent_null_cone_exit1(workdir):
    r = run_cli(
        ["eval", "--series", "z_plus_invz.json", "--at", '{"b1": [1, 0], "b2": [0, 0]}'],
        workdir,
    )
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"] == "null-cone"


def test_eval_laurent_past_abs_range(workdir):
    # |beta1| overflows abs() in the null-cone test; the value is finite
    jsonio.dump_path(laurent_series([1, 0, 0.5]).to_json(), workdir / "z_half_invz.json")
    at = '{"b1": [1.5e308, 1.5e308], "b2": [1, 0]}'
    r = run_cli(["eval", "--series", "z_half_invz.json", "--at", at], workdir)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["value"] == {"b1": [1.5e308, 1.5e308], "b2": [1.5, 0.0]}


def test_verify_bieberbach_past_abs_range_exit2(workdir):
    # |A_2| overflows abs() in slot 1: an input error with a payload
    a2 = Bicomplex(1.5e308 + 1.5e308j, 0.5)
    jsonio.dump_path(power_series([0, 1, a2]).to_json(), workdir / "a2_huge.json")
    r = run_cli(["verify", "--series", "a2_huge.json", "--bieberbach"], workdir)
    assert r.returncode == 2
    assert r.stdout == ""
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert payload["detail"].startswith("|A_2|_k = (inf, 0.5) lies beyond the float range")


def test_eval_koebe_at_half(workdir):
    r = run_cli(["eval", "--series", "koebe.json", "--at", "0.5"], workdir)
    assert r.returncode == 0
    val = json.loads(r.stdout)["value"]
    assert abs(val["b1"][0] - 2.0) < 1e-12
    assert abs(val["b2"][0] - 2.0) < 1e-12


def test_eval_requires_single_object(workdir):
    r = run_cli(
        ["eval", "--series", "koebe.json", "--moebius", "koebe.json", "--at", "0.5"],
        workdir,
    )
    assert r.returncode == 2


@pytest.mark.parametrize(
    "point",
    ["NaN", "Infinity", "1e400", "[0.5, NaN]", '{"b1": "inf", "b2": [Infinity, 0]}'],
)
def test_eval_non_finite_point_exit2(workdir, point):
    r = run_cli(["eval", "--series", "koebe.json", "--at", point], workdir)
    assert r.returncode == 2
    payload = json.loads(r.stderr)  # the payload is all there is on stderr
    assert payload["error"] == "input"
    assert "non-finite coordinate" in payload["detail"] and repr(point) in payload["detail"]


@pytest.mark.parametrize("kind", ["series", "rational"])
def test_eval_overflowing_value_exit2(workdir, kind):
    # z + z^2 overflows at 1e308 in both slots
    quad = SlotRational(0j, 1.0, (0j, 1 + 0j, 1 + 0j))
    jsonio.dump_path(BicomplexRational(quad, quad).to_json(), workdir / "quad.json")
    src = "koebe.json" if kind == "series" else "quad.json"
    r = run_cli(["eval", f"--{kind}", src, "--at", "1e308"], workdir)
    assert r.returncode == 2
    payload = json.loads(r.stderr)
    assert payload["error"] == "input"
    assert payload["detail"].startswith("value at --at point 1e308 is not finite")


def test_eval_rational_missing_key_named(workdir):
    # a whole approx report is not an approximant: its r1 sits one level down
    r = run_cli(
        [
            "approx", "--function", "f_poly.json", "--region", "k_bidisk.json",
            "--eps", "1e-10", "--out", "rep.json",
        ],
        workdir,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["eval", "--rational", "rep.json", "--at", "0.5"], workdir)
    assert r.returncode == 2
    assert json.loads(r.stderr) == {"error": "input", "detail": "missing key 'r1'"}


@pytest.mark.parametrize("order, ncoeffs", [(0, 2), (5, 1)])
def test_eval_rational_pole_order_differs_from_coeffs_exit2(workdir, order, ncoeffs):
    # order 0 with coefficients [1, 2] at 0 used to evaluate to 1/0.5 + 2/0.25 = 10
    term = {"location": [0, 0], "order": order, "coeffs": [[1, 0], [2, 0]][:ncoeffs]}
    slot = {"center": [0, 0], "scale": 1.0, "poly": [[0, 0]], "poles": [term]}
    jsonio.dump_path({"r1": slot, "r2": slot}, workdir / "rat.json")
    r = run_cli(["eval", "--rational", "rat.json", "--at", "0.5"], workdir)
    assert r.returncode == 2 and r.stdout == ""
    detail = f"pole term order {order} differs from its {ncoeffs} coefficient(s)"
    assert json.loads(r.stderr) == {"error": "input", "detail": detail}


def _main(argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# -- strict input reading ---------------------------------------------------------


def _deep_file(workdir, kind):
    depth = 3000
    if kind == "series":
        text = '{"kind": "power-F", "coeffs": ' + "[" * depth + "0" + "]" * depth + "}"
    else:
        expr = '{"op": "exp", "arg": ' * depth + '{"op": "var"}' + "}" * depth
        text = '{"f1": ' + expr + ', "f2": {"op": "var"}}'
    path = workdir / f"deep_{kind}.json"
    path.write_text(text, encoding="ascii")
    if kind == "series":
        return path, ["eval", "--series", str(path), "--at", "0.1"]
    return path, [
        "approx", "--function", str(path), "--region", str(workdir / "k_bidisk.json"),
        "--eps", "1e-8", "--out", str(workdir / "rep.json"),
    ]


@pytest.mark.parametrize("kind", ["series", "function"])
def test_deep_json_refused_by_name_in_process(workdir, kind):
    path, argv = _deep_file(workdir, kind)
    code, _, err = _main(argv)
    assert code == 2
    detail = f"{path}: JSON nested too deeply to read"
    assert json.loads(err) == {"error": "input", "detail": detail}


@pytest.mark.parametrize("warnings_env", ["error::RuntimeWarning", ""], ids=["error", "default"])
@pytest.mark.parametrize("kind", ["series", "function"])
def test_deep_json_refused_by_name(workdir, kind, warnings_env):
    path, argv = _deep_file(workdir, kind)
    r = run_cli(argv, workdir, {"PYTHONWARNINGS": warnings_env})
    assert r.returncode == 2
    assert json.loads(r.stderr)["detail"] == f"{path}: JSON nested too deeply to read"


def _integer_field_case(workdir, field, value):
    """An input file whose integer field holds value, and the argv reading it."""
    approx = ["--eps", "1e-8", "--out", str(workdir / "rep.json")]
    bad = workdir / "bad.json"
    if field == "exponent":
        pow_z = {"op": "pow", "base": {"op": "var"}, "exponent": value}
        jsonio.dump_path({"f1": pow_z, "f2": {"op": "var"}}, bad)
        return ["approx", "--function", str(bad), "--region", str(workdir / "k_bidisk.json"),
                *approx], "pow exponent"
    if field == "max_order":
        jsonio.dump_path({"k1": [{"location": [0, 0], "max_order": value}], "k2": None}, bad)
        return ["approx", "--function", str(workdir / "f_invz.json"),
                "--region", str(workdir / "k_annulus.json"), "--poles", str(bad),
                *approx], "pole max_order"
    if field == "order":
        term = {"location": [0, 0], "order": value, "coeffs": [[1, 0], [0, 0]]}
        slot = {"center": [0, 0], "scale": 1.0, "poly": [[1, 0]], "poles": [term]}
        jsonio.dump_path({"r1": slot, "r2": slot}, bad)
        return ["eval", "--rational", str(bad), "--at", "0.5"], "pole term order"
    series = power_series([0, 1, 0.5]).to_json()
    series["N"] = value
    jsonio.dump_path(series, bad)
    return ["eval", "--series", str(bad), "--at", "0.1"], "series N"


@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("field", ["exponent", "max_order", "order", "N"])
def test_integer_field_refuses_fraction_and_bool(workdir, field, value):
    # pow exponent 2.5 used to be fit as z^2 and reported converged
    argv, what = _integer_field_case(workdir, field, value)
    code, _, err = _main(argv)
    assert code == 2
    detail = f"{what} must be an integer, got {value!r}"
    assert json.loads(err) == {"error": "input", "detail": detail}
    assert not (workdir / "rep.json").exists()


@pytest.mark.parametrize("field", ["exponent", "max_order", "order", "N"])
def test_integer_field_takes_an_integral_float(workdir, field):
    argv, _ = _integer_field_case(workdir, field, 2.0)
    code, _, err = _main(argv)
    assert code == 0, err


def test_parser_built_once_keeps_every_output(workdir):
    # approx, verify, eval and a bad usage (exit 2) through one cached
    # parser, then each through a freshly built one: the same bytes
    w = str(workdir)
    calls = [
        ["approx", "--function", f"{w}/f_poly.json", "--region", f"{w}/k_bidisk.json",
         "--eps", "1e-10", "--out", f"{w}/rep.json"],
        ["verify", "--series", f"{w}/koebe.json", "--bieberbach"],
        ["eval", "--series", f"{w}/koebe.json", "--at", "0.5"],
        ["verify", "--series", f"{w}/koebe.json"],
    ]

    def run_all(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            outputs.append(_main(argv))
            outputs.append((workdir / "rep.json").read_bytes())
        return outputs

    cli._build_parser.cache_clear()
    cached = run_all(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert [out[0] for out in cached[::2]] == [0, 0, 0, 2]
    assert cached == run_all(fresh=True)


# -- determinism -------------------------------------------------------------------


def test_reports_byte_identical_across_runs(workdir):
    args = [
        "approx", "--function", "f_invz.json", "--region", "k_annulus.json",
        "--eps", "1e-9", "--seed", "42",
    ]
    for out in ("rep1.json", "rep2.json"):
        r = run_cli([*args, "--out", out], workdir)
        assert r.returncode == 0, r.stderr
    b1 = (workdir / "rep1.json").read_bytes()
    b2 = (workdir / "rep2.json").read_bytes()
    assert b1 == b2
    vargs = ["verify", "--series", "koebe.json", "--bieberbach"]
    r1 = run_cli([*vargs, "--out", "v1.json"], workdir)
    r2 = run_cli([*vargs, "--out", "v2.json"], workdir)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert (workdir / "v1.json").read_bytes() == (workdir / "v2.json").read_bytes()


def test_out_file_matches_stdout(workdir):
    vargs = ["verify", "--series", "koebe.json", "--bieberbach"]
    r1 = run_cli(vargs, workdir)
    r2 = run_cli([*vargs, "--out", "v.json"], workdir)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r2.stdout == ""
    assert (workdir / "v.json").read_text(encoding="ascii") == r1.stdout


def test_env_seed_overrides_flag(workdir):
    args = [
        "approx", "--function", "f_poly.json", "--region", "k_bidisk.json",
        "--eps", "1e-8", "--seed", "42", "--out", "rep_env.json",
    ]
    r = run_cli(args, workdir, env_extra={"BCAPPROX_SEED": "77"})
    assert r.returncode == 0
    rep = json.loads((workdir / "rep_env.json").read_text())
    assert rep["seed"] == 77


def test_approx_report_differs_across_seeds_only_in_seed_field(workdir):
    args = ["approx", "--function", "f_invz.json", "--region", "k_annulus.json", "--eps", "1e-9"]
    runs = [
        (["--seed", "1"], None, 1),
        (["--seed", "99"], None, 99),
        ([], {"BCAPPROX_SEED": "5"}, 5),
    ]
    reports = []
    for flags, env, seed in runs:
        r = run_cli([*args, *flags, "--out", "rep.json"], workdir, env_extra=env)
        assert r.returncode == 0, r.stderr
        rep = json.loads((workdir / "rep.json").read_text())
        assert rep.pop("seed") == seed
        reports.append(rep)
    assert reports[0] == reports[1] == reports[2]
