"""Re-measure the ROADMAP's baseline figures on this machine.

    python3 perfbench/baseline.py [--repeats 5]

Prints, as medians over --repeats runs: a cold `python -m bcapprox approx`
T4 job (exp/exp on the unit bidisk, eps 1e-8); `import bcapprox` in a fresh
interpreter; sqrt_transform and inversion_transform on a Koebe series at
N = 2048 (in process); and a T1 fit (exp/exp on the annulus 0.5 <= |z| <= 1
in both slots, eps 1e-10, in process).  NOTES.md sets them beside the
ROADMAP's numbers.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

from run import SRC, WORK, child_env, import_probe
from workloads import annulus, disk, exp_expr, koebe_coeffs, series_json


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeats", type=int, default=5)
    n = p.parse_args().repeats
    wd = WORK / "baseline"
    wd.mkdir(parents=True, exist_ok=True)
    try:
        (wd / "f.json").write_text(json.dumps({"f1": exp_expr(1), "f2": exp_expr(1)}))
        (wd / "k.json").write_text(json.dumps({"k1": disk(0j, 1.0), "k2": disk(0j, 1.0)}))
        argv = ["approx", "--function", str(wd / "f.json"), "--region", str(wd / "k.json"),
                "--eps", "1e-8", "--out", str(wd / "out.json")]
        cold = []
        for _ in range(n):
            t = perf_counter()
            subprocess.run([sys.executable, "-m", "bcapprox", *argv], env=child_env(), cwd=wd,
                           check=True, timeout=120)
            cold.append(perf_counter() - t)
        imports = [import_probe()[0] for _ in range(n)]

        sys.path.insert(0, str(SRC))
        from bcapprox import FunctionSpec, ProductCompact, approximate, exp, var
        from bcapprox.series import TruncatedSeries, inversion_transform, sqrt_transform

        f = TruncatedSeries.from_json(series_json(koebe_coeffs(1j, 2048), koebe_coeffs(-1, 2048)))
        t = perf_counter()
        g = sqrt_transform(f)
        sqrt_s = perf_counter() - t
        t = perf_counter()
        inversion_transform(g)
        inv_s = perf_counter() - t

        func = FunctionSpec(exp(var()), exp(var()))
        compact = ProductCompact.from_json({"k1": annulus(0j, 0.5, 1.0), "k2": annulus(0j, 0.5, 1.0)})
        t1 = []
        for _ in range(n):
            t = perf_counter()
            approximate(func, compact, 1e-10)
            t1.append(perf_counter() - t)
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    print(f"cold T4 approx: {statistics.median(cold):.3f} s (median of {n})")
    print(f"import bcapprox: {statistics.median(imports):.3f} s (median of {n})")
    print(f"N=2048 sqrt_transform + inversion_transform: {sqrt_s:.2f} + {inv_s:.2f} s")
    print(f"T1 annulus x annulus, eps 1e-10: {1000 * statistics.median(t1):.0f} ms (median of {n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
