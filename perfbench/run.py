"""bcapprox benchmark: drive the public CLI as a closed loop from one client.

    python3 perfbench/run.py --workload fit-converge --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 12

A run generates its workload's inputs from the seed, runs every job once
as the warm-up (these outputs are the byte-identity references), then
cycles through the job list in whole cycles until --seconds have passed,
one job at a time.  In-process workloads call bcapprox.cli.main(argv);
cli-cold starts one `python -m bcapprox` child per job.  Every job is
checked: its exit code, byte identity with its reference, and the oracle
verdict on that reference (perfbench/oracle.py).

The last stdout line is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer metrics of
BENCHMARK.json with --trace 1 (a separate run with the span wrappers of
perfbench/tracer.py installed).  Lines before it name every metric with
its unit, the tail percentile, the fail ratio and the environment.
Scratch files and result records go under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# fresh interpreters timing `import bcapprox`, beside the in-process import
IMPORT_PROBES = 1
# a run stops mid-cycle only if one cycle is pathologically slow
HARD_STOP_FACTOR = 4

_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import bcapprox\n"
    "dt = time.perf_counter() - t\n"
    "mods = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
    "print(json.dumps([dt, len(sys.modules), len(mods)]))\n"
)


def child_env() -> dict:
    """Absolute PYTHONPATH to src, so children resolve bcapprox from any cwd;
    BCAPPROX_SEED unset, so the program's own default seed applies."""
    env = {k: v for k, v in os.environ.items() if k != "BCAPPROX_SEED"}
    env["PYTHONPATH"] = str(SRC)
    return env


def import_probe() -> list:
    res = subprocess.run([sys.executable, "-c", _PROBE], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 jobs beyond it, as
    (value, percentile, jobs beyond); the median when there are too few."""
    xs = sorted(durations)
    n = len(xs)
    i = n - 11
    if i + 1 <= n / 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def environment(seed: int) -> dict:
    import numpy as np

    commit = "unknown"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    blas = {}
    # numpy < 1.26 has no mode="dicts" (TypeError); layouts differ (KeyError)
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from threadpoolctl import threadpool_info
        threads = [(p.get("internal_api"), p.get("num_threads")) for p in threadpool_info()]
    except ImportError:  # without threadpoolctl, record what sets the BLAS pool size
        threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {
        "commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


class Runner:
    """Runs jobs either in process or as cold children, traced or not."""

    def __init__(self, cold: bool, tracer, wd: Path):
        self.cold = cold
        self.tracer = tracer
        self.wd = wd
        self.env = child_env()

    def run(self, job, key) -> tuple[int, str, str, float]:
        """One job: (exit code, report or stdout text, stderr text, seconds)."""
        if job.out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(job.out)
        if self.cold:
            rc, out, err, dt = self._run_cold(job, key)
        else:
            import bcapprox.cli

            so, se = io.StringIO(), io.StringIO()
            if self.tracer:
                self.tracer.job = key
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                t = perf_counter()
                try:
                    rc = bcapprox.cli.main(job.argv)
                except Exception:  # an escaped exception fails the job, as a traceback would
                    rc = -1
                    traceback.print_exc()
                dt = perf_counter() - t
            out, err = so.getvalue(), se.getvalue()
        if job.out:
            try:
                out = Path(job.out).read_text(encoding="utf-8")
            except FileNotFoundError:
                out = ""
        return rc, out, err, dt

    def _run_cold(self, job, key):
        spans = self.wd / "spans.json"
        spans.unlink(missing_ok=True)
        if self.tracer:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(spans), *job.argv]
        else:
            cmd = [sys.executable, "-m", "bcapprox", *job.argv]
        t = perf_counter()
        res = subprocess.run(cmd, cwd=self.wd, env=self.env, capture_output=True, text=True,
                             timeout=150)
        dt = perf_counter() - t
        if self.tracer and self.tracer.enabled and spans.exists():
            self.tracer.absorb(json.loads(spans.read_text()), key)
        return res.returncode, res.stdout, res.stderr, dt


def quality(jobs, refs) -> dict:
    """Fit-quality figures from the reference approx reports."""
    misses, terms = [], []
    for job in jobs:
        if job.check["kind"] != "approx":
            continue
        try:
            rep = json.loads(refs[job.name][1])
            eps = rep["target_eps"]
            errs = (rep["sup_error"]["a1"], rep["sup_error"]["a2"])
        except (ValueError, KeyError, TypeError):  # a failed job; tally() counts it
            continue
        for slot, err in zip((1, 2), errs):
            misses.append(max(0.0, math.log10(err / eps)) if err > 0 else 0.0)
            if err <= eps:
                terms.append(oracle.approximant_terms(rep["approximant"][f"r{slot}"]))
    return {
        "miss_log10": statistics.fmean(misses) if misses else 0.0,
        "approximant_terms": statistics.fmean(terms) if terms else 0.0,
    }


def job_medians_ms(measured: list, durations: list[float]) -> dict[str, float]:
    by_name: dict[str, list[float]] = {}
    for (name, _), dt in zip(measured, durations):
        by_name.setdefault(name, []).append(dt)
    return {name: 1000.0 * statistics.median(ds) for name, ds in by_name.items()}


def tally(jobs, refs: dict, measured: list) -> tuple[int, dict]:
    """Count failed measured jobs, with the first reason per job name.

    A measured job fails when its (exit code, output, stderr) differs from
    its warm-up reference, or when the oracle rejects that reference.
    """
    rejected = {}
    for job in jobs:
        try:
            reason = oracle.check(job, *refs[job.name])
        except ArithmeticError as exc:
            reason = f"oracle: {exc}"
        if reason:
            rejected[job.name] = reason
    failed, failures = 0, {}
    for name, result in measured:
        reason = "output differs from its warm-up reference" if result != refs[name] else rejected.get(name)
        if reason:
            failed += 1
            failures.setdefault(name, reason)
    return failed, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    os.environ.pop("BCAPPROX_SEED", None)
    t = perf_counter()
    import bcapprox
    import bcapprox.cli  # noqa: F401
    import_times = [perf_counter() - t]
    if Path(bcapprox.__file__).resolve().parent != SRC / "bcapprox":
        print(f"bcapprox imported from {bcapprox.__file__}, not {SRC}", file=sys.stderr)
        return 3

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()

    probes = [import_probe() for _ in range(IMPORT_PROBES)]
    import_times += [p[0] for p in probes]

    wd = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    try:
        t = perf_counter()
        jobs = workloads.generate(workload, seed, wd)
        gen_s = perf_counter() - t
        runner = Runner(workload == "cli-cold", tracer, wd)

        # warm-up pass: these outputs are the byte-identity references
        refs = {}
        ref_s = 0.0
        for job in jobs:
            rc, out, err, dt = runner.run(job, None)
            refs[job.name] = (rc, out, err)
            ref_s += dt
            if "rational_out" in job.check:
                t = perf_counter()
                rational = json.loads(out)["approximant"] if rc == 0 else {}
                Path(job.check["rational_out"]).write_text(json.dumps(rational), encoding="utf-8")
                ref_s += perf_counter() - t
        setup_s = statistics.median(import_times) + gen_s + ref_s

        # measured phase: whole cycles through the job list
        durations, measured, cycle_rates, attempted = [], [], [], 0
        if tracer:
            tracer.enabled = True
        t0 = perf_counter()
        while True:
            tc, done = perf_counter(), attempted
            for job in jobs:
                rc, out, err, dt = runner.run(job, attempted)
                attempted += 1
                durations.append(dt)
                measured.append((job.name, (rc, out, err)))
                if perf_counter() - t0 >= HARD_STOP_FACTOR * seconds:
                    break
            cycle_rates.append((attempted - done) / (perf_counter() - tc))
            elapsed = perf_counter() - t0
            if elapsed >= seconds:
                break
        if tracer:
            tracer.enabled = False

        failed, failures = tally(jobs, refs, measured)

        usage = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
        tail_ms, tail_pct, beyond = tail(durations)
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": statistics.median(cycle_rates),
            "job_p50_ms": 1000.0 * statistics.median(durations),
            "job_tail_ms": 1000.0 * tail_ms,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        }
        info = {
            "workload": workload,
            "trace": int(trace),
            "fail_ratio": failed / attempted,
            "failures": failures,
            "tail_percentile": tail_pct,
            "tail_jobs_beyond": beyond,
            "job_p50_ms_by_name": job_medians_ms(measured, durations),
            "jobs": attempted,
            "cycles": attempted / len(jobs),
            "measured_s": elapsed,
            "setup_parts_s": {"import": import_times, "generate": gen_s, "warm_up": ref_s},
            "import_modules": probes[0][1],
            "import_scipy_modules": probes[0][2],
            **{f"approx.{k}": v for k, v in quality(jobs, refs).items()},
            "env": environment(seed),
        }
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        if tracer:
            metrics = tracing.layer_metrics(tracer.spans, tracer.counters, attempted, sum(durations))
            metrics.update({
                "import.bcapprox_s": statistics.median(import_times),
                "import.modules": float(probes[0][1]),
                "import.scipy_modules": float(probes[0][2]),
                "approx.miss_log10": info["approx.miss_log10"],
                "approx.approximant_terms": info["approx.approximant_terms"],
                "trace.jobs_per_s": statistics.median(cycle_rates),
            })
            (results / f"spans-{workload}-s{seed}.json").write_text(json.dumps(tracer.to_json()))
        units = spec_units("per_layer" if trace else "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print("info " + json.dumps(info))
        line = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        (results / f"{workload}-s{seed}-t{int(trace)}.json").write_text(
            json.dumps(dict(line, info=info), indent=1))
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def spec_units(kind: str) -> dict:
    """Metric name -> unit of one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each in a fresh process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        table[name] = {}
        for trace in (0, 1):
            res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                  "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                                 capture_output=True, text=True, timeout=600)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return res.returncode
            table[name][trace] = json.loads(res.stdout.splitlines()[-1])
    summary = {}
    for name, runs in table.items():
        plain, traced = runs[0], runs[1]
        row = {k: v["value"] for k, v in plain["metrics"].items()}
        row["fail_ratio"] = plain["failed"] / plain["attempted"]
        traced_rate = traced["metrics"]["trace.jobs_per_s"]["value"]
        row["trace_overhead"] = 1.0 - traced_rate / row["jobs_per_s"]
        summary[name] = {"untraced": plain, "traced": traced, "row": row}
        print(f"[{name}] correct={plain['correct']} attempted={plain['attempted']} failed={plain['failed']}")
        for metric in spec["end_to_end"]:
            print(f"  {metric['name']} = {row[metric['name']]:.6g} {metric['unit']}")
        print(f"  fail_ratio = {row['fail_ratio']:.6g} ratio")
        print(f"  trace_overhead = {row['trace_overhead']:.4g} (1 - traced/untraced jobs_per_s)")
        for key in ("share.fit_slot_self", "share.sample_region", "share.series_transforms"):
            print(f"  {key} = {traced['metrics'][key]['value']:.4g} of job time")
    out = WORK / "results" / f"all-s{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"results written to {out.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "bcapprox" / "__init__.py").is_file():
        print(f"no bcapprox sources under {SRC}", file=sys.stderr)
        return 3
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
