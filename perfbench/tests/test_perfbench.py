"""Tests of the benchmark itself (not of bcapprox).

    python3 -m pytest -q perfbench/tests

Corrupted outputs must be counted as failures, and self times must come
out of a known span tree.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bcapprox import cli  # noqa: E402


def _run_jobs(jobs):
    runner = run.Runner(cold=False, tracer=None, wd=None)
    return {job.name: runner.run(job, None)[:3] for job in jobs}


@pytest.fixture(scope="module")
def converge(tmp_path_factory):
    jobs = workloads.generate("fit-converge", 7, tmp_path_factory.mktemp("fc"))[:2]
    return jobs, _run_jobs(jobs)


def _measured(jobs, refs, override=None):
    return [(job.name, (override or {}).get(job.name, refs[job.name])) for job in jobs for _ in range(3)]


def test_clean_run_has_no_failures(converge):
    jobs, refs = converge
    assert run.tally(jobs, refs, _measured(jobs, refs)) == (0, {})


def test_perturbed_coefficient_is_counted(converge):
    jobs, refs = converge
    rc, out, err = refs[jobs[0].name]
    rep = json.loads(out)
    rep["approximant"]["r1"]["poly"][2][0] += 1e-6
    bad = dict(refs, **{jobs[0].name: (rc, json.dumps(rep), err)})
    failed, reasons = run.tally(jobs, bad, _measured(jobs, bad))
    assert failed == 3
    assert "boundary error" in reasons[jobs[0].name]


def test_wrong_exit_code_is_counted(converge):
    jobs, refs = converge
    rc, out, err = refs[jobs[1].name]
    failed, reasons = run.tally(jobs, refs, _measured(jobs, refs, {jobs[1].name: (1, out, err)}))
    assert failed == 3
    assert jobs[1].name in reasons
    bad = dict(refs, **{jobs[1].name: (1, out, err)})
    failed, reasons = run.tally(jobs, bad, _measured(jobs, bad))
    assert failed == 3 and "exit code 1" in reasons[jobs[1].name]


def test_one_byte_report_change_is_counted(converge):
    jobs, refs = converge
    rc, out, err = refs[jobs[0].name]
    i = out.index('"seed":') + len('"seed":')
    changed = out[:i] + ("2" if out[i] != "2" else "3") + out[i + 1:]
    assert len(changed) == len(out)
    failed, reasons = run.tally(jobs, refs, _measured(jobs, refs, {jobs[0].name: (rc, changed, err)}))
    assert failed == 3
    assert reasons[jobs[0].name] == "output differs from its warm-up reference"


def test_series_oracle_rejects_a_wrong_area(tmp_path):
    job = [j for j in workloads.generate("series-large", 3, tmp_path) if "d1024-area" in j.name][0]
    rc, out, err = _run_jobs([job])[job.name]
    assert run.oracle.check(job, rc, out, err) is None
    rep = json.loads(out)
    rep["value"]["a2"] *= 1 + 1e-6
    assert "area sum" in run.oracle.check(job, rc, json.dumps(rep), err)


def test_self_times_of_a_synthetic_span_tree():
    # a [0, 10] with children b [1, 3] and c [2, 4] (overlapping: union 3)
    # and d [5, 6]; b has a child e [1.5, 2.5]
    spans = [
        ["approx.fit_slot", 0.0, 10.0, -1, 0],
        ["regions.sample_region", 1.0, 3.0, 0, 0],
        ["funcspec.evaluate", 2.0, 4.0, 0, 0],
        ["approx.eval", 5.0, 6.0, 0, 0],
        ["jsonio.load_path", 1.5, 2.5, 1, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 1.0])
    m = tracer.layer_metrics(spans, {}, n_jobs=2, job_s=20.0)
    assert m["approx.fit_slot.self_ms"] == pytest.approx(3000.0)
    assert m["approx.fit_slot.ms"] == pytest.approx(5000.0)
    assert m["share.fit_slot_self"] == pytest.approx(0.3)


def test_tracer_rebinds_every_import_of_a_function(converge):
    jobs, _ = converge
    t = tracer.Tracer()
    t.install()
    try:
        from bcapprox import approx, regions

        assert approx.sample_region is regions.sample_region
        t.enabled = True
        assert cli.main(jobs[0].argv) == 0
    finally:
        t.enabled = False
    names = {s[0] for s in t.spans}
    assert {"cli.main", "approx.approximate", "approx.fit_slot", "regions.sample_region",
            "funcspec.evaluate", "approx.eval", "jsonio.load_path", "jsonio.dump_path"} <= names
    # nested Expr.evaluate calls record only the outermost span
    evals = [s for s in t.spans if s[0] == "funcspec.evaluate"]
    assert all(t.spans[s[3]][0] != "funcspec.evaluate" for s in evals)


def test_tail_percentile_keeps_ten_jobs_beyond():
    xs = [float(i) for i in range(100)]
    value, pct, beyond = run.tail(xs)
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail(xs[:12])[1] == 50.0
