"""The benchmark's worker contract: one small job of every kind that
perfbench/run.py runs, each in its own worker process, completes with no
failed operation and no failed check, and a traced run yields every
per-layer metric that BENCHMARK.json lists.  perfbench/ is imported as it
is."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = str(ROOT / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)  # run.py imports its siblings by name
    try:
        import run
    finally:
        sys.path.remove(PERFBENCH)
    return run


def small_jobs(bench, tmp_path):
    a0 = bench.A0
    return [
        {"cmd": "spectrum", "height": a0, "cutoff": 2.0,
         "out": str(tmp_path / "spectrum.json")},
        {"cmd": "triangle", "height": a0, "cutoff": 4.0,
         "words": ["b", "b", "BB"]},
        {"cmd": "index", "cutoff": 1.5, "mesh": 64},
        {"cmd": "index_constant", "mesh": 64},
        {"cmd": "torus", "p": 2, "q": 5, "max_length": 5.0,
         "out": str(tmp_path / "torus")},
        {"cmd": "flow", "state": bench.FLOW_STATE, "T": 0.1,
         "dt": bench.FLOW_DT, "height": a0, "suites": ["mean_curvature"],
         "words": ["b", "ab", "bab"]},
    ]


def run_small(bench, jobs, trace):
    it = bench.run_iteration(jobs, bench.oracle.Presentation(
        bench.PRESENTATION), trace)
    assert it["problems"] == []
    assert it["errors"] == [] and it["failed"] == 0
    # spectrum, triangle, index and index_constant, torus, then the verify
    # suite, the flow and three shots
    assert it["attempted"] == 10
    return it


def test_every_job_kind_passes_its_checks(bench, tmp_path):
    jobs = small_jobs(bench, tmp_path)
    it = run_small(bench, jobs, False)
    assert it["counts"]["flow"] == {"shots": 3, "converged": 3}
    assert all(it["counts"][job["cmd"]] for job in jobs)


def test_traced_run_yields_every_per_layer_metric(bench, tmp_path):
    it = run_small(bench, small_jobs(bench, tmp_path), True)
    # a traced boundary function that is missing takes its metrics out of
    # per_layer; a NaN would make the result line non-JSON
    absent = sorted({a for t in it["traces"] for a in t["absent"]})
    assert absent == []
    metrics = bench.per_layer([it], [it], None, absent)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in listed["per_layer"]} <= set(metrics)
    json.dumps({k: v for k, (v, _) in metrics.items()}, allow_nan=False)
