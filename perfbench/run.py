"""cordspec benchmark: workloads of user commands in a closed loop.

Usage:
  python3 perfbench/run.py --workload {spectrum,torus,index_flow,index,flow}
                           --seed N --seconds S --trace {0,1}

One client runs the workload's commands one after another, each in a fresh
interpreter (perfbench/worker.py), and starts the next workload iteration
only after the previous one ended, for as long as another iteration still
fits in ``--seconds``.  Every output is checked against the independent
oracle in perfbench/oracle.py outside the timed region.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  A record with the machine
block, every command's result counts and every sample is written to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import csv
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "cordspec")
PRESENTATION = os.path.join(PACKAGE, "data", "figure_eight.json")
OUT = os.path.join(HERE, "out")

# Fixed on every side of a comparison: at the library default of 2 BLAS
# threads, two runs of index took 6.7 s and 9.1 s.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "CORDSPEC_THREADS": "1",
             "PYTHONHASHSEED": "0"}
WORKER_TIMEOUT_S = 150
# The speed probe's mean sample (worker.SpeedProbe) on the reference
# machine, a 2-vCPU VM; norm_cpu_s reads about like cpu_s there.
SPEED_REF_S = 150e-6
MIN_SETUP_SAMPLES = 7

A0 = 1.2
SUITES = ["curvature", "cylinder", "flow", "forms", "mean_curvature", "psh"]
VERIFY_TOL = {"curvature": 1e-6, "cylinder": 1e-12, "flow": 1e-5,
              "forms": 1e-5, "mean_curvature": 1e-8, "psh": 1e-5}
FLOW_STATE = [0.3, -0.2, 1.1, 0.4, -0.3, 0.5]
FLOW_T, FLOW_DT = 2.0, 1e-3
FLOW_STEPS = round(FLOW_T / FLOW_DT)
# Shooting converges on every word up to this length; it fails on some
# longer ones, the known defect, which only the traced run's probe shoots.
SHOT_MAX_LENGTH = 3.25
PROBE_MAX = 60


def reduced_words(max_len):
    """Every freely reduced word in a, b, A, B of length 1 to max_len."""
    out, layer = [], [""]
    for _ in range(max_len):
        layer = [w + c for w in layer for c in "abAB"
                 if not (w and w[-1] == c.swapcase())]
        out += layer
    return out


def flow_words(seed, pres):
    """The words of length 1-6 (1456 words) in an order drawn from the seed:
    every nondegenerate one up to SHOT_MAX_LENGTH (1126 words), and the
    first PROBE_MAX longer ones, for the defect probe.  19 of the 1126 words
    cost 30 to 50 times the median shot, so any smaller sample would make
    the work depend on the seed; a sample of 1000 still moved it by 17%
    between seeds.  The seed fixes the order of the shots and the probe."""
    words = reduced_words(6)
    random.Random(seed).shuffle(words)
    ells = [pres.cord_length(w, A0) for w in words]  # NaN: degenerate
    shots = [w for w, ell in zip(words, ells) if ell <= SHOT_MAX_LENGTH]
    probe = [w for w, ell in zip(words, ells) if ell > SHOT_MAX_LENGTH]
    return shots, probe[:PROBE_MAX]


WORKLOADS = ("spectrum", "torus", "index_flow", "index", "flow")


def workload_jobs(name, seed, pres):
    """The workload's commands, one process each, and the probe jobs.
    ``index_flow`` runs ``index`` and then ``flow``; the two are also
    runnable alone."""
    if name == "index_flow":
        index, _ = workload_jobs("index", seed, pres)
        flow, probe = workload_jobs("flow", seed, pres)
        return index + flow, probe
    if name == "spectrum":
        return [{"cmd": "spectrum", "height": A0, "cutoff": 5.0,
                 "out": os.path.join(OUT, "spectrum.json")},
                {"cmd": "triangle", "height": A0, "cutoff": 4.0,
                 "words": ["b", "b", "BB"]}], []
    if name == "index":
        return [{"cmd": "index", "cutoff": 2.5, "mesh": 256},
                {"cmd": "index_constant", "mesh": 256}], []
    if name == "torus":
        return [{"cmd": "torus", "p": 2, "q": 5, "max_length": 7.0,
                 "out": os.path.join(OUT, "torus")}], []
    shots, probe = flow_words(seed, pres)
    flow = {"cmd": "flow", "state": FLOW_STATE, "T": FLOW_T, "dt": FLOW_DT,
            "height": A0}
    return [dict(flow, suites=SUITES, words=shots)], \
        [{"cmd": "flow", "height": A0, "words": probe}]


# ------------------------------------------------------------------ checks

def _close(x, y, tol):
    return x is not None and abs(x - y) <= tol


def check_spectrum(job, out, pres):
    rep = out["report"]
    with open(job["out"]) as f:
        entries = json.load(f)["entries"]
    bad = []
    if out["code"] != 0 or rep["classes"] != len(entries):
        bad.append("report does not match the written spectrum")
    for e in entries:
        ell = e["length"]
        if not (ell <= job["cutoff"] + 1e-12
                and _close(ell, pres.cord_length(e["class_word"], A0), 1e-9)
                and _close(e["energy"], 0.5 * ell * ell, 1e-9)
                and _close(e["action"], -0.5 * ell * ell, 1e-9)):
            bad.append(f"spectrum entry {e['class_word']} is wrong")
            break
    words = [e["class_word"] for e in entries]
    return len(entries), {"classes": len(entries)}, bad, \
        {"duplicate_centers": oracle.duplicate_centers(pres, words)}


def check_triangle(job, out, pres):
    tris = out["report"]["triangles"]
    want = [pres.cord_length(w, A0) for w in job["words"]]
    bad = [] if out["code"] == 0 and tris else ["no triangle"]
    for t in tris:
        if not all(_close(s, w, 1e-9) for s, w in zip(t["side_lengths"], want)):
            bad.append(f"triangle sides {t['side_lengths']} != {want}")
            break
    return len(tris), {"triangles": len(tris)}, bad, {}


def check_index(job, out, pres):
    rows = out["report"]["rows"]
    bad = [] if out["code"] == 0 and rows else ["no index rows"]
    if any(r["index"] != 0 or r["nullity"] != 0 for r in rows):
        bad.append("a cord has nonzero index or nullity")
    lengths = {round(r["length"], 9) for r in rows}
    return len(rows), {"rows": len(rows)}, bad, \
        {"distinct_lengths": len(lengths)}


def check_index_constant(job, out, pres):
    cc = out["report"]["constant_chord"]
    ok = out["code"] == 0 and cc == {"kernel": 2, "cokernel": 2}
    return 0, {"kernel": cc["kernel"], "cokernel": cc["cokernel"]}, \
        [] if ok else [f"constant chord {cc}"], {}


def check_torus(job, out, pres):
    with open(job["out"] + "_families.csv", newline="") as f:
        lengths = [float(r["length"]) for r in csv.DictReader(f)]
    counts = out["report"]["rank_table"]["counts"]
    bad = [] if out["code"] == 0 and lengths else ["no torus families"]
    if max(lengths, default=0.0) > job["max_length"] + 1e-9:
        bad.append("a torus family is longer than the cutoff")
    if counts != {"0": len(lengths), "1": len(lengths)}:
        bad.append(f"rank counts {counts} != {len(lengths)} families")
    return len(lengths), {"families": len(lengths)}, bad, {}


def check_verify(job, out, pres):
    bad = [f"suite {n} failed" for n, s in out["suites"].items()
           if s is not None and not (s["code"] == 0 and s["suite"]["pass"]
                                     and s["suite"]["max_residual"]
                                     <= VERIFY_TOL[n])]
    return 0, {"suites": len(out["suites"])}, bad, {}


def check_flow(job, out, pres):
    bad = check_verify(job, out, pres)[2] if job.get("suites") else []
    if out["end_state"] is not None:
        drift = abs(oracle.hamiltonian(out["end_state"])
                    - oracle.hamiltonian(job["state"]))
        if drift > VERIFY_TOL["flow"]:
            bad.append(f"Hamiltonian drift {drift:.3g}")
    for w, ell in zip(job["words"], out["lengths"]):
        if ell is not None and not _close(ell, pres.cord_length(w, A0), 1e-8):
            bad.append(f"shot {w} length {ell} != closed form")
    shots = len(job["words"])
    return shots, {"shots": shots,
                   "converged": sum(x is not None for x in out["lengths"])}, \
        bad, {}


# Each check returns (result items, result counts, failed checks, counts
# reported but not gated).
CHECKS = {"spectrum": check_spectrum, "triangle": check_triangle,
          "index": check_index, "index_constant": check_index_constant,
          "torus": check_torus, "flow": check_flow}


# -------------------------------------------------------------- processes

def spawn(job):
    """Run one worker; returns (set-up wall seconds, parsed output)."""
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {job['cmd']} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return res["imported"] - t0, res


def run_iteration(jobs, pres, trace):
    """One pass over the workload's commands, each in its own process."""
    it = {"wall_s": 0.0, "op_cpu": [], "op_norm": [], "speed_s": [],
          "items": 0, "attempted": 0,
          "failed": 0, "errors": [], "problems": [], "counts": {},
          "reported": {}, "setup": [], "setup_wall": [], "rss_mb": 0.0,
          "ops": {}, "traces": []}
    for job in jobs:
        setup, res = spawn(dict(job, trace=trace))
        it["setup"].append(res["imported_cpu"])
        it["setup_wall"].append(setup)
        it["rss_mb"] = max(it["rss_mb"], res["rss_mb"])
        it["speed_s"].append(res["speed"]["mean_s"])
        speed = SPEED_REF_S / res["speed"]["mean_s"]
        for op in res["ops"]:
            it["wall_s"] += op["s"]
            it["op_cpu"].append(op["cpu"])
            it["op_norm"].append(op["cpu"] * speed)
            it["ops"][op["name"]] = it["ops"].get(op["name"], 0.0) + op["s"]
            if op["error"]:
                it["errors"].append(f"{op['name']}: {op['error']}")
        it["attempted"] += len(res["ops"])
        if res["out"].get("report", True) is None:  # the command raised
            items, counts, bad, reported = 0, {}, [], {}
        else:
            items, counts, bad, reported = CHECKS[job["cmd"]](
                job, res["out"], pres)
        it["items"] += items
        it["counts"][job["cmd"]] = counts
        it["reported"].update(reported)
        it["problems"] += bad
        it["failed"] += len(bad) + sum(1 for op in res["ops"] if op["error"])
        if res["trace"]:
            it["traces"].append(res["trace"])
    return it


def machine_block(seed, info):
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **info,
            "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"], "seed": seed}


# ---------------------------------------------------------------- metrics

def op_sum(iters, key):
    """Every iteration runs the same operations in the same order: the sum
    of each operation's median over the iterations."""
    return sum(statistics.median(op) for op in zip(*(it[key]
                                                    for it in iters)))


def end_to_end(iters, setup_samples, procs):
    """The bounded metrics.  ``norm_cpu_s`` is CPU time scaled by the speed
    the speed probe saw in the same process; see perfbench/README.md."""
    norm = op_sum(iters, "op_norm")
    return {
        "norm_cpu_s": (norm, "s"),
        "setup_s": (statistics.median(setup_samples) * procs, "s"),
        "items_per_s": (iters[0]["items"] / norm, "1/s"),
        "peak_rss_mb": (max(it["rss_mb"] for it in iters), "MB"),
    }


def unbounded(iters, setup_wall, procs):
    """Raw times, printed and recorded but not bounded."""
    return {
        "cpu_s": (op_sum(iters, "op_cpu"), "s"),
        "wall_s": (statistics.median(it["wall_s"] for it in iters), "s"),
        "setup_wall_s": (statistics.median(setup_wall) * procs, "s"),
        "speed_probe_us": (1e6 * statistics.median(
            p for it in iters for p in it["speed_s"]), "us"),
    }


FAILURE_TYPES = ("RuntimeError", "ValueError", "OverflowError", "other")


def failures(merged):
    """Raises of shoot_neumann by exception type."""
    out = dict.fromkeys(FAILURE_TYPES, 0)
    for (name, err), k in merged["errors"].items():
        if name == "flow_integrator.shoot_neumann":
            out[err if err in out else "other"] += k
    return out


def per_layer(traced, plain, probe, absent):
    """Per-layer metrics: medians over the traced iterations, the tracing
    overhead against the untraced ones, and the defect probe's failures.
    Metrics of an absent boundary function are left out."""
    rows = [layer_row(it) for it in traced]
    out = {k: (statistics.median(r[k][0] for r in rows), u)
           for k, (_, u) in rows[0].items()}
    t_wall = statistics.median(it["wall_s"] for it in traced)
    p_wall = statistics.median(it["wall_s"] for it in plain)
    out["trace.traced_wall_s"] = (t_wall, "s")
    out["trace.untraced_wall_s"] = (p_wall, "s")
    out["trace.overhead_s"] = (t_wall - p_wall, "s")
    sn = "flow_integrator.shoot_neumann"
    merged = tracer.merge(probe["traces"] if probe else [])
    out[sn + ".probe_calls"] = (tracer.span_totals(merged, sn)[0], "count")
    for e, k in failures(merged).items():
        out[f"{sn}.failed.{e}"] = (out[f"{sn}.failed.{e}"][0] + k, "count")
    out[sn + ".failed"] = (sum(out[f"{sn}.failed.{e}"][0]
                               for e in FAILURE_TYPES), "count")
    gone = tuple(a.replace("cli.run_", "cli.") + "." for a in absent)
    if {"isometry_group.enumerate_elements",
            "cord_engine.canonical_classes"} & set(absent):
        gone += ("cord_engine.classes_per_element",)
    return {k: v for k, v in out.items() if not k.startswith(gone)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_row(it):
    m = tracer.merge(it["traces"])
    out = {}

    def span(name, label=None, calls=True):
        c, s = tracer.span_totals(m, name)
        label = label or name
        if calls:
            out[label + ".calls"] = (c, "count")
        out[label + ".s"] = (s, "s")
        return c, s

    cnt = m["counts"]
    ee = "isometry_group.enumerate_elements"
    _, s = span(ee, calls=False)
    out[ee + ".yielded"] = (cnt[ee + ".yielded"], "count")
    out[ee + ".per_s"] = (_ratio(cnt[ee + ".yielded"], s), "1/s")
    span("isometry_group.double_coset_canonical")
    span("cord_engine.canonical_classes")
    out["cord_engine.classes_per_element"] = (_ratio(
        cnt["cord_engine.canonical_classes.items"],
        cnt[ee + ".yielded.under.cord_engine.canonical_classes"]), "ratio")
    for name in ("isometry_group.Moebius.compose",
                 "isometry_group.image_horoball",
                 "hyperbolic_core.geodesic_point"):
        out[name + ".calls"] = (cnt[name + ".calls"], "count")
    span("cord_engine.max_embedded_height")
    span("cord_engine.enumerate_cords")
    out["cord_engine.duplicate_centers"] = (
        it["reported"].get("duplicate_centers", 0), "count")
    span("triangle_geometry.triangle_catalog", calls=False)
    for name in ("hessian", "index_nullity", "smallest_eigenvalue"):
        span("variational." + name)
    span("variational.constant_chord_hessian", calls=False)
    out["variational.distinct_lengths"] = (
        it["reported"].get("distinct_lengths", 0), "count")
    out["cli.index.rows"] = (
        it["counts"].get("index", {}).get("rows", 0), "count")
    span("torus_knot_h2r.enumerate_surface_cords", calls=False)
    out["torus_knot_h2r.families"] = (
        cnt["torus_knot_h2r.enumerate_surface_cords.items"], "count")
    shots, s = span("flow_integrator.shoot_neumann")
    out["flow_integrator.shoot_neumann.s_per_call"] = (_ratio(s, shots), "s")
    for e, k in failures(m).items():
        out[f"flow_integrator.shoot_neumann.failed.{e}"] = (k, "count")
    out["hyperbolic_core.geodesic_point.per_shot"] = (_ratio(
        cnt["hyperbolic_core.geodesic_point.calls"], shots), "count")
    calls, s = span("flow_integrator.integrate_flow", calls=False)
    out["flow_integrator.integrate_flow.steps_per_s"] = (
        _ratio(calls * FLOW_STEPS, s), "1/s")
    for cmd in ("spectrum", "triangle", "index", "torus", "verify"):
        _, s = tracer.span_totals(m, f"cli.run_{cmd}")
        out[f"cli.{cmd}.s"] = (s, "s")
    for suite in SUITES:
        out[f"cli.verify.{suite}.s"] = (it["ops"].get(f"verify.{suite}", 0.0),
                                        "s")
    for layer, own in tracer.self_seconds(m).items():
        out[f"{layer}.self_s"] = (own, "s")
    return out


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")) or \
            not os.path.isfile(PRESENTATION):
        sys.exit(f"error: no cordspec sources under {PACKAGE}")
    os.makedirs(OUT, exist_ok=True)
    pres = oracle.Presentation(PRESENTATION)
    jobs, probe_jobs = workload_jobs(args.workload, args.seed, pres)

    start = time.monotonic()
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_iteration(jobs, pres, False))
        if args.trace:
            traced.append(run_iteration(jobs, pres, True))
        lap = time.monotonic() - t0
        if time.monotonic() - start + lap > args.seconds:
            break
    probe = run_iteration(probe_jobs, pres, True) \
        if args.trace and probe_jobs else None
    setup = [s for it in plain + traced for s in it["setup"]]
    setup_wall = [s for it in plain + traced for s in it["setup_wall"]]
    info = {}
    while len(setup) < MIN_SETUP_SAMPLES or not info:
        s, res = spawn({"cmd": "noop"})
        setup.append(res["imported_cpu"])
        setup_wall.append(s)
        info = res["out"]

    iters = plain + traced
    absent = sorted({a for it in iters + [probe or {"traces": []}]
                     for t in it["traces"] for a in t["absent"]})
    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    problems = sorted({p for it in iters + [probe or {"problems": []}]
                       for p in it["problems"]})
    if any(it["counts"] != iters[0]["counts"] for it in iters):
        problems.append("result counts differ between iterations")
    correct = not problems

    e2e = end_to_end(plain, setup, len(jobs))
    raw = unbounded(plain, setup_wall, len(jobs))
    metrics = per_layer(traced, plain, probe, absent) if args.trace else e2e
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_block(args.seed, info),
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "counts": iters[0]["counts"], "reported": iters[0]["reported"],
        "absent": absent,
        "samples": {"cpu_s": [sum(it["op_cpu"]) for it in plain],
                    "wall_s": [it["wall_s"] for it in plain],
                    "op_cpu": [it["op_cpu"] for it in plain],
                    "speed_probe_s": [it["speed_s"] for it in plain],
                    "setup_per_process_s": setup,
                    "setup_wall_per_process_s": setup_wall,
                    "ops_s": [it["ops"] for it in iters],
                    "errors": [it["errors"] for it in iters]},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "unbounded": {k: {"value": v, "unit": u}
                      for k, (v, u) in raw.items()},
    }
    path = os.path.join(
        OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    n = len(plain)
    samples = {"norm_cpu_s": n, "setup_s": len(setup), "items_per_s": n,
               "peak_rss_mb": n * len(jobs), "cpu_s": n, "wall_s": n,
               "setup_wall_s": len(setup),
               "speed_probe_us": sum(len(it["speed_s"]) for it in plain)}
    print(f"workload {args.workload}, seed {args.seed}: closed loop, "
          f"1 client, {n} untraced iteration(s)")
    for k, (v, u) in e2e.items():
        print(f"  {k:<12} {v:12.6g} {u:<4} median of {samples[k]}"
              if k != "peak_rss_mb" else
              f"  {k:<12} {v:12.6g} {u:<4} max of {samples[k]}")
    for k, (v, u) in raw.items():
        print(f"  {k:<12} {v:12.6g} {u:<4} median of {samples[k]}, "
              "not bounded")
    print(f"  {'error_rate':<12} {failed / attempted:12.6g} {'1':<4} "
          f"{failed} of {attempted} operations")
    for k, v in record["reported"].items():
        print(f"  {k:<12} {v:12} {'':<4} reported, not gated")
    for p in problems[:10]:
        print(f"  CHECK FAILED: {p}")
    if len(problems) > 10:
        print(f"  ... and {len(problems) - 10} more failed checks")
    for a in absent:
        print(f"  absent boundary function: {a}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
