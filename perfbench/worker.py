"""One cordspec command in a fresh interpreter, as a user's command runs.

Usage: python3 perfbench/worker.py '<job JSON>'

The job names a command and its inputs.  The worker imports cordspec from
the checkout's ``src``, runs the command through the public ``cli.run_*`` or
library functions, times every call, and prints one JSON line: the
monotonic clock reading and the process's CPU time once imports finished
(the parent subtracts its spawn time from the first; the second is the CPU
time of interpreter start and import), each operation's wall and CPU time
and outcome, the speed probe's mean sample, the command's outputs for the
parent's checks, peak RSS, and, when the job asks for it, the trace of the
module boundaries.
"""

import json
import math
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import cordspec  # noqa: E402
from cordspec import cli, flow_integrator, isometry_group  # noqa: E402

IMPORTED = time.monotonic()
IMPORTED_CPU = time.process_time()

import resource  # noqa: E402

PROBE_INTERVAL_S = 0.02


def _reference():
    """A fixed piece of interpreter work of about 0.15 ms: complex
    arithmetic, a math call and dict stores, the mix of cordspec's loops."""
    a, b, acc, d = 1 + 0.5j, 0.3j, 0.0, {}
    for i in range(400):
        a = a * 0.999 + b * 0.001
        acc += math.sqrt(abs(a) + 1.0)
        d[i & 63] = acc
    return acc


class SpeedProbe:
    """Samples how fast the machine runs while the command runs.

    Every PROBE_INTERVAL_S of wall time a timer signal interrupts the
    command between two bytecodes and times ``_reference`` on the thread's
    CPU clock.  On a shared host the same command, doing the same work,
    takes 20% more or less CPU time from one process to the next; the
    reference's time moves with it.  ``spent`` is the CPU time the samples
    took, which ``Ops`` leaves out of the command's time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        _reference()
        dt = time.thread_time() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        while len(self.samples) < 10:  # a command shorter than 0.2 s
            self._sample(None, None)


class Ops:
    """Times each operation; a raise of any exception type is a failure."""

    def __init__(self, probe):
        self.records, self.probe = [], probe

    def run(self, name, fn, *args, **kwargs):
        t0, c0 = time.perf_counter(), time.process_time()
        p0 = self.probe.spent
        try:
            out = fn(*args, **kwargs)
            err = None
        except Exception as e:  # every raise is a failed operation
            out, err = None, type(e).__name__
        cpu = time.process_time() - c0 - (self.probe.spent - p0)
        self.records.append({"name": name, "s": time.perf_counter() - t0,
                             "cpu": cpu, "error": err})
        return out


def _cfg(**kw):
    return cli.RunConfig(subcommand="bench", threads=1, **kw)


def _command(ops, name, fn, *args, **kwargs):
    code_rep = ops.run(name, fn, *args, **kwargs)
    code, report = code_rep or (None, None)
    return {"code": code, "report": report}


def _spectrum(job, ops):
    return _command(ops, "spectrum", cli.run_spectrum,
                    _cfg(height=job["height"], cutoff=job["cutoff"]),
                    out_path=job["out"])


def _triangle(job, ops):
    return _command(ops, "triangle", cli.run_triangle,
                    _cfg(height=job["height"], cutoff=job["cutoff"]),
                    job["words"])


def _index(job, ops):
    return _command(ops, "index", cli.run_index,
                    _cfg(cutoff=job["cutoff"], mesh_size=job["mesh"]))


def _index_constant(job, ops):
    return _command(ops, "index_constant", cli.run_index,
                    _cfg(mesh_size=job["mesh"]), constant_chord=True)


def _torus(job, ops):
    return _command(ops, "torus", cli.run_torus, job["p"], job["q"], "s3",
                    job["max_length"], out_prefix=job["out"])


def _verify(job, ops):
    suites = {}
    for name in job["suites"]:
        code_rep = ops.run(f"verify.{name}", cli.run_verify, _cfg(),
                           suites=[name])
        suites[name] = code_rep and {"code": code_rep[0],
                                     "suite": code_rep[1]["suites"][name]}
    return {"suites": suites}


def _flow(job, ops):
    """The verify suites, if the job names them, then the flow and shots."""
    suites = _verify(job, ops)["suites"] if "suites" in job else None
    s1 = None
    if "T" in job:
        x = job["state"]
        s0 = flow_integrator.CotangentState(cordspec.PointH3(*x[:3]), x[3:])
        s1 = ops.run("integrate_flow", flow_integrator.integrate_flow, s0,
                     T=job["T"], dt=job["dt"])
    rep = isometry_group.load_presentation(
        os.path.join(SRC, "cordspec", "data", "figure_eight.json"))
    B0 = isometry_group.Horoball(isometry_group.INFINITY, job["height"])
    lengths = []
    for w in job["words"]:
        cord = ops.run("shoot", flow_integrator.shoot_neumann, B0,
                       rep.evaluate(w))
        lengths.append(None if cord is None else cord.length)
    return {"suites": suites,
            "end_state": None if s1 is None else list(s1.vector()),
            "lengths": lengths}


def _noop(job, ops):
    """Set-up only; reports the numerical stack for the machine block."""
    import numpy
    import scipy
    blas = {}
    for lib in (numpy, scipy):
        dep = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[lib.__name__] = f"{dep['name']} {dep['version']}"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


COMMANDS = {"noop": _noop, "spectrum": _spectrum,
            "triangle": _triangle, "index": _index,
            "index_constant": _index_constant, "torus": _torus,
            "flow": _flow}


def main():
    job = json.loads(sys.argv[1])
    if not os.path.abspath(cordspec.__file__).startswith(SRC + os.sep):
        sys.exit(f"cordspec imported from {cordspec.__file__}, not {SRC}")
    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    probe = SpeedProbe()
    ops = Ops(probe)
    probe.start()
    out = COMMANDS[job["cmd"]](job, ops)
    probe.stop()
    print(json.dumps({
        "imported": IMPORTED, "imported_cpu": IMPORTED_CPU,
        "ops": ops.records, "out": out,
        "speed": {"mean_s": sum(probe.samples) / len(probe.samples),
                  "samples": len(probe.samples)},
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer and tracer.report()}, default=float))


if __name__ == "__main__":
    main()
