"""Spans at cordspec's module boundaries, recorded from outside the program.

``Tracer.install`` replaces public functions of the ``cordspec`` modules with
wrappers, in the defining module and in every module that imported them by
name.  A timed wrapper records a span: calls, inclusive time and self time
(inclusive minus the time of timed spans it caused), keyed by the span that
caused it.  Spans are aggregated in memory per (parent, name) and written
out once, when the worker ends.  For a generator only the time inside
``next()`` is counted.  Functions called hundreds of thousands of times
(Moebius composition, horoball images, geodesic points) are only counted,
so that tracing does not swamp the time it measures.

A boundary function that a version of cordspec no longer has is listed as
absent instead of failing the traced run.
"""

import sys
import time
from collections import Counter

# (module, attribute, kind); kind is "timed", "generator" or "counted".
TARGETS = [
    ("cli", "run_verify", "timed"),
    ("cli", "run_spectrum", "timed"),
    ("cli", "run_index", "timed"),
    ("cli", "run_torus", "timed"),
    ("cli", "run_triangle", "timed"),
    ("isometry_group", "enumerate_elements", "generator"),
    ("isometry_group", "double_coset_canonical", "timed"),
    ("isometry_group", "Moebius.compose", "counted"),
    ("isometry_group", "image_horoball", "counted"),
    ("cord_engine", "canonical_classes", "timed"),
    ("cord_engine", "max_embedded_height", "timed"),
    ("cord_engine", "enumerate_cords", "timed"),
    ("triangle_geometry", "triangle_catalog", "timed"),
    ("variational", "hessian", "timed"),
    ("variational", "index_nullity", "timed"),
    ("variational", "smallest_eigenvalue", "timed"),
    ("variational", "constant_chord_hessian", "timed"),
    ("torus_knot_h2r", "enumerate_surface_cords", "timed"),
    ("flow_integrator", "integrate_flow", "timed"),
    ("flow_integrator", "shoot_neumann", "timed"),
    ("hyperbolic_core", "geodesic_point", "counted"),
]

LAYERS = ["cli", "isometry_group", "cord_engine", "variational",
          "flow_integrator", "hyperbolic_core", "triangle_geometry",
          "torus_knot_h2r"]


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, time covered by child spans]
        self.spans = {}  # (parent, name) -> [calls, inclusive_s, self_s]
        self.counts = Counter()  # "<name>.calls", "<name>.items", ...
        self.errors = Counter()  # (name, exception type) -> raises
        self.absent = []

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except Exception as e:
            self.errors[(name, type(e).__name__)] += 1
            raise
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += dt
            rec = self.spans.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - frame[1]

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            out = self._call(name, fn, args, kwargs)
            if isinstance(out, list):
                self.counts[name + ".items"] += len(out)
            return out
        return wrapper

    def generator(self, name, fn):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            self.counts[name + ".calls"] += 1
            return self._drive(name, parent, fn(*args, **kwargs))
        return wrapper

    def _drive(self, name, parent, gen):
        while True:
            try:
                item = self._call(name, next, (gen,), {})
            except StopIteration:
                return
            self.counts[f"{name}.yielded"] += 1
            self.counts[f"{name}.yielded.under.{parent}"] += 1
            yield item

    def counted(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == "cordspec" or n.startswith("cordspec.")}
        for modname, attr, kind in TARGETS:
            name = f"{modname}.{attr}"
            owner = mods.get("cordspec." + modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapped = getattr(self, kind)(name, orig)
            setattr(owner, leaf, wrapped)
            if not path:  # re-exported module functions
                for m in mods.values():
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)

    def report(self) -> dict:
        return {"spans": [[p, n, c, s, own] for (p, n), (c, s, own)
                          in sorted(self.spans.items(), key=str)],
                "counts": dict(self.counts),
                "errors": [[n, e, k] for (n, e), k in self.errors.items()],
                "absent": self.absent}


def merge(reports) -> dict:
    """Sum the trace reports of the processes of one iteration."""
    spans, counts, errors, absent = {}, Counter(), Counter(), set()
    for r in reports:
        for p, n, c, s, own in r["spans"]:
            rec = spans.setdefault((p, n), [0, 0.0, 0.0])
            rec[0] += c
            rec[1] += s
            rec[2] += own
        counts.update(r["counts"])
        for n, e, k in r["errors"]:
            errors[(n, e)] += k
        absent.update(r["absent"])
    return {"spans": spans, "counts": counts, "errors": errors,
            "absent": sorted(absent)}


def span_totals(merged, name) -> tuple:
    """(calls, inclusive seconds) of a span over all its parents."""
    calls = s = 0
    for (_, n), (c, t, _) in merged["spans"].items():
        if n == name:
            calls += c
            s += t
    return calls, s


def self_seconds(merged) -> dict:
    """Self time per layer module, summed over its timed spans."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (_, n), (_, _, own) in merged["spans"].items():
        out[n.split(".")[0]] += own
    return out
