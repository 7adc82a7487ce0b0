"""Command-line front end: verified-suite runner plus spectrum, index,
torus, and triangle subcommands with JSON/CSV artifacts.

Exit codes: 0 success, 1 numerical assertion failure, a search stopped on
its cap or a closed stdout, 2 I/O or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import cord_engine, flow_integrator, torus_knot_h2r, triangle_geometry
from . import variational
from .hyperbolic_core import PointH3, christoffel, christoffel_fd, riemann_fd
from .flow_integrator import CotangentState
from .isometry_group import (BudgetExceeded, CoverError, load_presentation,
                             verify_presentation)

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    height: str | float = "auto"
    cutoff: float = 4.0
    mesh_size: int = 256
    out_format: str = "json"
    tol: float | None = None  # overrides every verify suite's tolerance
    threads: int = 1  # read by nothing; perfbench/worker.py passes it

    def validate(self):
        """Check the fields, and store the cutoff and a numeric height as
        floats, so that an int prints as the float it is read as."""
        self.cutoff = float(self.cutoff)
        if self.height != "auto":
            try:
                self.height = float(self.height)
            except ValueError:
                raise ConfigError("height must be a number or 'auto'")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ConfigError("length cutoff must be positive and finite")
        if self.height != "auto" and not (math.isfinite(self.height)
                                          and self.height > 0):
            raise ConfigError("height must be positive and finite")
        n = self.mesh_size
        if n < 64 or (n & (n - 1)) != 0:
            raise ConfigError("mesh size must be a power of two >= 64")
        if self.out_format not in ("json", "csv"):
            raise ConfigError("format must be json or csv")


def _load_rep(path):
    if path is None:
        path = resources.files("cordspec").joinpath("data/figure_eight.json")
    try:
        rep = load_presentation(path)
        check = verify_presentation(rep)
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"cannot load holonomy file: {e}")
    if not check["ok"]:
        raise ConfigError("cannot load holonomy file: relator residuals "
                          f"{check['relator_residuals']}, failed checks "
                          f"{[k for k, v in check['flags'].items() if not v]}")
    return rep


def _resolve_height(height, rep):
    if height == "auto":
        return cord_engine.max_embedded_height(rep)
    return float(height)


# ---------------------------------------------------------------- verify

def _normal_rows(seed, n, m):
    """An (n, m) array of standard normal draws from random.Random(seed),
    filled row by row.  importlib.resources already loads the random module
    (through tempfile), while numpy.random would be imported on first use."""
    gauss = random.Random(seed).gauss
    return np.array([[gauss(0.0, 1.0) for _ in range(m)] for _ in range(n)])


def _suite_curvature():
    # per point: x, y, log z, then the components of X and of Y
    g = _normal_rows(7, 100, 9)
    q = np.column_stack([g[:, :2], [math.exp(t) for t in g[:, 2]]])
    X, Y, z2 = g[:, 3:6], g[:, 6:], q[:, 2] ** 2

    def inner(a, b):  # the metric at each point
        return np.einsum("ki,ki->k", a, b) / z2

    num = inner(riemann_fd(q, X, Y, Y), X)
    den = inner(X, X) * inner(Y, Y) - inner(X, Y) ** 2
    return max(float(np.abs(num / den + 1.0).max()),
               float(np.abs(christoffel(q) - christoffel_fd(q)).max()))


def _suite_mean_curvature():
    return max(abs(variational.mean_curvature(z0) - 1.0)
               for z0 in (0.1, 1.0, 10.0))


def _random_states(n, seed=11):
    """n cotangent states (x, y, z, p) as rows of an (n, 6) array, drawn
    state by state: x, y and p standard normal, log z normal of scale 0.7."""
    g = _normal_rows(seed, n, 6)
    g[:, 2] = [math.exp(0.7 * t) for t in g[:, 2]]
    return g


def _suite_forms():
    res = flow_integrator.form_identity_residuals(_random_states(30))
    return max(float(r.max()) for r in res.values())


def _suite_psh():
    v = _random_states(30, seed=13)
    z = v[:, 2]
    val = flow_integrator.plurisubharmonic_value(v)
    return float(np.abs(val - (1.0 + z) / z**3).max())


def _suite_flow():
    s0 = CotangentState(PointH3(0.3, -0.2, 1.1), np.array([0.4, -0.3, 0.5]))
    h0 = flow_integrator.hamiltonian(s0)
    s1, path = flow_integrator.integrate_flow(s0, T=2.0, dt=1e-3,
                                              return_path=True)
    drift = abs(flow_integrator.hamiltonian(s1) - h0)
    res = flow_integrator.geodesic_residual(path, 1e-3)
    return max(drift, res / 10.0)  # residual tolerance is 10x looser


def _suite_cylinder():
    # rho = e^{-B} with B' = A, so rho'' = (A^2 - A') rho >= 0 is the same
    # condition as K(da,dx) = A' - A^2 <= 0; the grid runs to a = 2, with 7
    # of its points in the cutoff collar (2 - EPS0, 2)
    cyl = flow_integrator.CylMetric(2)
    return max(0.0, *(k for a in np.linspace(0.05, 2.0, 400).tolist()
                      for k in cyl.sectional_curvatures(a)))


_SUITES = {
    "curvature": (_suite_curvature, 1e-6),
    "mean_curvature": (_suite_mean_curvature, 1e-8),
    "forms": (_suite_forms, 1e-5),
    "psh": (_suite_psh, 1e-5),
    "flow": (_suite_flow, 1e-5),
    "cylinder": (_suite_cylinder, 1e-12),
}


def run_verify(cfg: RunConfig, suites=None) -> tuple:
    cfg.validate()
    names = sorted(suites or _SUITES.keys())
    for n in names:
        if n not in _SUITES:
            raise ConfigError(f"unknown suite {n!r}")

    results = {}
    for name in names:
        fn, tol = _SUITES[name]
        tol = tol if cfg.tol is None else cfg.tol
        res = fn()
        results[name] = {"max_residual": res, "tolerance": tol,
                         "pass": bool(res <= tol)}
    ok = all(v["pass"] for v in results.values())
    report = {"subcommand": "verify", "ok": ok, "suites": results}
    _validate_verify_schema(report)
    return (EXIT_OK if ok else EXIT_ASSERT), report


def _validate_verify_schema(rep):
    assert isinstance(rep["ok"], bool)
    for v in rep["suites"].values():
        assert set(v) == {"max_residual", "tolerance", "pass"}
        assert isinstance(v["max_residual"], float)


# --------------------------------------------------------------- spectrum

def run_spectrum(cfg: RunConfig, out_path=None) -> tuple:
    cfg.validate()
    rep = _load_rep(cfg.input_path)
    a0 = _resolve_height(cfg.height, rep)
    try:
        spec = cord_engine.enumerate_cords(rep, a0, cfg.cutoff)
    except ValueError as e:
        raise ConfigError(str(e))
    if out_path:
        if cfg.out_format == "csv":
            spec.write_csv(out_path)
        else:
            spec.write_json(out_path)
    report = {"subcommand": "spectrum", "ok": True, "height": a0,
              "cutoff": cfg.cutoff, "classes": len(spec.words),
              "shortest": spec.lengths[0] if spec.lengths else None,
              "complete": True, "stats": spec.stats}
    _validate_scalar_schema(report, ("height", "cutoff"))
    return EXIT_OK, report


def _validate_scalar_schema(rep, float_keys):
    assert isinstance(rep["ok"], bool)
    for k in float_keys:
        assert isinstance(rep[k], float)


# ------------------------------------------------------------------ index

def run_index(cfg: RunConfig, constant_chord=False) -> tuple:
    cfg.validate()
    if constant_chord:
        a0 = 1.0  # the kernel is dim T = 2 at every height
        ker, coker = variational.constant_chord_hessian(a0, cfg.mesh_size)
        report = {"subcommand": "index", "ok": ker == 2 and coker == 2,
                  "constant_chord": {"kernel": ker, "cokernel": coker},
                  "mesh_size": cfg.mesh_size, "height": a0}
        return (EXIT_OK if report["ok"] else EXIT_ASSERT), report
    rep = _load_rep(cfg.input_path)
    a0 = _resolve_height(cfg.height, rep)
    try:
        classes = cord_engine.canonical_classes(rep, a0, cfg.cutoff)
    except ValueError as e:
        raise ConfigError(str(e))
    # at one height the Hessian depends on the cord only through its
    # length: one solve per length rounded to 9 digits, the key that orders
    # the rows, so float noise in the length neither splits it nor prints
    # two eigenvalues for it
    rows, spectra = [], {}
    for word, ell in zip(classes.words, classes.lengths):
        key = round(ell, 9)
        if key not in spectra:
            H = variational.hessian(ell, a0, cfg.mesh_size)
            spectra[key] = (*variational.index_nullity(H),
                            variational.smallest_eigenvalue(H))
        idx, nul, lam = spectra[key]
        rows.append({"class_word": word, "length": ell, "index": idx,
                     "nullity": nul, "min_eigenvalue": lam})
    ok = all(r["index"] == 0 and r["nullity"] == 0 for r in rows)
    report = {"subcommand": "index", "ok": ok, "height": a0,
              "cutoff": cfg.cutoff, "mesh_size": cfg.mesh_size, "rows": rows,
              "complete": True, "stats": classes.stats}
    return (EXIT_OK if report["ok"] else EXIT_ASSERT), report


# ------------------------------------------------------------------ torus

def run_torus(p, q, ambient, Lmax, out_prefix=None) -> tuple:
    cfg = RunConfig("torus", cutoff=Lmax)
    cfg.validate()
    Lmax = cfg.cutoff
    try:
        params = torus_knot_h2r.TorusKnotParams(p, q, ambient)
    except ValueError as e:
        raise ConfigError(str(e))
    fams = torus_knot_h2r.enumerate_surface_cords(params, Lmax)
    # each Morse-Bott S^1-family contributes one generator in degree 0 and
    # one in degree 1
    n = len(fams)
    report = {"subcommand": "torus", "ok": True,
              "params": {"p": p, "q": q, "ambient": ambient},
              "euler_char": torus_knot_h2r.euler_char(params),
              "rank_table": {"cutoff": Lmax, "counts": {"0": n, "1": n}}}
    if out_prefix:
        with open(f"{out_prefix}_ranks.json", "w") as f:
            json.dump(report, f, indent=1)
        with open(f"{out_prefix}_families.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["word", "source_cusp", "target_cusp", "length",
                        "shift"])
            for fam in fams:
                w.writerow([fam.word, fam.source_cusp, fam.target_cusp,
                            f"{fam.length:.12g}", fam.shift])
    return EXIT_OK, report


# --------------------------------------------------------------- triangle

def run_triangle(cfg: RunConfig, words, out_path=None) -> tuple:
    cfg.validate()
    if len(words) != 3:
        raise ConfigError("triangle needs exactly three class words")
    rep = _load_rep(cfg.input_path)
    a0 = _resolve_height(cfg.height, rep)
    try:
        catalog = triangle_geometry.triangle_catalog(rep, a0, cfg.cutoff,
                                                     tuple(words))
    except ValueError as e:
        raise ConfigError(str(e))
    data = [h.to_dict() for h in catalog]
    report = {"subcommand": "triangle", "ok": True, "height": a0,
              "cutoff": cfg.cutoff, "classes": list(words), "triangles": data}
    _validate_scalar_schema(report, ("height", "cutoff"))
    if out_path:
        with open(out_path, "w") as f:
            json.dump(report, f, indent=1)
    return EXIT_OK, report


# ------------------------------------------------------------------- main

def _build_parser():
    ap = argparse.ArgumentParser(prog="cordspec")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(s):
        # left out of the namespace when not given, so that index
        # --constant-chord can tell them apart; RunConfig has the defaults
        # (input: the figure-eight, height: auto, cutoff: 4.0)
        s.add_argument("--input", default=argparse.SUPPRESS,
                       dest="input_path", metavar="FILE",
                       help="holonomy JSON file")
        s.add_argument("--height", default=argparse.SUPPRESS)
        s.add_argument("--cutoff", type=float, default=argparse.SUPPRESS)
        return s

    v = sub.add_parser("verify")
    v.add_argument("--suite", action="append", default=None)
    v.add_argument("--tol", type=float, default=None)
    sp = common(sub.add_parser("spectrum"))
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    dest="out_format")
    sp.add_argument("--out", default=None)
    ix = common(sub.add_parser("index"))
    ix.add_argument("--constant-chord", action="store_true")
    ix.add_argument("--mesh-size", type=int, default=256)
    t = sub.add_parser("torus")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--ambient", choices=("s3", "s2xs1"), default="s3")
    t.add_argument("--max-length", type=float, default=8.0)
    t.add_argument("--out", default=None)
    tr = common(sub.add_parser("triangle"))
    tr.add_argument("classes", nargs=3)
    tr.add_argument("--out", default=None)
    return ap


def _cfg_from_args(args) -> RunConfig:
    """RunConfig from the subcommand's options; other fields default."""
    return RunConfig(subcommand=args.cmd, **{
        k: v for k, v in vars(args).items()
        if k in RunConfig.__dataclass_fields__})


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    unread = {"input_path": "--input", "height": "--height",
              "cutoff": "--cutoff"}
    if getattr(args, "constant_chord", False) and unread.keys() & vars(args):
        # the constant chord is the same at every height and reads no group
        ap.error("argument --constant-chord: not allowed with "
                 + ", ".join(o for k, o in unread.items() if k in vars(args)))
    try:
        if args.cmd == "torus":
            code, report = run_torus(args.p, args.q, args.ambient,
                                     args.max_length, out_prefix=args.out)
        else:
            cfg = _cfg_from_args(args)
            if args.cmd == "verify":
                code, report = run_verify(cfg, suites=args.suite)
            elif args.cmd == "spectrum":
                code, report = run_spectrum(cfg, out_path=args.out)
            elif args.cmd == "index":
                code, report = run_index(cfg,
                                         constant_chord=args.constant_chord)
            else:
                code, report = run_triangle(cfg, args.classes,
                                            out_path=args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceeded, CoverError) as e:
        # a flood or a torus walk that stopped on its cap, or a flood that
        # found no cover, has no proof that its list is complete, so none is
        # printed; the option asked for is valid, so this is no usage error
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ASSERT
    try:
        print(json.dumps(report, indent=1, default=float))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ASSERT
    return code


if __name__ == "__main__":
    sys.exit(main())
