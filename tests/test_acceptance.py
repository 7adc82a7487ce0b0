"""Acceptance gate: one test per shipped numerical guarantee.  Each test
records a single PASS/FAIL line, echoed in a terminal summary section after
the run (see conftest.pytest_terminal_summary)."""

import math
import time

import numpy as np
import pytest

import conftest
import oracles as orc

from cordspec import cord_engine as ce
from cordspec import flow_integrator as fl
from cordspec import torus_knot_h2r as tk
from cordspec import triangle_geometry as tg
from cordspec import variational as va
from cordspec.cli import run_torus
from cordspec.flow_integrator import CotangentState
from cordspec.hyperbolic_core import (PointH3, christoffel, christoffel_fd,
                                      riemann_fd)
from cordspec.isometry_group import INFINITY, Horoball, classify

A0 = 1.2


def report(num, desc, ok):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {desc}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def spectrum(fig8):
    return ce.enumerate_cords(fig8, A0, 4.0)


def test_criterion_01_curvature_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        x, y = rng.normal(size=2)
        q = PointH3(x, y, math.exp(rng.normal()))
        worst = max(worst, float(np.abs(christoffel(q.coords())
                                        - christoffel_fd(q.coords())).max()))
        X, Y = rng.normal(size=3), rng.normal(size=3)
        num = orc.inner(q, riemann_fd(q.coords(), X, Y, Y), X)
        den = orc.inner(q, X, X) * orc.inner(q, Y, Y) - orc.inner(q, X, Y) ** 2
        worst = max(worst, abs(num / den + 1.0))
    elapsed = time.perf_counter() - t0
    report(1, f"curvature identities (residual {worst:.2e}, {elapsed:.1f}s)",
           worst < 1e-6 and elapsed < 5.0)


def test_criterion_02_horosphere_mean_curvature():
    worst = max(abs(va.mean_curvature(z) - 1.0) for z in (0.1, 1.0, 10.0))
    report(2, f"horosphere mean curvature 1 (residual {worst:.2e})",
           worst <= 1e-8)


def test_criterion_03_z_profile(fig8, spectrum):
    worst_res, bound_ok = 0.0, True
    for w in spectrum.words:
        cord = orc.vertical_cord(fig8.evaluate(w), A0)
        worst_res = max(worst_res, orc.z_profile_residual(cord))
        f0, b0 = orc.z_profile(cord)
        bound_ok &= abs(b0) <= f0 + 1e-12
        ell = cord.length
        fmax = max(1.0 / orc.cord_point(cord, t).z
                   for t in np.linspace(0, 1, 17))
        bound_ok &= fmax <= f0 * math.cosh(ell) + abs(b0) * math.sinh(ell) \
            + 1e-10
    report(3, f"cosh/sinh height profile on {len(spectrum.words)} cords "
              f"(residual {worst_res:.2e})", worst_res <= 1e-8 and bound_ok)


def test_criterion_04_shooting_matches_closed_form(fig8):
    t0 = time.perf_counter()
    B0 = Horoball(INFINITY, A0)
    classes = [fig8.evaluate(w)
               for w in ce.canonical_classes(fig8, A0, 5.0).words[::40]]
    worst = 0.0
    for g in classes:
        cord = fl.shoot_neumann(B0, g)
        worst = max(worst, abs(cord.length - orc.cord_length(g, A0)))
    # uniqueness: perturbed starts (x, y, s, t) converge to the same cord
    g = classes[5]
    base = fl.shoot_neumann(B0, g)
    uniq = True
    for guess in ([0.2, 0.1, 0.5, -0.3], [-0.15, 0.2, 1.5, 0.4],
                  [0.0, 0.0, 0.2, 0.0]):
        c = fl.shoot_neumann(B0, g, initial_guess=guess)
        uniq &= abs(c.length - base.length) < 1e-8
    elapsed = time.perf_counter() - t0
    report(4, f"shooting vs closed form on every 40th class up to L = 5, "
              f"{len(classes)} in all (residual {worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-8 and uniq and elapsed < 60.0)


def test_criterion_05_morse_index(fig8):
    ok = True
    for ell in ce.canonical_classes(fig8, A0, 2.5).lengths:
        ok &= va.index_nullity(va.hessian(ell, A0, 256)) == (0, 0)
    ok &= va.constant_chord_hessian(1.0, N=256) == (2, 2)
    report(5, "index 0 / nullity 0 on all short cords; constant chord "
              "kernel = cokernel = 2", ok)


def test_criterion_06_first_variation():
    cord = orc.from_vertical(A0, 0j, 1.0)
    N = 32
    rng = np.random.default_rng(4)
    nodes = [orc.cord_point(cord, k / N) for k in range(N + 1)]
    nodes = [PointH3(q.x + 0.02 * rng.normal(), q.y + 0.02 * rng.normal(),
                     q.z * math.exp(0.02 * rng.normal()))
             if 0 < k < N else q for k, q in enumerate(nodes)]
    V = rng.normal(size=(N + 1, 3))
    V[0, 2] = V[-1, 2] = 0.0
    analytic = orc.first_variation(nodes, V)
    h = 1e-6

    def shifted(sign):
        return orc.path_energy([PointH3(*(q.coords() + sign * h * V[k]))
                                for k, q in enumerate(nodes)])

    fd = (shifted(1) - shifted(-1)) / (2 * h)
    rel = abs(analytic - fd) / max(1.0, abs(fd))
    report(6, f"first variation vs finite differences (rel {rel:.2e})",
           rel <= 1e-4)


def test_criterion_07_flow_conservation():
    s0 = CotangentState(PointH3(0.3, -0.2, 1.1), np.array([0.4, -0.3, 0.5]))
    h0 = fl.hamiltonian(s0)
    s1, path = fl.integrate_flow(s0, T=10.0, dt=1e-3, return_path=True)
    drift = abs(fl.hamiltonian(s1) - h0)
    res = fl.geodesic_residual(path, 1e-3)
    v0 = CotangentState(PointH3(0.0, 0.0, 1.0), np.array([0.0, 0.0, 1.0]))
    v1 = fl.integrate_flow(v0, T=1.0, dt=1e-4)
    vert = max(abs(v1.q.z - math.e), abs(v1.p[2] - 1.0 / math.e),
               abs(v1.q.x), abs(v1.q.y))
    report(7, f"flow: H drift {drift:.2e}, geodesic residual {res:.2e}, "
              f"vertical orbit error {vert:.2e}",
           drift <= 1e-5 and res <= 1e-6 and vert <= 1e-8)


def test_criterion_08_plurisubharmonic_value():
    rng = np.random.default_rng(31)
    worst = 0.0
    states = [CotangentState(PointH3(0.2, -0.1, 1.0),
                             np.array([0.3, -0.2, 0.4]))]
    for _ in range(99):
        x, y = rng.normal(size=2)
        z = math.exp(rng.normal(scale=0.7))
        states.append(CotangentState(PointH3(x, y, z), rng.normal(size=3)))
    for s in states:
        z = s.q.z
        worst = max(worst, abs(fl.plurisubharmonic_value(s.vector())
                               - (1.0 + z) / z**3))
    unit = abs(fl.plurisubharmonic_value(states[0].vector()) - 2.0)
    report(8, f"plurisubharmonic density (1+z)/z^3 on 100 states "
              f"(residual {worst:.2e})", worst <= 1e-5 and unit <= 1e-5)


def test_criterion_09_form_identities():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(30):
        x, y = rng.normal(size=2)
        z = math.exp(rng.normal(scale=0.7))
        s = CotangentState(PointH3(x, y, z), rng.normal(size=3))
        worst = max(worst,
                    max(fl.form_identity_residuals(s.vector()).values()))
    s = CotangentState(PointH3(0.4, -0.3, 1.3), np.array([0.2, 0.5, -0.4]))
    order_ok = True
    for key in ("phi_x_over_z", "vertical_coframe"):
        r2 = fl.form_identity_residuals(s.vector(), step=2e-2)[key]
        r1 = fl.form_identity_residuals(s.vector(), step=1e-2)[key]
        order_ok &= 3.4 < r2 / r1 < 4.6
    report(9, f"contact/symplectic form identities (residual {worst:.2e}, "
              "second-order convergence)", worst <= 1e-5 and order_ok)


def test_criterion_10_cylinder_metrics():
    cyl = orc.CylRho(2)
    grid = np.linspace(1e-4, 3.0, 10_000)
    rho_min = min(cyl.rho_second(float(a)) for a in grid)
    curv_ok = all(k <= 1e-14 for a in np.linspace(0.05, 3.0, 200)
                  for k in cyl.sectional_curvatures(float(a)))
    hi, hj = orc.CylRho(2), orc.CylRho(3)
    rng = np.random.default_rng(2)
    mono = True
    for a in np.concatenate([np.linspace(0.05, 1.5, 20),
                             np.linspace(2.0, 5.0, 20)]):
        g, gi = orc.cusp_metric(float(a)), orc.cyl_metric(hi, float(a))
        for _ in range(4):
            v = rng.normal(size=3)
            mono &= float(v @ g @ v) <= float(v @ gi @ v) + 1e-12
    for a in np.concatenate([np.linspace(0.05, 1.5, 15),
                             np.linspace(2.0, 2.5, 10),
                             np.linspace(3.0, 5.0, 15)]):
        gi, gj = orc.cyl_metric(hi, float(a)), orc.cyl_metric(hj, float(a))
        for _ in range(4):
            v = rng.normal(size=3)
            mono &= float(v @ gj @ v) <= float(v @ gi @ v) + 1e-12
    report(10, f"interpolating metrics: rho'' >= {rho_min:.1e}, K <= 0, "
               "monotone comparisons", rho_min >= -1e-12 and curv_ok and mono)


def test_criterion_11_torus_knot_complements():
    ok = True
    for p in (3, 5):
        poly = tk.build_polygon(p)
        ok &= abs(orc.angle_sum(poly) - 2 * math.pi) <= 1e-8
    for (p, q) in ((2, 3), (2, 5), (3, 4)):
        params = tk.TorusKnotParams(p, q)
        for fp in tk.face_pairings(params)[:-1]:
            ok &= classify(fp.h2) == "parabolic"
        counts = run_torus(p, q, "s3", 8.0)[1]["rank_table"]["counts"]
        ok &= counts["0"] == counts["1"] > 0
        ok &= set(counts) == {"0", "1"}
    ok &= tk.euler_char(tk.TorusKnotParams(2, 3)) == 1
    report(11, "torus-knot polygons, parabolic pairings, paired rank table",
           ok)


def test_criterion_12_truncated_triangles(fig8):
    catalog = tg.triangle_catalog(fig8, A0, 4.0, ("b", "b", "BB"))
    lb = orc.cord_length(fig8.evaluate("b"), A0)
    lbb = orc.cord_length(fig8.evaluate("bb"), A0)
    ok = len(catalog) >= 1
    worst_plane, worst_area, worst_side, worst_arc = 0.0, 0.0, 0.0, 0.0
    for hexa in catalog:
        geo = orc.hexagon_of(hexa, A0)
        g = orc.reduction_to_vertical_plane(*(B.center for B in geo.horoballs))
        worst_plane = max(worst_plane, orc.plane_defect(g, geo.sides))
        worst_area = max(worst_area,
                         abs(hexa.area - (math.pi - sum(hexa.arc_lengths))))
        # area = pi - sum(arcs) by construction, so the arcs are checked
        # against their closed form in the side lengths
        worst_arc = max([worst_arc] + [
            abs(a - b) for a, b in zip(hexa.arc_lengths,
                                       orc.penner_arcs(hexa.side_lengths))])
        s = sorted(hexa.side_lengths)
        worst_side = max(worst_side, abs(s[0] - lb), abs(s[1] - lb),
                         abs(s[2] - lbb))
    report(12, f"truncated triangles: coplanar {worst_plane:.2e}, "
               f"Gauss-Bonnet {worst_area:.2e}, Penner arcs {worst_arc:.2e}, "
               f"side match {worst_side:.2e}",
           ok and worst_plane <= 1e-8 and worst_area <= 1e-6
           and worst_arc <= 1e-12 and worst_side <= 1e-7)
