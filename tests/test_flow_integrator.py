import itertools
import math
import re

import numpy as np
import pytest

from oracles import (CylRho, cord_length, cord_point, cusp_metric,
                     cyl_metric, vertical_cord)

from cordspec import cli
from cordspec import cord_engine as ce
from cordspec import flow_integrator as fl
from cordspec import hyperbolic_core as hc
from cordspec.flow_integrator import CotangentState
from cordspec.hyperbolic_core import PointH3, christoffel
from cordspec.isometry_group import INFINITY, Horoball, image_horoball


def rand_states(n, seed=3):
    """n states (x, y, z, p) as rows, drawn state by state: x, y and p
    standard normal, log z normal of scale 0.7 (the distribution of the
    verify suites' states)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x, y = rng.normal(size=2)
        z = math.exp(rng.normal(scale=0.7))
        out.append([x, y, z, *rng.normal(size=3)])
    return np.array(out)


# The tuple-based midpoint step that the scalar step replaced, kept as the
# reference: the vector field as a 6-tuple, and a zip over the six
# coordinates for every update.

def _rhs_loop(x, y, z, px, py, pz):
    """X_H = z^2 (p_x d_x + p_y d_y + p_z d_z) - z |p|^2 d_{p_z}."""
    z2 = z * z
    return (z2 * px, z2 * py, z2 * pz, 0.0, 0.0,
            -z * (px * px + py * py + pz * pz))


def _midpoint_step_loop(v, dt, tol=1e-13, max_iter=60):
    x, y, z, px, py, pz = v
    vn = tuple(a + dt * b for a, b in zip(v, _rhs_loop(x, y, z, px, py, pz)))
    for _ in range(max_iter):
        xn, yn, zn, pxn, pyn, pzn = vn
        f = _rhs_loop(0.5 * (x + xn), 0.5 * (y + yn), 0.5 * (z + zn),
                      0.5 * (px + pxn), 0.5 * (py + pyn), 0.5 * (pz + pzn))
        vnew = (x + dt * f[0], y + dt * f[1], z + dt * f[2],
                px + dt * f[3], py + dt * f[4], pz + dt * f[5])
        if all(abs(a - b) < tol for a, b in zip(vnew, vn)):
            return vnew
        vn = vnew
    raise RuntimeError("implicit midpoint step did not converge")


def _flow_path_loop(v, T, dt):
    sgn = 1.0 if T >= 0 else -1.0
    path = [v]
    for _ in range(int(round(abs(T) / dt))):
        path.append(_midpoint_step_loop(path[-1], sgn * dt))
    return np.array(path)


def test_hamiltonian_and_vector_field():
    s = CotangentState(PointH3(0, 0, 2.0), np.array([0.0, 0.0, 0.5]))
    assert fl.hamiltonian(s) == pytest.approx(0.5)
    X = np.array(_rhs_loop(*s.vector()))
    # dq/dt = z^2 p, dp_z/dt = -z |p|^2
    assert np.allclose(X[:3], [0, 0, 2.0])
    assert np.allclose(X[3:], [0, 0, -0.5])
    # the reference field is Hamilton's X_H = (dH/dp, -dH/dq) = Om dH
    Om = fl.symplectic_form_matrix()
    for v in rand_states(10):
        np.testing.assert_allclose(_rhs_loop(*v),
                                   Om @ fl.hamiltonian_gradient(v),
                                   rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("T", [2.0, -2.0])
def test_flow_path_equals_the_tuple_step_oracle(T):
    # the benchmark's flow state, forward and backward: the scalar step
    # computes the same floats as the tuple step, to the bit
    state = (0.3, -0.2, 1.1, 0.4, -0.3, 0.5)
    s0 = CotangentState(PointH3(*state[:3]), state[3:])
    s1, path = fl.integrate_flow(s0, T=T, dt=1e-3, return_path=True)
    ref = _flow_path_loop(state, T, 1e-3)
    assert path.shape == ref.shape == (2001, 6)
    assert path.tobytes() == ref.tobytes()
    assert s1.vector().tobytes() == ref[-1].tobytes()


def test_flow_conserves_h_long_time():
    s0 = CotangentState(PointH3(0.3, -0.2, 1.1), np.array([0.4, -0.3, 0.5]))
    h0 = fl.hamiltonian(s0)
    s1, path = fl.integrate_flow(s0, T=10.0, dt=1e-3, return_path=True)
    assert abs(fl.hamiltonian(s1) - h0) < 1e-5
    assert fl.geodesic_residual(path, 1e-3) < 1e-6


def test_geodesic_residual_matches_pointwise_loop():
    # reference: Gamma evaluated at each point of the path, one at a time
    s0 = CotangentState(PointH3(0.3, -0.2, 1.1), np.array([0.4, -0.3, 0.5]))
    _, path = fl.integrate_flow(s0, T=0.5, dt=1e-3, return_path=True)
    qs, dt, worst = path[:, :3], 1e-3, 0.0
    for k in range(1, len(qs) - 1):
        qd = (qs[k + 1] - qs[k - 1]) / (2 * dt)
        qdd = (qs[k + 1] - 2 * qs[k] + qs[k - 1]) / dt**2
        gam = christoffel(qs[k])
        worst = max(worst, np.abs(qdd + np.einsum("aij,i,j->a", gam, qd,
                                                  qd)).max())
    # only the Gamma term, of size O(1) on this path, is rounded in another
    # order (1/z applied last): a few ulps of it
    assert abs(fl.geodesic_residual(path, dt) - worst) <= 8 * np.finfo(
        float).eps
    assert fl.geodesic_residual(path[:2], dt) == 0.0


def test_flow_reproduces_vertical_solution():
    # exact solution z(t) = e^t, p = (0, 0, e^{-t}) from z0 = 1
    s0 = CotangentState(PointH3(0.0, 0.0, 1.0), np.array([0.0, 0.0, 1.0]))
    s1 = fl.integrate_flow(s0, T=1.0, dt=1e-4)
    assert s1.q.x == 0.0 and s1.q.y == 0.0
    assert abs(s1.q.z - math.e) < 1e-8
    assert abs(s1.p[2] - 1.0 / math.e) < 1e-8


def test_flow_blowup_guard():
    s0 = CotangentState(PointH3(0, 0, 2e-12), np.array([0.0, 0.0, -1e12]))
    with pytest.raises(FloatingPointError):
        fl.integrate_flow(s0, T=1.0, dt=1e-3)


def test_unconverged_midpoint_step_raises():
    v = CotangentState(PointH3(0.3, -0.2, 1.1),
                       np.array([0.4, -0.3, 0.5])).vector()
    with pytest.raises(RuntimeError, match="residual"):
        fl._midpoint_step(v, 1e-3, max_iter=2)
    with pytest.raises(RuntimeError, match="in 0 iterations"):
        fl._midpoint_step(v, 1e-3, max_iter=0)
    # NaN compares false against the tolerance, so it must not converge
    nan_state = CotangentState(PointH3(0.3, -0.2, 1.1),
                               np.array([0.4, math.nan, 0.5])).vector()
    with pytest.raises(RuntimeError, match="did not converge"):
        fl._midpoint_step(nan_state, 1e-3)
    # so must a NaN in any one coordinate
    for k in range(6):
        with pytest.raises(RuntimeError, match="did not converge"):
            fl._midpoint_step(np.where(np.arange(6) == k, math.nan, v), 1e-3)
    # a step far too large for the fixed-point iteration to contract
    s0 = CotangentState(PointH3(0.0, 0.0, 1.0), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(RuntimeError, match="did not converge"):
        fl.integrate_flow(s0, T=1.0, dt=1.0)


def test_sasakian_j_squares_to_minus_one():
    for v in rand_states(10):
        J = fl.sasakian_J(v)
        assert np.abs(J @ J + np.eye(6)).max() < 1e-9


def test_sasakian_j_matches_dense_frame_oracle():
    for v in rand_states(10):
        F = fl.frame_fields(v)
        H, V = F[:, :3], F[:, 3:]
        gam = christoffel(v[:3])
        # H_i = d_{q^i} + p_a Gamma^a_ij d_{p_j}, V_i = d_{p_i}
        for i in range(3):
            for j in range(3):
                pg = float(v[3:] @ gam[:, i, j])
                assert H[3 + j, i] == pytest.approx(pg, rel=1e-14, abs=0.0)
        assert np.array_equal(H[:3], np.eye(3))
        assert np.array_equal(V, np.vstack([np.zeros((3, 3)), np.eye(3)]))
        # J H_i = V_i / z^2 and J V_i = -z^2 H_i, carried to coordinates
        z2 = v[2] ** 2
        B = np.zeros((6, 6))
        B[3:, :3] = np.eye(3) / z2
        B[:3, 3:] = -z2 * np.eye(3)
        dense = F @ B @ np.linalg.inv(F)
        # the dense inverse leaves roundoff where J has exact zeros, so
        # those entries are held to 1e-12 of the largest entry
        np.testing.assert_allclose(fl.sasakian_J(v), dense, rtol=1e-12,
                                   atol=1e-12 * np.abs(dense).max())


def test_frame_and_j_stack_row_by_row():
    V = rand_states(12, seed=4)
    F, J = fl.frame_fields(V), fl.sasakian_J(V)
    assert F.shape == J.shape == (12, 6, 6)
    for k, v in enumerate(V):
        assert np.array_equal(F[k], fl.frame_fields(v))
        assert np.array_equal(J[k], fl.sasakian_J(v))
    nested = fl.sasakian_J(V.reshape(3, 4, 6))
    assert np.array_equal(nested.reshape(12, 6, 6), J)


def test_j_compatible_with_symplectic_form():
    Om = fl.symplectic_form_matrix()
    for v in rand_states(10, seed=5):
        J = fl.sasakian_J(v)
        # omega(J., J.) = omega and g = omega(., J.) symmetric positive
        assert np.abs(J.T @ Om @ J - Om).max() < 1e-9
        G = Om @ J
        assert np.abs(G - G.T).max() < 1e-9
        assert np.linalg.eigvalsh((G + G.T) / 2).min() > 0


def test_form_identities_small_residual():
    for v in rand_states(20, seed=7):
        res = fl.form_identity_residuals(v)
        assert max(res.values()) < 1e-5


def test_form_identities_second_order_convergence():
    s = CotangentState(PointH3(0.4, -0.3, 1.3), np.array([0.2, 0.5, -0.4]))
    for key in ("phi_x_over_z", "vertical_coframe"):
        r2 = fl.form_identity_residuals(s.vector(), step=2e-2)[key]
        r1 = fl.form_identity_residuals(s.vector(), step=1e-2)[key]
        assert 3.4 < r2 / r1 < 4.6  # O(step^2)


def test_plurisubharmonic_closed_form():
    # -d(d(H + 1/z) o J) on horizontal/J-horizontal pairs: (1+z)/z^3
    for z, val in ((1.0, 2.0), (2.0, 3.0 / 8.0)):
        s = CotangentState(PointH3(0.2, -0.1, z), np.array([0.3, -0.2, 0.4]))
        assert fl.plurisubharmonic_value(s.vector()) == pytest.approx(
            val, abs=1e-6)
    for v in rand_states(20, seed=9):
        z = v[2]
        assert fl.plurisubharmonic_value(v) == pytest.approx(
            (1 + z) / z**3, abs=1e-5)


def test_plurisubharmonic_frame_vectors_have_sasaki_norm_one_over_z():
    # the value is taken on the raw H_i: omega(H_i, J H_i) = |H_i|^2 = 1/z^2
    s = CotangentState(PointH3(0.2, -0.1, 2.0), np.array([0.3, -0.2, 0.4]))
    v = s.vector()
    H = fl.frame_fields(v)[:, :3]
    Om = fl.symplectic_form_matrix()
    for i in range(3):
        assert H[:, i] @ Om @ fl.sasakian_J(v) @ H[:, i] == pytest.approx(
            0.25, rel=1e-14)


# The per-state bodies that the stacked form checks replaced, kept as
# references: one state at a time, one stencil point at a time.

def _d_oneform_loop(alpha, v, step):
    A = np.zeros((6, 6))  # A[m, n] = d_m alpha_n
    for m in range(6):
        h = step * (v[2] if m in (0, 1, 2) else 1.0)
        e = np.zeros(6)
        e[m] = h
        A[m] = (alpha(v + e) - alpha(v - e)) / (2 * h)
    return A - A.T


def _dH_loop(v):
    z, p = v[2], v[3:6]
    return np.array([0.0, 0.0, z * float(p @ p), *(z**2 * p)])


def _form_identity_residuals_loop(v, step=1e-5):
    z = v[2]
    Om = fl.symplectic_form_matrix()
    th = np.concatenate([v[3:6], np.zeros(3)])

    def wedge(a, b):
        return np.outer(a, b) - np.outer(b, a)

    def alpha(w, grad):
        return grad(w) @ fl.sasakian_J(w)

    d1 = _d_oneform_loop(lambda w: alpha(w, _dH_loop), v, step)
    r1 = np.max(np.abs(-d1 - Om))
    r1b = np.max(np.abs(alpha(v, _dH_loop) - th))

    def grad_phi(w):
        g = np.zeros(6)
        g[0] = 1.0 / w[2]
        g[2] = -w[0] / w[2] ** 2
        return g

    d2 = _d_oneform_loop(lambda w: alpha(w, grad_phi), v, step)
    r2 = np.max(np.abs(-d2 - (v[0] / z * Om - wedge(grad_phi(v), th))))

    def v3(w):
        out = np.zeros(6)
        out[5] = 1.0
        out[0:3] += w[3:6] / w[2]
        return out

    d3 = _d_oneform_loop(v3, v, step)
    dzinv = np.zeros(6)
    dzinv[2] = -1.0 / z**2
    r3 = np.max(np.abs(-d3 - (-wedge(dzinv, th) + Om / z)))
    return {"dH_J": r1, "dH_J_algebraic": r1b, "phi_x_over_z": r2,
            "vertical_coframe": r3}


def _dF_loop(v):
    """d(H + 1/z) at one state."""
    g = _dH_loop(v)
    g[2] -= 1.0 / v[2] ** 2
    return g


def _plurisubharmonic_value_loop(v, step=1e-5):
    dal = _d_oneform_loop(lambda w: _dF_loop(w) @ fl.sasakian_J(w), v, step)
    J = fl.sasakian_J(v)
    H = fl.frame_fields(v)[:, :3]
    return float(np.mean([-float(H[:, i] @ dal @ (J @ H[:, i]))
                          for i in range(3)]))


def _fd_roundoff(v, step=1e-5):
    """Roundoff of one difference quotient of a one-form g J at state v: an
    ulp of its largest term |g_m J_mn|, g = d(H + 1/z), over the least
    step, step * min(1, z)."""
    terms = np.abs(_dF_loop(v)) @ np.abs(fl.sasakian_J(v))
    return np.finfo(float).eps * max(1.0, terms.max()) / (step * min(1.0,
                                                                     v[2]))


def test_stacked_form_checks_equal_their_state_loops():
    # the stack and the loop round alpha's sums and the contractions in
    # another order; a row is within 16 roundoffs of a difference quotient
    # (at most 2.3 were seen over 150 states)
    for seed in (11, 13):
        V = rand_states(30, seed=seed)
        res = fl.form_identity_residuals(V)
        psh = fl.plurisubharmonic_value(V)
        assert psh.shape == (30,)
        for k, v in enumerate(V):
            bound = 16 * _fd_roundoff(v)
            loop = _form_identity_residuals_loop(v)
            assert set(res) == set(loop)
            for key in loop:
                assert res[key].shape == (30,)
                assert abs(res[key][k] - loop[key]) <= bound, key
            assert abs(psh[k] - _plurisubharmonic_value_loop(v)) <= bound
    # a batch of one is the unbatched call
    one = fl.form_identity_residuals(V[:1])
    for key, val in fl.form_identity_residuals(V[0]).items():
        assert one[key].shape == (1,) and one[key][0] == val
    assert fl.plurisubharmonic_value(V[:1])[0] == fl.plurisubharmonic_value(
        V[0])


def test_shooting_matches_closed_form(fig8):
    # a0 = 1.0001 is just above the embedded height: "b" has a cord of
    # length 2e-4 there
    for a0 in (1.2, 1.0001):
        B0 = Horoball(INFINITY, a0)
        for word in ("b", "ab", "bab", "Bab"):
            g = fig8.evaluate(word)
            cord = fl.shoot_neumann(B0, g)
            assert abs(cord.length - cord_length(g, a0)) < 1e-9


def test_shot_cord_is_the_closed_form_cord(fig8):
    B0 = Horoball(INFINITY, 1.2)
    for word in ("b", "ab", "abb"):
        g = fig8.evaluate(word)
        shot = fl.shoot_neumann(B0, g)
        assert shot.centers[0] == INFINITY
        assert abs(shot.centers[1] - image_horoball(g, B0).center) < 1e-9
        exact = vertical_cord(g, 1.2)
        for t in np.linspace(0.0, 1.0, 11):
            err = np.abs(cord_point(shot, t).coords()
                         - cord_point(exact, t).coords())
            assert err.max() < 1e-9


def test_shooting_unique_under_perturbed_starts(fig8):
    B0 = Horoball(INFINITY, 1.2)
    g = fig8.evaluate("ab")
    base = fl.shoot_neumann(B0, g)
    # starts (x, y, s, t): P offset from B1's center, Q in stereographic
    # coordinates on the sphere dB1
    for guess in ([0.2, 0.1, 0.5, -0.3], [-0.15, 0.2, 1.5, 0.4],
                  [0.0, 0.0, 0.2, 0.0], [1.0, -1.0, 3.0, -2.0]):
        c = fl.shoot_neumann(B0, g, initial_guess=guess)
        assert abs(c.length - base.length) < 1e-9
        assert np.abs(c.end.coords() - base.end.coords()).max() < 1e-7


def test_shooting_rejects_bad_input():
    with pytest.raises(ValueError):
        fl.shoot_neumann(Horoball(0j, 1.0), None)


@pytest.mark.parametrize("stop", [[0.05, -0.05, 0.05, -0.05],
                                  [0.0, 0.0, 1e200, 0.0],
                                  [1e200, 0.0, 0.0, 0.0]])
def test_unconverged_shot_raises_runtime_error(fig8, monkeypatch, stop):
    # an iteration allowed no step stops at the start; a start at 1e200
    # overflows the chart's w = 1 + s^2 + t^2 or R = x^2 + y^2 + a0^2
    if stop == [0.05, -0.05, 0.05, -0.05]:
        monkeypatch.setattr(fl, "NEWTON_MAX_STEPS", 0)
    with pytest.raises(RuntimeError, match="did not converge"):
        fl.shoot_neumann(Horoball(INFINITY, 1.2), fig8.evaluate("ab"),
                         initial_guess=stop)


@pytest.mark.parametrize("a0", [0.9, 1.0])
def test_meeting_horoballs_have_no_cord(fig8, a0):
    # "b" moves B(inf, a0) to a ball of diameter 1/a0: it overlaps B0 at
    # a0 = 0.9 and touches it at a0 = 1
    with pytest.raises(RuntimeError):
        fl.shoot_neumann(Horoball(INFINITY, a0), fig8.evaluate("b"))


def test_long_classes_shoot_to_the_closed_form(fig8):
    # cords of length 4.2 to 7.5, where the former Newton shooter failed
    B0 = Horoball(INFINITY, 1.2)
    for word in ("aabbaabb", "bbaBBabb", "bbbbabbbb", "bAbAbAbAb"):
        g = fig8.evaluate(word)
        ell = cord_length(g, 1.2)
        assert ell > 4.0
        assert abs(fl.shoot_neumann(B0, g).length - ell) < 1e-9


# The array acceptance code that the scalar checks replaced, kept as the
# reference: the shooter's Newton solve, then the distance gradient as
# arrays, the chart's Jacobian as a 3x2 array and the witness geodesic's
# direction through numpy.  Returns the cord, |grad d| and the witness miss.

def _distance_gradient_arrays(q1, q2):
    dx, dy, dz = q1.x - q2.x, q1.y - q2.y, q1.z - q2.z
    s = dx * dx + dy * dy + dz * dz
    e = s / (2.0 * q1.z * q2.z)
    sh = math.sqrt(max(e * (2.0 + e), 1e-300))
    g1 = np.array([dx / (q1.z * q2.z),
                   dy / (q1.z * q2.z),
                   dz / (q1.z * q2.z) - s / (2.0 * q1.z**2 * q2.z)]) / sh
    g2 = np.array([-dx / (q1.z * q2.z),
                   -dy / (q1.z * q2.z),
                   -dz / (q1.z * q2.z) - s / (2.0 * q1.z * q2.z**2)]) / sh
    return g1, g2


def _vertical_geodesic_point_arrays(q, v, t):
    w = np.asarray(v, dtype=float)
    nrm = math.sqrt(float(w @ w)) / q.z
    if abs(nrm - 1.0) > 1e-9:
        w = w / nrm
    vx, vy, vz = w / q.z
    assert math.hypot(vx, vy) < 1e-14  # the witness leaves P vertically
    return PointH3(q.x, q.y, q.z * math.exp(t if vz > 0 else -t))


def _shoot_neumann_arrays(B0, g, initial_guess=(0.05, -0.05, 0.05, -0.05)):
    a0 = B0.size
    B1 = image_horoball(g, B0)
    r = B1.size / 2.0
    cx, cy = B1.center.real, B1.center.imag
    x, y, s, t = initial_guess
    for _ in range(fl.NEWTON_MAX_STEPS):
        w = 1.0 + s * s + t * t
        R = x * x + y * y + a0 * a0
        gx, gy = x * w - 2 * r * s, y * w - 2 * r * t
        gs, gt = s * R - 2 * r * x, t * R - 2 * r * y
        c11, c12 = 2 * x * s - 2 * r, 2 * x * t
        c21, c22 = 2 * y * s, 2 * y * t - 2 * r
        m11 = R - (c11 * c11 + c21 * c21) / w
        m12 = -(c11 * c12 + c21 * c22) / w
        m22 = R - (c12 * c12 + c22 * c22) / w
        bs = (c11 * gx + c21 * gy) / w - gs
        bt = (c12 * gx + c22 * gy) / w - gt
        det = m11 * m22 - m12 * m12
        ds, dt = (m22 * bs - m12 * bt) / det, (m11 * bt - m12 * bs) / det
        dx = -(gx + c11 * ds + c12 * dt) / w
        dy = -(gy + c21 * ds + c22 * dt) / w
        x, y, s, t = x + dx, y + dy, s + ds, t + dt
        if all(abs(d) <= fl.NEWTON_STEP_TOL for d in (dx, dy, ds, dt)):
            break
    w = 1.0 + s * s + t * t
    P = PointH3(cx + x, cy + y, a0)
    Q = PointH3(cx + 2 * r * s / w, cy + 2 * r * t / w, 2 * r / w)
    gP, gQ = _distance_gradient_arrays(P, Q)
    chart = (2 * r / w**2) * np.array([[w - 2 * s * s, -2 * s * t],
                                       [-2 * s * t, w - 2 * t * t],
                                       [-2 * s, -2 * t]])
    grad = np.concatenate([gP[:2], gQ @ chart])
    ell = hc.distance(P, Q)
    land = _vertical_geodesic_point_arrays(P, (0.0, 0.0, -a0), ell)
    miss = float(np.max(np.abs(land.coords() - Q.coords()))) / a0
    cord = ce.Cord(ell, P, Q, (B0.center, B1.center))
    return cord, float(np.max(np.abs(grad))), miss


def _rejected_shot_residuals(monkeypatch, B0, g,
                             start=(0.05, -0.05, 0.05, -0.05), **constants):
    """|grad d| and the witness miss as the shot's RuntimeError prints them,
    and as the array oracle computes them, with the module ``constants``
    set so that the shot from ``start`` is rejected."""
    with monkeypatch.context() as m:
        for name, value in constants.items():
            m.setattr(fl, name, value)
        _, ref_gnorm, ref_miss = _shoot_neumann_arrays(B0, g, start)
        with pytest.raises(RuntimeError, match="did not converge") as err:
            fl.shoot_neumann(B0, g, initial_guess=start)
    found = re.search(r"\|grad d\| (\S+) .* witness miss (\S+) ",
                      str(err.value))
    return (float(found[1]), float(found[2])), (ref_gnorm, ref_miss)


def test_scalar_shot_checks_equal_the_array_oracle(fig8, monkeypatch):
    # every word of up to 4 letters with a cord at a0 = 1.2 (horoballs
    # disjoint: a0 |c| > 1)
    B0 = Horoball(INFINITY, 1.2)
    words = ["".join(w) for n in range(1, 5)
             for w in itertools.product("abAB", repeat=n)]
    eps = np.finfo(float).eps
    shots = 0
    for word in words:
        g = fig8.evaluate(word)
        if not 1.2 * abs(g.c) > 1:
            continue
        shots += 1
        assert fl.shoot_neumann(B0, g) == _shoot_neumann_arrays(B0, g)[0]
        # either check alone rejects the shot when its tolerance does, and
        # both print the residuals the array code computes; the gradient
        # components sum terms of size about 1 / a0, so "a few ulps" is a
        # few ulps of 1
        for tol_name in ("GRAD_TOL", "WITNESS_TOL"):
            got, ref = _rejected_shot_residuals(monkeypatch, B0, g,
                                                **{tol_name: -1.0})
            assert np.abs(np.subtract(got, ref)).max() <= 4 * eps, word
        # at the cord s = t = 0, so the terms in s and t of the chart's
        # Jacobian vanish; one Newton step from these starts leaves them
        # on, and the checks reject that point with their own tolerances.
        # |grad d| is the largest component; after the step from each start
        # it is, for every word, d/dx, d/dy, d/ds and d/dt in turn
        for start in ((0.1, 0.0, -2.0, -2.0), (0.0, 0.1, -2.0, -2.0),
                      (-0.2, 0.2, 3.0, -2.0), (0.2, -0.2, -2.0, 3.0)):
            got, ref = _rejected_shot_residuals(monkeypatch, B0, g, start,
                                                NEWTON_STEP_TOL=math.inf)
            assert np.abs(np.subtract(got, ref)).max() <= 4 * eps * max(
                1.0, *ref), (word, start)
    assert shots == 266
    # a tolerance of 0 rejects a shot whose residual is not exactly 0; at
    # 106 of the 266 shots |grad d| is exactly 0, at 204 the miss is
    g = fig8.evaluate("abA")
    _, ref_gnorm, ref_miss = _shoot_neumann_arrays(B0, g)
    assert ref_gnorm > 0 and ref_miss > 0
    for tol_name in ("GRAD_TOL", "WITNESS_TOL"):
        monkeypatch.setattr(fl, tol_name, 0.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            fl.shoot_neumann(B0, g)
        monkeypatch.undo()


# --------------------------------------------------------------- cylinders


def test_cutoff_function_shape():
    assert fl._tau01(-1.0) == 1.0 and fl._tau01(2.0) == 0.0
    assert fl._tau01(0.5) == pytest.approx(0.5)
    ts = np.linspace(0.01, 0.99, 99)
    vals = [fl._tau01(float(t)) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for t in (0.2, 0.5, 0.8):
        h = 1e-6
        fd = (fl._tau01(t + h) - fl._tau01(t - h)) / (2 * h)
        assert fl._tau01_prime(t) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_cyl_metric_area_normalization(level):
    cyl = CylRho(level)
    from scipy.integrate import quad

    # adaptive quadrature with a break point where the formula of A
    # changes; quad's default tolerances (1.49e-8) would leave 5e-13
    def oracle(lo, hi):
        cut = [level - fl.EPS0] if lo < level - fl.EPS0 < hi else None
        return quad(cyl.A, lo, hi, points=cut, limit=200, epsabs=1e-13,
                    epsrel=1e-13)[0]

    assert oracle(0, level) == pytest.approx(level, abs=1e-13)
    for a in (level - 0.5, level - 0.3, level - fl.EPS0, level - 0.01,
              level - 1e-3, level):
        rho = math.exp(-(level - 0.5) - oracle(level - 0.5, a))
        assert cyl.rho(a) == pytest.approx(rho, rel=1e-13)
    # profile interpolates 1 (cusp regime) to 0 (cylinder regime)
    assert cyl.A(level - 0.5) == pytest.approx(1.0)
    assert cyl.A(level) == 0.0
    assert cyl.rho(level + 3.0) == pytest.approx(math.exp(-level))


def test_rho_convex_on_dense_grid():
    cyl = CylRho(2)
    grid = np.linspace(1e-4, 2.0 + 1.0, 10_000)
    worst = min(cyl.rho_second(float(a)) for a in grid)
    assert worst >= -1e-12


def test_cyl_sectional_curvatures_nonpositive():
    for level in (1, 2):
        cyl = fl.CylMetric(level)
        for a in np.linspace(0.05, level + 1.0, 200):
            k1, k2 = cyl.sectional_curvatures(float(a))
            assert k1 <= 1e-14 and k2 <= 1e-14
            # cusp regime: both equal -1
            if a <= level - 0.5:
                assert k1 == pytest.approx(-1.0) and k2 == pytest.approx(-1.0)


def test_closed_form_curvatures_are_the_rho_route(monkeypatch):
    # (-A^2, A' - A^2) against (-(rho'/rho)^2, -rho''/rho) from the
    # quadrature of rho, on grids through each cutoff collar
    for level in (1, 2, 3):
        cyl, route = fl.CylMetric(level), CylRho(level)
        grid = np.concatenate([np.linspace(0.05, level + 1.0, 200),
                               np.linspace(level - fl.EPS0, level, 50)])
        for a in grid.tolist():
            k, want = cyl.sectional_curvatures(a), route.rho_curvatures(a)
            assert max(abs(k[0] - want[0]), abs(k[1] - want[1])) <= 1e-12
    # the verify suite's one grid samples the collar (2 - EPS0, 2)
    seen = []
    K = fl.CylMetric.sectional_curvatures

    def spy(self, a):
        seen.append((self.level, a))
        return K(self, a)

    monkeypatch.setattr(fl.CylMetric, "sectional_curvatures", spy)
    assert cli._SUITES["cylinder"][0]() == 0.0
    assert {level for level, _ in seen} == {2}
    assert sum(2 - fl.EPS0 < a < 2 for _, a in seen) >= 5


def _quadratic_form(gmat, v):
    return float(np.asarray(v) @ gmat @ np.asarray(v))


def test_metric_monotonicities_on_defining_regimes():
    # h <= h_i and h_j <= h_i (j > i) away from the smoothing collar
    # (i - 1/2, i), where any smooth area-normalized profile must dip
    i, j = 2, 3
    hi = CylRho(i)
    hj = CylRho(j)
    rng = np.random.default_rng(0)
    samples = np.concatenate([np.linspace(0.05, i - 0.5, 30),
                              np.linspace(i, j + 2.0, 40)])
    for a in samples:
        g = cusp_metric(float(a))
        gi = cyl_metric(hi, float(a))
        for _ in range(5):
            v = rng.normal(size=3)
            assert _quadratic_form(g, v) <= _quadratic_form(gi, v) + 1e-12
    samples_j = np.concatenate([np.linspace(0.05, i - 0.5, 20),
                                np.linspace(i, j - 0.5, 15),
                                np.linspace(j, j + 2.0, 15)])
    for a in samples_j:
        gi = cyl_metric(hi, float(a))
        gj = cyl_metric(hj, float(a))
        for _ in range(5):
            v = rng.normal(size=3)
            assert _quadratic_form(gj, v) <= _quadratic_form(gi, v) + 1e-12

