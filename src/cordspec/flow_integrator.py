"""Kinetic Hamiltonian system on T*H^3: vector field, metric almost complex
structure in the horizontal/vertical frame, symplectic integration, Neumann
shooting for cords, cylindrical end metrics, and pointwise two-form identity
checks done by finite-difference exterior derivatives.

Cotangent coordinates are (x, y, z, p_x, p_y, p_z); the symplectic form is
omega_0 = sum dq^i ^ dp_i and theta = sum p_i dq^i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic_core import (PointH3, TangentVec, christoffel, distance,
                              distance_gradient, geodesic_point)
from .cord_engine import Cord
from .isometry_group import PERIPHERAL_TOL, Horoball, Moebius, image_horoball


@dataclass
class CotangentState:
    """A point (q, p) of T*H^3 with covector components p."""

    q: PointH3
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)

    def vector(self) -> np.ndarray:
        return np.concatenate([self.q.coords(), self.p])

    @staticmethod
    def from_vector(v) -> "CotangentState":
        return CotangentState(PointH3(float(v[0]), float(v[1]), float(v[2])),
                              np.asarray(v[3:6], dtype=float))


def hamiltonian(s: CotangentState) -> float:
    """Kinetic Hamiltonian H = z^2 |p|^2 / 2."""
    return 0.5 * s.q.z**2 * float(s.p @ s.p)


def hamiltonian_gradient(v) -> np.ndarray:
    """Analytic dH in coordinates at states v of shape (..., 6) (used for the
    form computations)."""
    v = np.asarray(v, dtype=float)
    p = v[..., 3:]
    g = np.zeros_like(v)
    g[..., 2] = v[..., 2] * np.einsum("...i,...i", p, p)
    g[..., 3:] = v[..., 2, None] ** 2 * p
    return g


def frame_fields(v) -> np.ndarray:
    """Sasakian frame at states v of shape (..., 6): the matrices
    F = [H | V] of shape (..., 6, 6) whose columns are the coordinate vectors
    H_i = d_{q^i} + p_a Gamma^a_{ij} d_{p_j} and V_i = d_{p_i}.

    F = [[I, 0], [G, I]] with the connection block G_ji = p_a Gamma^a_ij."""
    v = np.asarray(v, dtype=float)
    F = np.tile(np.eye(6), v.shape[:-1] + (1, 1))
    F[..., 3:, :3] = np.einsum("...a,...aij->...ji", v[..., 3:],
                               christoffel(v[..., :3]))
    return F


def sasakian_J(v) -> np.ndarray:
    """Metric almost complex structure in coordinates at states v of shape
    (..., 6), as matrices of shape (..., 6, 6).

    In the frame, J maps H_i -> h_ij V_j = (1/z^2) V_i and
    V_i -> -h^ij H_j = -z^2 H_i; J^2 = -Identity.  F is unit block
    lower-triangular, so F^{-1} = [[I, 0], [-G, I]] and
    J = F B F^{-1} = [[z^2 G, -z^2 I], [I/z^2 + z^2 G^2, -z^2 G]].
    """
    G = frame_fields(v)[..., 3:, :3]
    z2 = np.asarray(v, dtype=float)[..., 2, None, None] ** 2
    J = np.empty(G.shape[:-2] + (6, 6))
    J[..., :3, :3], J[..., 3:, 3:] = z2 * G, -z2 * G
    J[..., :3, 3:] = -z2 * np.eye(3)
    J[..., 3:, :3] = z2 * G @ G + np.eye(3) / z2
    return J


def symplectic_form_matrix() -> np.ndarray:
    """Matrix of omega_0 = sum dq^i ^ dp_i: omega(u, v) = u^T Om v."""
    Om = np.zeros((6, 6))
    for i in range(3):
        Om[i, 3 + i] = 1.0
        Om[3 + i, i] = -1.0
    return Om


def theta_covector(v) -> np.ndarray:
    """The canonical one-form theta = p dq as coordinate covectors at states
    v of shape (..., 6)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    out[..., 0:3] = v[..., 3:6]
    return out


def integrate_flow(s0: CotangentState, T: float, dt: float,
                   return_path: bool = False):
    """Implicit-midpoint integration of the Hamiltonian flow.

    Symmetric and symplectic; suitable for the non-separable kinetic
    Hamiltonian.  Raises on step underflow when the trajectory approaches
    the boundary z = 0, and RuntimeError when the fixed-point iteration of
    a step does not converge.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(abs(T) / dt))
    sgn = 1.0 if T >= 0 else -1.0
    v = tuple(map(float, s0.vector()))
    path = [v] if return_path else None
    for _ in range(n):
        v = _midpoint_step(v, sgn * dt)
        if v[2] <= 1e-12:
            raise FloatingPointError("step underflow: trajectory hit z -> 0")
        if return_path:
            path.append(v)
    if return_path:
        return CotangentState.from_vector(v), np.array(path)
    return CotangentState.from_vector(v)


def _midpoint_step(v, dt: float, tol: float = 1e-13,
                   max_iter: int = 60) -> tuple:
    """One step v -> v' = v + dt X_H((v + v') / 2) on the six coordinates,
    by fixed-point iteration from the explicit Euler predictor.  The field,
    X_H = z^2 (p_x d_x + p_y d_y + p_z d_z) - z |p|^2 d_{p_z}, fixes p_x
    and p_y."""
    x, y, z, px, py, pz = v
    pp = px * px + py * py
    z2 = z * z
    xn, yn, zn = x + dt * (z2 * px), y + dt * (z2 * py), z + dt * (z2 * pz)
    pzn = pz + dt * (-z * (pp + pz * pz))
    dx = dy = dz = dpz = math.nan
    for _ in range(max_iter):
        zm, pzm = 0.5 * (z + zn), 0.5 * (pz + pzn)
        z2 = zm * zm
        x1, y1 = x + dt * (z2 * px), y + dt * (z2 * py)
        z1, pz1 = z + dt * (z2 * pzm), pz + dt * (-zm * (pp + pzm * pzm))
        dx, dy = abs(x1 - xn), abs(y1 - yn)
        dz, dpz = abs(z1 - zn), abs(pz1 - pzn)
        # d < tol is false for a NaN, so a state with a NaN never converges
        if dx < tol and dy < tol and dz < tol and dpz < tol:
            return (x1, y1, z1, px, py, pz1)
        xn, yn, zn, pzn = x1, y1, z1, pz1
    raise RuntimeError(f"implicit midpoint step did not converge in "
                       f"{max_iter} iterations; residual "
                       f"{max(dx, dy, dz, dpz):.3g}")


def geodesic_residual(path: np.ndarray, dt: float) -> float:
    """Max residual of the geodesic equation along the projected trajectory,
    q'' + Gamma(q)[q', q'] = 0, via central differences."""
    qs = path[:, 0:3]
    qd = (qs[2:] - qs[:-2]) / (2 * dt)
    qdd = (qs[2:] - 2 * qs[1:-1] + qs[:-2]) / dt**2
    # Gamma(q) = Gamma(0, 0, 1) / z
    res = qdd + np.einsum("aij,ki,kj->ka", christoffel((0.0, 0.0, 1.0)),
                          qd, qd) / qs[1:-1, 2:]
    return float(np.abs(res).max(initial=0.0))


# ---------------------------------------------------------------------------
# finite-difference exterior calculus on T*H^3


def _d_oneform(alpha, v: np.ndarray, step: float) -> np.ndarray:
    """Exterior derivative matrices of a 1-form field alpha at states v of
    shape (..., 6): (d alpha)[..., m, n] = d_m alpha_n - d_n alpha_m by
    central differences, step * z along q and step along p.  alpha is
    evaluated once, on the 12 stencil points of every state, shape
    (..., 12, 6)."""
    h = step * np.where(np.arange(6) < 3, v[..., 2, None], 1.0)
    e = h[..., None] * np.eye(6)
    a = alpha(np.concatenate([v[..., None, :] + e, v[..., None, :] - e],
                             axis=-2))
    A = (a[..., :6, :] - a[..., 6:, :]) / (2 * h[..., None])  # d_m alpha_n
    return A - np.swapaxes(A, -1, -2)


def _alpha_df_J(v: np.ndarray, grad) -> np.ndarray:
    return np.einsum("...m,...mn->...n", grad(v), sasakian_J(v))


def plurisubharmonic_value(v, step: float = 1e-5) -> np.ndarray:
    """Value of -d(df o J)(H_i, J H_i) for the exhaustion function
    f = H + 1/z at states v of shape (..., 6), averaged over the three
    horizontal frame vectors H_i of frame_fields (columns of F[..., :, :3]).

    The H_i are not normalized: their Sasaki norm is 1/z.  For the
    hyperbolic metric the value on them is (1+z)/z^3, independent of the
    direction i; on unit horizontal vectors it would be z^2 times that,
    (1+z)/z.
    """

    def grad(w):
        g = hamiltonian_gradient(w)
        g[..., 2] -= 1.0 / w[..., 2] ** 2  # d(1/z)
        return g

    v = np.asarray(v, dtype=float)
    dal = _d_oneform(lambda w: _alpha_df_J(w, grad), v, step)
    H = frame_fields(v)[..., :, :3]
    JH = sasakian_J(v) @ H
    return -np.einsum("...mi,...mn,...ni->...i", H, dal, JH).mean(axis=-1)


def form_identity_residuals(v, step: float = 1e-5) -> dict:
    """Pointwise residuals of the two-form identities at states v of shape
    (..., 6), evaluated on all 15 coordinate 2-plane pairs with
    finite-difference exterior derivatives.

    Checked identities:
      1. -d(dH o J) = omega_0   (equivalently dH o J = theta)
      2. -d(dphi o J) = phi omega_0 - dphi ^ theta   for phi = x/z
      3. -dV^3 = -d(1/z) ^ theta + (1/z) omega_0
         where V^3 = dp_z + (1/z) theta
    Returns a dict of max residuals per identity, each of shape (...).
    """
    v = np.asarray(v, dtype=float)
    z = v[..., 2, None, None]
    Om = symplectic_form_matrix()
    th = theta_covector(v)

    def wedge(a, b):
        return (a[..., :, None] * b[..., None, :]
                - b[..., :, None] * a[..., None, :])

    def worst(r):
        return np.abs(r).max(axis=(-2, -1))

    # identity 1
    d1 = _d_oneform(lambda w: _alpha_df_J(w, hamiltonian_gradient), v, step)
    r1 = worst(-d1 - Om)
    # algebraic form of the same statement
    r1b = np.abs(_alpha_df_J(v, hamiltonian_gradient) - th).max(axis=-1)

    # identity 2, phi = x/z
    def grad_phi(w):
        g = np.zeros_like(w)
        g[..., 0] = 1.0 / w[..., 2]
        g[..., 2] = -w[..., 0] / w[..., 2] ** 2
        return g

    d2 = _d_oneform(lambda w: _alpha_df_J(w, grad_phi), v, step)
    phi = v[..., 0, None, None] / z
    r2 = worst(-d2 - (phi * Om - wedge(grad_phi(v), th)))

    # identity 3, V^3 = dp_z + theta/z
    def v3(w):
        out = np.zeros_like(w)
        out[..., 5] = 1.0
        out[..., 0:3] += w[..., 3:6] / w[..., 2, None]
        return out

    d3 = _d_oneform(v3, v, step)
    dzinv = np.zeros_like(v)
    dzinv[..., 2] = -1.0 / v[..., 2] ** 2
    r3 = worst(-d3 - (-wedge(dzinv, th) + Om / z))

    return {"dH_J": r1, "dH_J_algebraic": r1b, "phi_x_over_z": r2,
            "vertical_coframe": r3}


# ---------------------------------------------------------------------------
# Neumann shooting

# Acceptance of a shot: the largest gradient component of d(P, Q), and the
# witness geodesic's miss of Q relative to the height a0 of P.
GRAD_TOL = 1e-9
WITNESS_TOL = 1e-8
# Newton's method on cosh d - 1 stops once a step moves no chart coordinate
# by more than NEWTON_STEP_TOL, and gives up after NEWTON_MAX_STEPS steps.
NEWTON_STEP_TOL = 1e-12
NEWTON_MAX_STEPS = 100


def shoot_neumann(B0: Horoball, g: Moebius,
                  initial_guess=(0.05, -0.05, 0.05, -0.05)):
    """Solve the two-horosphere Neumann boundary value problem as the
    minimum of the distance between the two horospheres, and return the
    resulting cord.

    B0 must be the horoball {z >= a0} at infinity; the target is its image
    B1 under g, a ball of radius r resting on the center (cx, cy).  The
    unknowns u = (x, y, s, t) place P = (cx + x, cy + y, a0) on dB0, and Q
    on the sphere dB1 by stereographic coordinates from its ideal point:
    Q = (cx, cy, r) + r n with n = (2s, 2t, 1 - s^2 - t^2) / w,
    w = 1 + s^2 + t^2.  That chart covers the whole horosphere, and in it
    the distance d(P, Q) is a quartic polynomial,

        cosh d - 1 = F(u) = [w R - 4r (sx + ty) - 4r a0 + 4r^2] / (4 a0 r),
        R = x^2 + y^2 + a0^2.

    Its critical points solve x w = 2rs, y w = 2rt, s R = 2rx, t R = 2ry,
    so s (R w - 4r^2) = t (R w - 4r^2) = 0.  A cord needs disjoint
    horoballs, a0 > 2r, and then R w >= a0^2 > 4r^2: u = 0 is the only
    critical point, the cord, which the paper shows is nondegenerate (Morse
    index 0).  It is found by Newton's method on F with the closed-form
    gradient and Hessian from the start u = ``initial_guess``.

    Two checks accept the solve: |grad d| <= GRAD_TOL, and the geodesic that
    leaves P along the normal out of B0 arrives, after the minimal length,
    within WITNESS_TOL * a0 of Q.  Horoballs that meet, a Newton step that
    is singular or leaves the chart, too many steps, or a solve that misses
    either check raise RuntimeError.
    """
    if not B0.is_at_infinity():
        raise ValueError("B0 must be centered at infinity")
    if abs(g.c) < PERIPHERAL_TOL:
        raise ValueError("peripheral element has no cord")
    a0 = B0.size
    B1 = image_horoball(g, B0)
    r = B1.size / 2.0
    cx, cy = B1.center.real, B1.center.imag
    if not a0 > 2 * r:
        raise RuntimeError(f"no cord to shoot: the horoballs meet "
                           f"(a0 = {a0:.17g}, 2r = {2 * r:.17g})")

    x, y, s, t = map(float, initial_guess)
    for _ in range(NEWTON_MAX_STEPS):
        # gradient g and Hessian [[w I, C], [C^T, R I]] of 2 a0 r F; the
        # step solves for (ds, dt) on the Schur complement R I - C^T C / w
        w = 1.0 + s * s + t * t
        R = x * x + y * y + a0 * a0
        if not math.isfinite(w * R):
            raise RuntimeError(f"shooting did not converge: u = "
                               f"{(x, y, s, t)} is off the chart")
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
        if not det:
            raise RuntimeError(f"shooting did not converge: singular "
                               f"Hessian at u = {(x, y, s, t)}")
        ds, dt = (m22 * bs - m12 * bt) / det, (m11 * bt - m12 * bs) / det
        dx = -(gx + c11 * ds + c12 * dt) / w
        dy = -(gy + c21 * ds + c22 * dt) / w
        x, y, s, t = x + dx, y + dy, s + ds, t + dt
        if (abs(dx) <= NEWTON_STEP_TOL and abs(dy) <= NEWTON_STEP_TOL
                and abs(ds) <= NEWTON_STEP_TOL and abs(dt) <= NEWTON_STEP_TOL):
            break
    else:
        raise RuntimeError(f"shooting did not converge: {NEWTON_MAX_STEPS} "
                           f"Newton steps")

    w = 1.0 + s * s + t * t
    P = PointH3(cx + x, cy + y, a0)
    Q = PointH3(cx + 2 * r * s / w, cy + 2 * r * t / w, 2 * r / w)
    (gx, gy, _), (qx, qy, qz) = distance_gradient(P, Q)
    # d(P, Q) in the unknowns (x, y, s, t): the gradient at Q contracts with
    # the chart's Jacobian k [[w - 2s^2, -2st], [-2st, w - 2t^2], [-2s, -2t]]
    k = 2 * r / w**2
    c_st = k * (-2 * s * t)
    gs = qx * (k * (w - 2 * s * s)) + qy * c_st + qz * (k * (-2 * s))
    gt = qx * c_st + qy * (k * (w - 2 * t * t)) + qz * (k * (-2 * t))
    ell = distance(P, Q)
    land = geodesic_point(P, TangentVec(P, (0.0, 0.0, -a0)), ell)
    miss = max(abs(land.x - Q.x), abs(land.y - Q.y), abs(land.z - Q.z)) / a0
    gnorm = max(abs(gx), abs(gy), abs(gs), abs(gt))
    if not (gnorm <= GRAD_TOL and miss <= WITNESS_TOL):
        raise RuntimeError(f"shooting did not converge: |grad d| {gnorm!r} "
                           f"(tolerance {GRAD_TOL:g}), witness miss "
                           f"{miss!r} (tolerance {WITNESS_TOL:g})")
    return Cord(ell, P, Q, (B0.center, B1.center))


# ---------------------------------------------------------------------------
# cylindrical end metrics


def _tau01(t: float) -> float:
    """Smooth cutoff e^{1/t} / (e^{1/(1-t)} + e^{1/t}): 1 for t <= 0,
    0 for t >= 1.  Evaluated as a logistic in u = 1/(1-t) - 1/t for
    overflow-free arithmetic."""
    if t <= 0:
        return 1.0
    if t >= 1:
        return 0.0
    u = 1.0 / (1.0 - t) - 1.0 / t
    if u > 700:
        return 0.0
    if u < -700:
        return 1.0
    return 1.0 / (1.0 + math.exp(u))


def _tau01_prime(t: float) -> float:
    if t <= 0 or t >= 1:
        return 0.0
    tau = _tau01(t)
    du = 1.0 / (1.0 - t) ** 2 + 1.0 / t**2
    return -du * tau * (1.0 - tau)


def _E(t: float) -> float:
    return 1.0 + math.exp(-1.0 / t) if t > 0 else 1.0


def _E_prime(t: float) -> float:
    return math.exp(-1.0 / t) / t**2 if t > 0 else 0.0


# Width of the cutoff (i - EPS0, i) that ends the interpolation profile A_i
# on its collar (i - 1/2, i).  The level-i profile is the level-1 profile
# shifted by i - 1, so the area condition int_0^i A_i = i reads: the integral
# of A_i over the collar is 1/2, the same equation at every level.  EPS0 is
# its root (mpmath at 40 digits, confirmed by adaptive quadrature with a
# break point at i - EPS0, where the formula of A changes).
EPS0 = 0.033205613193650971


class CylMetric:
    """Cylindrical adjustment metric da^2 + rho_i(a)^2 (dx^2 + dy^2).

    rho_i = exp(-B_i) with B_i the integral of the interpolation profile
    A_i: 1 up to i - 1/2, then E, cut off by tau over the collar
    (i - EPS0, i), and 0 from i on.  EPS0 fixes int_0^i A_i = i.  Since
    rho' = -A rho, the curvatures need only A and A'; rho is never formed.
    """

    def __init__(self, level: int):
        if level < 1:
            raise ValueError("level must be >= 1")
        self.level = int(level)

    def A(self, a: float) -> float:
        i = self.level
        if a <= i - 0.5:
            return 1.0
        if a <= i - EPS0:
            return _E(a - i + 0.5)
        return _E(a - i + 0.5) * _tau01((a - (i - EPS0)) / EPS0)

    def A_prime(self, a: float) -> float:
        i = self.level
        if a <= i - 0.5:
            return 0.0
        s = a - i + 0.5
        if a <= i - EPS0:
            return _E_prime(s)
        u = (a - (i - EPS0)) / EPS0
        return _E_prime(s) * _tau01(u) + _E(s) * _tau01_prime(u) / EPS0

    def sectional_curvatures(self, a: float) -> tuple:
        """(K(dx,dy), K(da,dx)) = (-(rho'/rho)^2, -rho''/rho), which are
        (-A^2, A' - A^2) by rho' = -A rho and rho'' = (A^2 - A') rho."""
        A = self.A(a)
        return (-(A * A), self.A_prime(a) - A * A)
