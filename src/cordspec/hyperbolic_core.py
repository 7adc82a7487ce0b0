"""Analytic primitives of the upper half-space model of hyperbolic 3-space.

The model is H^3 = {(x, y, z) : z > 0} with metric (dx^2 + dy^2 + dz^2)/z^2,
constant sectional curvature -1.  The plane {x = 0} is a totally geodesic
copy of H^2 used by the 2D specializations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PointH3:
    """A point of upper half-space; z must be positive."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.z > 0:
            raise ValueError(f"z must be positive, got {self.z}")

    def coords(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_coords(v) -> "PointH3":
        return PointH3(float(v[0]), float(v[1]), float(v[2]))


@dataclass(frozen=True)
class TangentVec:
    """A tangent vector at a base point, components in d/dx, d/dy, d/dz."""

    base: PointH3
    v: tuple


def metric_tensor(q) -> np.ndarray:
    """Metric matrices h_ij = delta_ij / z^2 at points q of shape (..., 3)."""
    return np.eye(3) / np.asarray(q, dtype=float)[..., 2, None, None] ** 2


def christoffel(q) -> np.ndarray:
    """Christoffel symbols Gamma^a_ij of the hyperbolic metric at points q of
    shape (..., 3), indexed as gamma[..., a, i, j].

    Nonzero symbols: Gamma^3_11 = Gamma^3_22 = 1/z and
    Gamma^1_13 = Gamma^1_31 = Gamma^2_23 = Gamma^2_32 = Gamma^3_33 = -1/z.
    """
    iz = 1.0 / np.asarray(q, dtype=float)[..., 2]
    g = np.zeros(iz.shape + (3, 3, 3))
    g[..., 2, 0, 0] = g[..., 2, 1, 1] = iz
    g[..., 0, 0, 2] = g[..., 0, 2, 0] = -iz
    g[..., 1, 1, 2] = g[..., 1, 2, 1] = -iz
    g[..., 2, 2, 2] = -iz
    return g


def _central_stencil(q, rel_step: float) -> tuple:
    """The points q + h e_k and q - h e_k of points q of shape (..., 3), k on
    the second last axis, and the steps h = rel_step * z, shape (..., 1, 1)."""
    q = np.asarray(q, dtype=float)
    h = rel_step * q[..., 2, None, None]
    e = h * np.eye(3)
    return q[..., None, :] + e, q[..., None, :] - e, h


def christoffel_fd(q, rel_step: float = 1e-5) -> np.ndarray:
    """Christoffel symbols from central differences of metric_tensor, at
    points q of shape (..., 3), with step rel_step * z.

    Independent Levi-Civita computation used as an oracle for christoffel.
    """
    plus, minus, h = _central_stencil(q, rel_step)
    # dg[..., k, i, j] = d_k g_ij
    dg = (metric_tensor(plus) - metric_tensor(minus)) / (2 * h[..., None])
    ginv = np.linalg.inv(metric_tensor(q))
    # Gamma^a_ij = g^am (d_i g_mj + d_j g_mi - d_m g_ij) / 2
    return 0.5 * np.einsum("...am,...imj->...aij", ginv,
                           dg + np.swapaxes(dg, -1, -3)
                           - np.swapaxes(dg, -2, -3))


def riemann_fd(q, X, Y, Z, rel_step: float = 1e-4) -> np.ndarray:
    """Curvature R(X, Y)Z from finite differences of the Christoffel symbols,
    at points q and for vector components X, Y, Z, all of shape (..., 3);
    the step is rel_step * z.

    R^a_bij = d_i Gamma^a_jb - d_j Gamma^a_ib
              + Gamma^a_im Gamma^m_jb - Gamma^a_jm Gamma^m_ib,
    contracted with X^i Y^j Z^b.
    """
    plus, minus, h = _central_stencil(q, rel_step)
    # dgam[..., k, a, i, j] = d_k Gamma^a_ij
    dgam = (christoffel(plus) - christoffel(minus)) / (2 * h[..., None, None])
    gam = christoffel(q)
    R = (np.einsum("...iajb->...abij", dgam)
         - np.einsum("...jaib->...abij", dgam)
         + np.einsum("...aim,...mjb->...abij", gam, gam)
         - np.einsum("...ajm,...mib->...abij", gam, gam))  # R^a_{bij}
    return np.einsum("...abij,...i,...j,...b->...a", R, X, Y, Z)


def distance(q1: PointH3, q2: PointH3) -> float:
    """Hyperbolic distance from cosh d - 1 = 2 sinh^2(d/2) = |dq|^2 / (2 z1 z2),
    as 2 asinh, which keeps its precision for nearby points."""
    d2 = (q1.x - q2.x) ** 2 + (q1.y - q2.y) ** 2 + (q1.z - q2.z) ** 2
    return 2.0 * math.asinh(math.sqrt(d2 / (4.0 * q1.z * q2.z)))


def distance_gradient(q1: PointH3, q2: PointH3):
    """Gradient of the distance d(q1, q2) with respect to the coordinates of
    q1 and q2, as two float triples: d(cosh d) / sinh d, with
    sinh d = sqrt(e (2 + e)) from e = cosh d - 1 = |dq|^2 / (2 z1 z2)."""
    dx = q1.x - q2.x
    dy = q1.y - q2.y
    dz = q1.z - q2.z
    s = dx * dx + dy * dy + dz * dz
    zz = q1.z * q2.z
    e = s / (2.0 * zz)
    sh = math.sqrt(max(e * (2.0 + e), 1e-300))
    g1 = (dx / zz / sh, dy / zz / sh,
          (dz / zz - s / (2.0 * q1.z**2 * q2.z)) / sh)
    g2 = (-dx / zz / sh, -dy / zz / sh,
          (-dz / zz - s / (2.0 * q1.z * q2.z**2)) / sh)
    return g1, g2


def geodesic_point(q: PointH3, v: TangentVec, t: float) -> PointH3:
    """Point at arc length t along the unit-speed geodesic through q with velocity v.

    Closed form: vertical lines and Euclidean semicircles orthogonal to {z=0}.
    """
    vx, vy, vz = map(float, v.v)
    nrm = math.sqrt(vx * vx + vy * vy + vz * vz) / v.base.z
    if nrm == 0.0:
        raise ValueError("zero velocity vector")
    if abs(nrm - 1.0) > 1e-9:
        vx, vy, vz = vx / nrm, vy / nrm, vz / nrm
    vx, vy, vz = vx / q.z, vy / q.z, vz / q.z  # unit Euclidean direction
    horiz = math.hypot(vx, vy)
    if horiz < 1e-14:
        # vertical geodesic
        s = 1.0 if vz > 0 else -1.0
        return PointH3(q.x, q.y, q.z * math.exp(s * t))
    # work in the vertical plane through q spanned by (vx,vy)/horiz and z
    ux, uy = vx / horiz, vy / horiz
    # 2D upper half-plane point (0, z) with unit tangent (horiz, vz);
    # realize as A * R_theta acting on the vertical geodesic i e^t in PSL(2,R)
    z0 = q.z
    # angle of the tangent measured from vertical: tangent (sin a, cos a)
    a = math.atan2(horiz, vz)
    # Mobius: rotate the vertical tangent at i by a, then scale i -> i z0;
    # the horizontal offset is applied in the (ux, uy) frame afterwards.
    half = -a / 2.0
    ca, sa = math.cos(half), math.sin(half)
    rz = math.sqrt(z0)
    # A = [[rz, 0], [0, 1/rz]] . [[ca, sa], [-sa, ca]]
    ma, mb = rz * ca, rz * sa
    mc, md = -sa / rz, ca / rz
    et = math.exp(t)
    # image of i e^t under [[ma, mb], [mc, md]]
    num = complex(mb, ma * et)
    den = complex(md, mc * et)
    wpt = num / den
    u, zz = wpt.real, wpt.imag
    return PointH3(q.x + u * ux, q.y + u * uy, zz)

