"""Independent oracles that the tests read and no command runs: closed forms
and geometric checks for cords, paths, curvature, metrics, polygons and
truncated triangles, and the geometric route to the triangle catalog
(Poincare extension, common perpendiculars, horoball truncation)."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from cordspec.cord_engine import TANGENT_TOL, Cord
from cordspec.flow_integrator import EPS0, CylMetric
from cordspec.hyperbolic_core import PointH3, distance, distance_gradient
from cordspec.isometry_group import (INFINITY, PERIPHERAL_TOL, Horoball,
                                     Moebius, apply_boundary, center_key,
                                     image_horoball, is_infinity,
                                     lattice_disks)


def apply_h3(g, q):
    """Poincare extension of the Moebius action to upper half-space.

    Using quaternionic coordinates w + z j: g(q) = (a(w+zj)+b)(c(w+zj)+d)^{-1}.
    """
    w = complex(q.x, q.y)
    z = q.z
    # denominator cq + d with q = w + z j
    dc = g.c * w + g.d
    den = abs(dc) ** 2 + abs(g.c) ** 2 * z**2
    nu = (g.a * w + g.b) * dc.conjugate() + g.a * g.c.conjugate() * z**2
    new_w = nu / den
    new_z = z / den  # |ad - bc| = 1
    return PointH3(new_w.real, new_w.imag, new_z)


def from_vertical(a0, center, length):
    """Cord that is the vertical segment over ``center`` from z = a0 down
    to z = a0 e^{-length}."""
    cx, cy = center.real, center.imag
    start = PointH3(cx, cy, a0)
    end = PointH3(cx, cy, a0 * math.exp(-length))
    return Cord(length, start, end, (INFINITY, center))


def common_perpendicular(B0, B1):
    """The unique geodesic arc meeting both horospheres orthogonally, from
    B0 to B1.

    Horoballs that are tangent or overlap are rejected, as in
    ``canonical_classes``, on e^{l/2} = sqrt(a0 / d) once B0's center is
    moved to infinity; so are centers that ``image_horoball`` finds equal.
    """
    inf0, inf1 = B0.is_at_infinity(), B1.is_at_infinity()
    if inf0 and inf1:
        raise ValueError("horoballs share a center")
    if inf0:
        a0, d = B0.size, B1.size
        if math.sqrt(a0 / d) <= 1.0 + TANGENT_TOL:
            raise ValueError("tangent or overlapping horoballs (no cord)")
        return from_vertical(a0, B1.center, math.log(a0 / d))
    # move B0's center to infinity with m: w -> -1/(w - w0), map the
    # endpoints back, and keep the centers as given
    m = Moebius(0, -1, 1, -B0.center)
    cord = common_perpendicular(image_horoball(m, B0), image_horoball(m, B1))
    back = m.inverse()
    return Cord(cord.length, apply_h3(back, cord.start),
                apply_h3(back, cord.end), (B0.center, B1.center))


def cord_length(g, a0):
    """Closed-form cord length 2 ln(a0 |c(g)|) of the class of g."""
    return 2.0 * math.log(a0 * abs(g.c))


def vertical_cord(g, a0):
    """The cord from {z >= a0} to its image under g, vertical over a/c."""
    return from_vertical(a0, g.a / g.c, cord_length(g, a0))


def cord_point(cord, t):
    """The point c(t), t in [0, 1], in closed form: on the hyperboloid model
    the geodesic is (sinh((1-t)l) P + sinh(tl) Q) / sinh(l), and 1/z, x/z
    and y/z are linear there."""
    P, Q = cord.start, cord.end
    u = math.sinh((1.0 - t) * cord.length)
    v = math.sinh(t * cord.length)
    s = math.sinh(cord.length)
    f = (u / P.z + v / Q.z) / s
    fs = f * s
    return PointH3((u * P.x / P.z + v * Q.x / Q.z) / fs,
                   (u * P.y / P.z + v * Q.y / Q.z) / fs, 1.0 / f)


def cord_velocity(cord, t, h=1e-6):
    """Coordinate velocity dc/dt by central differences."""
    return (cord_point(cord, t + h).coords()
            - cord_point(cord, t - h).coords()) / (2 * h)


def z_profile(cord):
    """(f0, b0) with 1/z(c(t)) = f0 cosh(l t) + b0 sinh(l t), from the
    endpoint heights."""
    f0 = 1.0 / cord.start.z
    ell = cord.length
    return f0, (1.0 / cord.end.z - f0 * math.cosh(ell)) / math.sinh(ell)


def z_profile_residual(cord, samples=100):
    """Max deviation of 1/z(c(t)) from the cosh/sinh profile on a grid."""
    f0, b0 = z_profile(cord)
    ell = cord.length
    return max(abs(1.0 / cord_point(cord, t).z
                   - f0 * math.cosh(ell * t) - b0 * math.sinh(ell * t))
               for t in np.linspace(0.0, 1.0, samples).tolist())


def path_energy(nodes):
    """Discrete energy (N/2) sum_k d(q_k, q_{k+1})^2 of a nodal path; for
    samples of a geodesic cord of length l it is l^2/2."""
    return 0.5 * (len(nodes) - 1) * sum(
        distance(p, q) ** 2 for p, q in zip(nodes, nodes[1:]))


def first_variation(nodes, V):
    """Directional derivative of ``path_energy`` for a nodal variation
    field V of shape (N+1, 3), from the closed-form distance gradient."""
    N = len(nodes) - 1
    out = 0.0
    for k in range(N):
        g1, g2 = distance_gradient(nodes[k], nodes[k + 1])
        out += N * distance(nodes[k], nodes[k + 1]) * (
            np.dot(g1, V[k]) + np.dot(g2, V[k + 1]))
    return out


def inner(q, X, Y):
    """Riemannian inner product of the vector components X, Y at q."""
    return float(np.dot(X, Y)) / q.z**2


def riemann(q, X, Y, Z):
    """Curvature operator R(X, Y)Z = <Z, X>Y - <Z, Y>X (curvature -1)."""
    return inner(q, Z, X) * np.asarray(Y) - inner(q, Z, Y) * np.asarray(X)


@functools.cache
def _gauss_legendre():
    """(node, weight) pairs of the 64-node rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(64)
    return tuple(zip(x.tolist(), w.tolist()))


def _integrate(f, lo, hi):
    """Gauss-Legendre quadrature of a smooth scalar function on [lo, hi]."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return h * sum(w * f(c + h * x) for x, w in _gauss_legendre())


class CylRho(CylMetric):
    """The rho route of a ``CylMetric``: rho = exp(-B) with B = int_0^a A by
    64-node Gauss-Legendre on each side of i - EPS0, where the formula of A
    changes, and the curvatures -(rho'/rho)^2 and -rho''/rho from rho."""

    def B(self, a):
        i = self.level
        if a <= i - 0.5:
            return a
        if a >= i:
            return float(i)
        cut = i - EPS0
        if a <= cut:
            return (i - 0.5) + _integrate(self.A, i - 0.5, a)
        return ((i - 0.5) + _integrate(self.A, i - 0.5, cut)
                + _integrate(self.A, cut, a))

    def rho(self, a):
        return math.exp(-self.B(a))

    def rho_prime(self, a):
        return -self.A(a) * self.rho(a)

    def rho_second(self, a):
        return (self.A(a) ** 2 - self.A_prime(a)) * self.rho(a)

    def rho_curvatures(self, a):
        """(K(dx,dy), K(da,dx)) = (-(rho'/rho)^2, -rho''/rho)."""
        r = self.rho(a)
        return (-((self.rho_prime(a) / r) ** 2), -self.rho_second(a) / r)


def cyl_metric(cyl, a):
    """Metric matrix of a ``CylRho`` in (a, x, y) coordinates."""
    r2 = cyl.rho(a) ** 2
    return np.diag([1.0, r2, r2])


def cusp_metric(a):
    """Hyperbolic cusp metric da^2 + e^{-2a}(dx^2 + dy^2) in (a, x, y)."""
    return np.diag([1.0, math.exp(-2 * a), math.exp(-2 * a)])


def interior_angle(poly, k):
    """Angle of a ``PolygonP`` at vertex v_k between its two edges: 0 at
    the ideal (even) vertices, else from the edges' initial directions in
    the disk model, which is conformal."""
    if k % 2 == 0:
        return 0.0
    v = poly.vertex(k)

    def direction(z):
        w = (z - v) / (1.0 - v.conjugate() * z)
        return w / abs(w)

    d1, d2 = direction(poly.vertex(k + 1)), direction(poly.vertex(k - 1))
    return math.acos(max(-1.0, min(1.0, (d1 * d2.conjugate()).real)))


def angle_sum(poly):
    return sum(interior_angle(poly, 2 * i - 1) for i in range(1, poly.p + 1))


def reduction_to_vertical_plane(p, q, r):
    """Isometry taking the ideal points (p, q, r) to (0, i, infinity), so
    the totally geodesic plane through them becomes {x = 0}."""
    if is_infinity(p):
        m = Moebius(0, q - r, 1, -r)
    elif is_infinity(q):
        m = Moebius(1, -p, 1, -r)
    elif is_infinity(r):
        m = Moebius(1, -p, 0, q - p)
    else:
        m = Moebius(q - r, -p * (q - r), q - p, -r * (q - p))
    return Moebius(1j, 0, 0, 1).compose(m)


def plane_defect(g, sides):
    """Max |x| over the g-images of the sides' endpoints: a geodesic arc
    with both ends in the totally geodesic plane {x = 0} lies in it."""
    return max(abs(apply_h3(g, p).x) for c in sides for p in (c.start, c.end))


def penner_arcs(side_lengths):
    """The horocyclic arc at each vertex of a truncated ideal triangle from
    its side lengths alone, Penner's h-length (Comm. Math. Phys. 113, 1987):
    exp((l_opposite - l_adjacent - l_adjacent') / 2), where side i joins
    vertices i and i+1."""
    s = side_lengths
    return tuple(math.exp((s[(i + 1) % 3] - s[i] - s[i - 1]) / 2.0)
                 for i in range(3))


def _same_point(u, v, tol=1e-9):
    """Whether two points of C u {inf} coincide."""
    if is_infinity(u) or is_infinity(v):
        return is_infinity(u) and is_infinity(v)
    return abs(u - v) < tol


@dataclass(frozen=True)
class IdealTriangle:
    """Three pairwise distinct ideal vertices on the boundary sphere."""

    vertices: tuple

    def __post_init__(self):
        v = self.vertices
        if len(v) != 3:
            raise ValueError("need exactly three vertices")
        for i in range(3):
            for j in range(i + 1, 3):
                if _same_point(v[i], v[j], 1e-13):
                    raise ValueError("vertices must be pairwise distinct")


@dataclass
class Hexagon:
    """A truncated ideal triangle built geometrically: its horoballs, the
    three common perpendiculars ``sides`` between them (side i from vertex i
    to i+1), their lengths, the arcs at the vertices and the area."""

    triangle: IdealTriangle
    horoballs: tuple
    side_lengths: tuple
    arc_lengths: tuple
    area: float
    sides: tuple


def _arc_length_at_vertex(v, ball, u1, u2):
    """Horocyclic arc on the horosphere at vertex v between the edge
    geodesics toward the ideal points u1 and u2."""
    if is_infinity(v):
        a = ball.size
        return abs(u1 - u2) / a
    m = Moebius(0, -1, 1, -v)  # send v to infinity
    bp = image_horoball(m, ball)
    return abs(apply_boundary(m, u1) - apply_boundary(m, u2)) / bp.size


def truncate(tri, horoballs):
    """Cut a horoball neighborhood of each vertex off the ideal triangle.

    Side i is the cord between the horoballs at vertices i and i+1 and its
    length comes from ``common_perpendicular``; arc i sits on the
    horosphere at vertex i.  Area is pi minus the total arc length: each
    removed cusp region has hyperbolic area equal to the horocyclic arc
    bounding it.
    """
    if len(horoballs) != 3:
        raise ValueError("need exactly three horoballs")
    v = tri.vertices
    balls = tuple(horoballs)
    for i, (w, B) in enumerate(zip(v, balls)):
        if not _same_point(w, B.center):
            raise ValueError(f"horoball {i} is not centered at vertex {i}")
    sides = tuple(common_perpendicular(balls[i], balls[(i + 1) % 3])
                  for i in range(3))
    arcs = tuple(_arc_length_at_vertex(v[i], balls[i], v[(i + 1) % 3],
                                       v[(i + 2) % 3]) for i in range(3))
    return Hexagon(tri, balls, tuple(s.length for s in sides), arcs,
                   math.pi - sum(arcs), sides)


def hexagon_of(tri, a0):
    """``truncate`` applied to a catalog ``TruncatedTriangle``'s vertices,
    with {z >= a0} at vertex 0 = infinity and the ball of diameter
    a0 e^{-l} at vertices 1 and 2, l being the side that joins it to
    vertex 0."""
    v, s = tri.vertices, tri.side_lengths
    return truncate(IdealTriangle(v), (
        Horoball(v[0], a0), Horoball(v[1], a0 * math.exp(-s[0])),
        Horoball(v[2], a0 * math.exp(-s[2]))))


def geometric_catalog(rep, a0, Lmax, words):
    """``triangle_catalog``'s list by the geometric route: over the same
    disk of lattice vectors v, h2 = e0 p e1 as a Moebius product, its ball
    by ``image_horoball`` and each hexagon by ``truncate``, which rejects a
    tangent e0 or e1.  [] when none is found; no embedded-height or
    peripheral check."""
    e0, e1, e2 = (rep.evaluate(w) for w in words)
    cmax = math.exp(Lmax / 2.0) / a0
    if abs(e0.c) > cmax or abs(e1.c) > cmax:
        return []
    target = center_key(e2.inverse(), rep)
    B0 = Horoball(INFINITY, a0)
    B1 = image_horoball(e0, B0)
    mu, lam = rep.lattice_vectors()
    center = -(e1.a / e1.c + e0.d / e0.c)
    radius = cmax / abs(e0.c * e1.c) * (1.0 + 1e-9)
    found = []
    _, ms, ns = lattice_disks([center], [radius], mu, lam)
    for mi, ni in zip(ms.tolist(), ns.tolist()):
        h2 = e0.compose(Moebius(1, mi * mu + ni * lam, 0, 1)).compose(e1)
        ac = abs(h2.c)
        if not PERIPHERAL_TOL <= ac <= cmax or a0 * ac <= 1 + TANGENT_TOL:
            continue
        if center_key(h2, rep) != target:
            continue
        B2 = image_horoball(h2, B0)
        try:
            found.append(truncate(IdealTriangle((INFINITY, B1.center,
                                                 B2.center)), (B0, B1, B2)))
        except ValueError:
            continue  # tangent horoballs
    found.sort(key=lambda h: (sum(h.side_lengths), h.side_lengths))
    return found
