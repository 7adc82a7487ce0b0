"""Ideal triangles spanned by horoball-center triples, and truncated geodesic
triangles (right-angled hexagons bounded by three geodesic sides and three
horocyclic arcs)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cord_engine import TANGENT_TOL, check_embedded, common_perpendicular
from .isometry_group import (INFINITY, PERIPHERAL_TOL, GroupPresentation,
                             Horoball, Moebius, apply_boundary, center_key,
                             image_horoball, is_infinity, lattice_disks)


def _same_point(u, v, tol: float = 1e-9) -> bool:
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
class TruncatedTriangle:
    """Hexagon obtained from an ideal triangle by cutting off a horoball
    neighborhood of each vertex: three geodesic sides alternating with three
    horocyclic arcs, all corners right angles.

    ``side_lengths[i]`` is the geodesic side between vertices i and i+1;
    ``arc_lengths[i]`` is the horocyclic arc at vertex i.  By Gauss-Bonnet
    (geodesic sides, horocycle arcs of signed curvature -1 with respect to
    the region, six right angles) the area is pi minus the total arc length.
    """

    triangle: IdealTriangle
    horoballs: tuple
    side_lengths: tuple
    arc_lengths: tuple
    area: float
    sides: tuple = ()

    def to_dict(self) -> dict:
        return {
            "side_lengths": list(self.side_lengths),
            "arc_lengths": list(self.arc_lengths),
            "area": self.area,
        }


def _arc_length_at_vertex(v, ball: Horoball, u1, u2) -> float:
    """Horocyclic arc on the horosphere at vertex v between the edge
    geodesics toward the ideal points u1 and u2."""
    if is_infinity(v):
        a = ball.size
        return abs(u1 - u2) / a
    m = Moebius(0, -1, 1, -v)  # send v to infinity
    bp = image_horoball(m, ball)
    return abs(apply_boundary(m, u1) - apply_boundary(m, u2)) / bp.size


def truncate(tri: IdealTriangle, horoballs) -> TruncatedTriangle:
    """Cut a horoball neighborhood of each vertex off the ideal triangle.

    Side i is the cord between the horoballs at vertices i and i+1 and its
    length comes from the common-perpendicular engine; arc i sits on the
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
    sides = []
    for i in range(3):
        sides.append(common_perpendicular(balls[i], balls[(i + 1) % 3]))
    arcs = []
    for i in range(3):
        arcs.append(_arc_length_at_vertex(v[i], balls[i],
                                          v[(i + 1) % 3], v[(i + 2) % 3]))
    area = math.pi - sum(arcs)
    return TruncatedTriangle(tri, balls, tuple(s.length for s in sides),
                             tuple(arcs), area, tuple(sides))


def triangle_catalog(rep: GroupPresentation, a0: float, Lmax: float,
                     words) -> list:
    """Candidate geodesic triangles for a composable class triple.

    A chained horoball triple (B0, h1 B0, h2 B0) with B0 = {z >= a0}
    realizes the classes (e0, e1, e2) when h1 = e0 and h2 = e0 p e1 for a
    peripheral translation p by v, provided h2 lies in the double coset of
    the inverse of e2.  As c(e0 p e1) = c0 c1 (v + a1/c1 + d0/c0), the
    search runs v = m mu + n lam over ``lattice_disks``' list of the disk
    of radius e^{Lmax/2} / (a0 |c0| |c1|) about -(a1/c1 + d0/c0) (m, then
    n ascending) and keeps triples whose three cords are nondegenerate and
    no longer than Lmax.
    Purely geometric candidates; no holomorphic-triangle count is implied.

    a0 must be at least the embedded-height threshold of the group.
    """
    check_embedded(rep, a0)
    e0, e1, e2 = (rep.evaluate(w) for w in words)
    for w, g in zip(words, (e0, e1, e2)):
        if abs(g.c) < PERIPHERAL_TOL:
            raise ValueError(f"class {w!r} is peripheral (constant chord)")
    target = center_key(e2.inverse(), rep)
    B0 = Horoball(INFINITY, a0)
    cmax = math.exp(Lmax / 2.0) / a0
    mu, lam = rep.lattice_vectors()
    center = -(e1.a / e1.c + e0.d / e0.c)
    radius = cmax / abs(e0.c * e1.c) * (1.0 + 1e-9)
    B1 = image_horoball(e0, B0)
    found = []  # distinct v give distinct h2 B0, since e1 is not peripheral
    _, ms, ns = lattice_disks([center], [radius], mu, lam)
    for mi, ni in zip(ms.tolist(), ns.tolist()):
        v = mi * mu + ni * lam
        h2 = e0.compose(Moebius(1, v, 0, 1)).compose(e1)
        ac = abs(h2.c)
        if not PERIPHERAL_TOL <= ac <= cmax or a0 * ac <= 1 + TANGENT_TOL:
            continue
        if center_key(h2, rep) != target:
            continue
        B2 = image_horoball(h2, B0)
        tri = IdealTriangle((INFINITY, B1.center, B2.center))
        try:
            hexagon = truncate(tri, (B0, B1, B2))
        except ValueError:
            continue  # degenerate configuration (tangent horoballs)
        found.append(hexagon)
    if not found:
        raise ValueError(
            "classes are not composable within the length cutoff")
    found.sort(key=lambda h: (sum(h.side_lengths), h.side_lengths))
    return found
