"""Truncated geodesic triangles (right-angled hexagons bounded by three
geodesic sides and three horocyclic arcs) spanned by cord-class triples, in
closed form from the three |c| values."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cord_engine import TANGENT_TOL, check_embedded
from .isometry_group import (INFINITY, PERIPHERAL_TOL, GroupPresentation,
                             center_key, lattice_disks, lattice_key)


@dataclass
class TruncatedTriangle:
    """Hexagon obtained from an ideal triangle by cutting off a horoball
    neighborhood of each vertex: three geodesic sides alternating with three
    horocyclic arcs, all corners right angles.

    ``side_lengths[i]`` is the geodesic side between ``vertices[i]`` and
    ``vertices[i+1]``; ``arc_lengths[i]`` is the horocyclic arc at vertex
    i.  Vertex 0 is infinity, with the horoball {z >= a0}; the horoball at
    a finite vertex has diameter a0 e^{-l} for the side l from vertex 0.
    By Gauss-Bonnet (geodesic sides, horocycle arcs of signed curvature -1
    with respect to the region, six right angles) the area is pi minus the
    total arc length.
    """

    vertices: tuple
    side_lengths: tuple
    arc_lengths: tuple
    area: float

    def to_dict(self) -> dict:
        return {
            "side_lengths": list(self.side_lengths),
            "arc_lengths": list(self.arc_lengths),
            "area": self.area,
        }


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
    no longer than Lmax; h2's vertex is h2(inf) = e0(a1/c1 + v).
    With lambda = a0 |c| for the classes of e0, e1 and h2, the sides are
    2 ln(lambda) and the arc at vertex i is Penner's h-length
    lambda_{i+1} / (lambda_i lambda_{i-1}).
    Purely geometric candidates; no holomorphic-triangle count is implied.

    a0 must be at least the embedded-height threshold of the group.
    """
    check_embedded(rep, a0)
    e0, e1, e2 = (rep.evaluate(w) for w in words)
    for w, g in zip(words, (e0, e1, e2)):
        if abs(g.c) < PERIPHERAL_TOL:
            raise ValueError(f"class {w!r} is peripheral (constant chord)")
    cmax = math.exp(Lmax / 2.0) / a0

    def short(ac):  # |c| of a nondegenerate cord no longer than Lmax
        return ((PERIPHERAL_TOL <= ac) & (ac <= cmax)
                & (a0 * ac > 1 + TANGENT_TOL))

    found = []
    if short(abs(e0.c)) and short(abs(e1.c)):
        mu, lam = rep.lattice_vectors()
        radius = cmax / abs(e0.c * e1.c) * (1.0 + 1e-9)
        _, ms, ns = lattice_disks([-(e1.a / e1.c + e0.d / e0.c)], [radius],
                                  mu, lam)
        w = e1.a / e1.c + (ms * mu + ns * lam)  # p e1 (inf)
        ac = np.abs(e1.c * (e0.c * w + e0.d))  # |c(h2)|
        rows = short(ac)
        w, ac = w[rows], ac[rows]
        ends = (e0.a * w + e0.b) / (e0.c * w + e0.d)  # h2(inf)
        rows = lattice_key(ends, rep) == center_key(e2.inverse(), rep)
        ends, ac = ends[rows].tolist(), ac[rows]
        lams = a0 * np.stack(np.broadcast_arrays(abs(e0.c), abs(e1.c), ac))
        sides = 2.0 * np.log(lams)
        arcs = np.roll(lams, -1, 0) / (lams * np.roll(lams, 1, 0))
        found = [TruncatedTriangle((INFINITY, e0.a / e0.c, end), tuple(s),
                                   tuple(a), math.pi - sum(a))
                 for end, s, a in zip(ends, sides.T.tolist(),
                                      arcs.T.tolist())]
    if not found:
        raise ValueError(
            "classes are not composable within the length cutoff")
    found.sort(key=lambda h: (sum(h.side_lengths), h.side_lengths))
    return found
