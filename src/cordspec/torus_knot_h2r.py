"""H^2 x R geometry of (p,q)-torus-knot complements in S^3 and S^2 x S^1:
the symmetric 2p-gon with alternating ideal/interior vertices, parabolic
face pairings with R-shift bookkeeping, and cord-family enumeration over
the surface holonomy group."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .isometry_group import (INFINITY, Horoball, Moebius, _abs_c, _compose,
                             _entries, apply_boundary, image_horoball,
                             is_infinity, reduced_levels)


@dataclass(frozen=True)
class TorusKnotParams:
    """(p, q) torus knot in the chosen ambient manifold."""

    p: int
    q: int
    ambient: str = "s3"

    def __post_init__(self):
        if self.ambient not in ("s3", "s2xs1"):
            raise ValueError("ambient must be 's3' or 's2xs1'")
        if math.gcd(self.p, abs(self.q)) != 1:
            raise ValueError("p and q must be coprime")
        if self.ambient == "s3":
            if self.p < 2 or self.q < 2:
                raise ValueError("s3 torus knots require p, q >= 2")
        else:
            if not (self.p > abs(self.q) >= 2):
                raise ValueError("s2xs1 torus knots require p > |q| >= 2")

    def geometric_pq(self) -> tuple:
        """Presentation used for the polygon construction.

        The literal 2p-gon degenerates at p = 2 (its subdivision triangles
        have angle sum pi, so the interior vertices collapse to the center
        and the edge pairings become trivial).  Since the (p,q) and (q,p)
        torus knots in S^3 coincide, the geometric realization for p = 2
        uses the equivalent (q, 2) presentation.
        """
        if self.ambient == "s3" and self.p < 3:
            return self.q, self.p
        return self.p, self.q


@dataclass
class PolygonP:
    """Symmetric hyperbolic 2p-gon in the Poincare disk: vertices v_1..v_2p
    (stored with v_k = vertices[k-1]), even-index vertices ideal on the unit
    circle, odd-index vertices interior with angle 2 pi / p."""

    p: int
    vertices: list
    center_distance: float

    def is_ideal(self, k: int) -> bool:
        return k % 2 == 0

    def vertex(self, k: int) -> complex:
        return self.vertices[(k - 1) % (2 * self.p)]

    def interior_angle(self, k: int) -> float:
        """Measured angle at vertex v_k between its two polygon edges."""
        if self.is_ideal(k):
            return 0.0
        v = self.vertex(k)
        d1 = _disk_direction(v, self.vertex(k + 1))
        d2 = _disk_direction(v, self.vertex(k - 1))
        cosang = max(-1.0, min(1.0, (d1 * d2.conjugate()).real))
        return math.acos(cosang)

    def angle_sum(self) -> float:
        return sum(self.interior_angle(2 * i - 1) for i in range(1, self.p + 1))


def _disk_direction(z1: complex, z2: complex) -> complex:
    """Unit initial direction at z1 of the disk-model geodesic toward z2
    (the disk model is conformal, so Euclidean angles are hyperbolic)."""
    w = (z2 - z1) / (1.0 - z1.conjugate() * z2)
    return w / abs(w)


def build_polygon(p: int) -> PolygonP:
    """The 2p-gon assembled from 2p congruent (pi/p, pi/p, 0) triangles.

    Ideal vertices v_2i sit at disk angle 2 pi i / p; interior vertices
    v_{2i-1} halfway between at hyperbolic distance c from the center with
    cosh c = (1 + cos^2(pi/p)) / sin^2(pi/p), the finite side of the
    one-ideal-vertex triangle.  For p = 2 the triangles have angle sum pi
    and the polygon degenerates: c = 0 and the interior angles are pi.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    alpha = math.pi / p
    coshc = (1.0 + math.cos(alpha) ** 2) / math.sin(alpha) ** 2
    c = math.acosh(coshc)
    r = math.tanh(c / 2.0)
    verts = []
    for k in range(1, 2 * p + 1):
        ang = math.pi * k / p
        rad = 1.0 if k % 2 == 0 else r
        verts.append(rad * cmath.exp(1j * ang))
    return PolygonP(p, verts, c)


_CAYLEY = Moebius(1j, 1j, -1, 1)  # disk -> upper half plane, sends 1 to inf


def _to_halfplane(z: complex):
    """Cayley transform of a disk point; ideal vertex at disk point 1 maps
    to infinity."""
    if abs(z - 1.0) < 1e-13:
        return INFINITY
    return apply_boundary(_CAYLEY, z)


@dataclass
class FacePairing:
    """One face pairing of the fundamental domain P x [0, n]: an isometry
    of H^2 (real Moebius, upper half-plane model) times an R-shift."""

    name: str
    h2: Moebius
    shift: float


def _parabolic_through(fix, src, dst) -> Moebius:
    """The parabolic (half-plane) isometry fixing the ideal point ``fix``
    and mapping src to dst; src and dst must lie on a common horocycle
    about fix."""
    if is_infinity(fix):
        n = Moebius.identity()
    else:
        n = Moebius(0, -1, 1, -fix)
    a = apply_boundary(n, src)
    b = apply_boundary(n, dst)
    s = b - a
    if abs(s.imag) > 1e-9:
        raise ValueError("points are not on a common horocycle")
    t = Moebius(1, s.real, 0, 1)
    return n.inverse().compose(t).compose(n)


def face_pairings(params: TorusKnotParams) -> list:
    """Face pairings of D = P x [0, n] in the half-plane model.

    phi_i maps the oriented edge v_{2i-1} v_{2i} to v_{2i+1} v_{2i}; it is
    the parabolic fixing the ideal vertex v_{2i}.  tau rotates the polygon
    by 2 pi q / p.  R-shifts: (phi_i, tau) carry (1, q) for S^3 and (0, p)
    for S^2 x S^1.
    """
    p, q = params.geometric_pq()
    poly = build_polygon(p)
    out = []
    phi_shift = 1.0 if params.ambient == "s3" else 0.0
    for i in range(1, p + 1):
        fix = _to_halfplane(poly.vertex(2 * i))
        src = apply_boundary(_CAYLEY, poly.vertex(2 * i - 1))
        dst = apply_boundary(_CAYLEY, poly.vertex(2 * i + 1))
        out.append(FacePairing(f"phi{i}", _parabolic_through(fix, src, dst),
                               phi_shift))
    rot = cmath.exp(2j * math.pi * q / p)
    tau_disk = Moebius(rot, 0, 0, 1)
    tau = _CAYLEY.compose(tau_disk).compose(_CAYLEY.inverse())
    tau_shift = float(q) if params.ambient == "s3" else float(p)
    out.append(FacePairing("tau", tau, tau_shift))
    return out


def euler_char(params: TorusKnotParams) -> int:
    """Euler characteristic 2p + q - pq of the capped surface S_t-hat."""
    return 2 * params.p + params.q - params.p * params.q


@dataclass
class CordFamily:
    """An S^1-family of geodesic cords of the semi-horo-torus, one per
    nontrivial double coset; the whole circle of cords shares its length.
    ``shift`` is the net R-coordinate displacement of the representative
    word (the longitude-direction bookkeeping of the family tag)."""

    word: str
    source_cusp: int
    target_cusp: int
    length: float
    shift: float


def _cusp_horoballs(params: TorusKnotParams, y0: float) -> list:
    """Equivariant horodisk at each ideal vertex: the tau_1-rotates of the
    height-y0 horocycle at the vertex sent to infinity."""
    p, _ = params.geometric_pq()
    balls = []
    for j in range(1, p + 1):
        rot = cmath.exp(2j * math.pi * (j - p) / p)
        m = _CAYLEY.compose(Moebius(rot, 0, 0, 1)).compose(_CAYLEY.inverse())
        balls.append(image_horoball(m, Horoball(INFINITY, y0)))
    return balls


def enumerate_surface_cords(params: TorusKnotParams, Lmax: float,
                            y0: float = 4.0, max_word_len: int = 8,
                            max_elements: int = 500_000,
                            prune: bool = True) -> list:
    """Cord families with length <= Lmax, one per double coset of the cusp
    stabilizers in the surface holonomy group <phi_1, ..., phi_p>.

    Families are enumerated from the cusp at infinity: deduplicate image
    horodisks g . B_j by (diameter, center modulo the infinity-cusp
    translation); every cord between horodisk lifts of the boundary
    horocycles arises this way, and the p source cusps contribute
    rotation-equivalent copies (tau_1 conjugation permutes the phi_i), so
    each infinity-based family is reported once per source cusp.  A family
    is named by its first word in breadth-first order: shortest first, then
    lexicographic in the sorted letter labels "-1", ..., "-p", "1", ..., "p".
    The words come from ``isometry_group.reduced_levels``, one array
    frontier per word length, pruned on |c| unless ``prune`` is off.
    Deterministic order: by length rounded to 9 digits, then word, then
    source cusp, then target cusp.
    """
    p, _ = params.geometric_pq()
    pairings = face_pairings(params)[:p]
    table = {}
    for i, fp in enumerate(pairings, start=1):
        table[f"{i}"] = (fp.h2, fp.shift)
        table[f"-{i}"] = (fp.h2.inverse(), -fp.shift)
    labels = sorted(table)
    inverse = [labels.index(lab[1:] if lab.startswith("-") else "-" + lab)
               for lab in labels]
    letters = _entries([table[lab][0] for lab in labels])
    # B_j = m . {z >= t}, with m = None for the B_j at infinity
    balls = [(None, B.size) if B.is_at_infinity() else
             (_entries([Moebius(B.center, -1, 1, 0)])[:, 0], 1.0 / B.size)
             for B in _cusp_horoballs(params, y0)]
    phi = pairings[p - 1].h2  # a parabolic fixing infinity
    if abs(phi.c) > 1e-12:
        raise ValueError("not upper triangular")
    s_inf = abs((phi.b / phi.d).real)  # translation length at infinity
    dmin = math.exp(-Lmax) * y0  # emission bound on image diameters
    cmax = 8.0 / math.sqrt(dmin * y0)
    lo, hi = dmin - 1e-12, y0 * (1.0 - 1e-12)
    families = {}
    levels = []  # per word length: (parent row, last letter)

    def scan(g):
        """Register the families first reached by the newest level g."""
        found = []
        for j, (m, t) in enumerate(balls, start=1):
            r = np.abs(g[2]) if m is None else _abs_c(g, m)
            with np.errstate(divide="ignore"):
                near = 1.0 / (r * r * t)
            rows = np.flatnonzero((near >= lo * (1 - 1e-9))
                                  & (near <= hi * (1 + 1e-9)))
            h = g[:, rows] if m is None else _compose(g[:, rows], m)
            found += zip(rows.tolist(), [j] * len(rows), *h[[0, 2]].tolist())
        for row, j, a, c in sorted(found, key=lambda f: f[:2]):
            # diameter and center as image_horoball
            size = 1.0 / (abs(c) ** 2 * balls[j - 1][1])
            if size < lo or size > hi:
                continue  # too short, or tangent/overlapping: degenerate
            x = (a / c).real % s_inf
            key = (round(size, 9), round(min(x, s_inf - x), 8)
                   if x < 1e-8 or s_inf - x < 1e-8 else round(x, 8), j)
            if key not in families:
                families[key] = (len(levels) - 1, row, j,
                                 math.log(y0 / size))

    for g, parent, letter in reduced_levels(
            letters, inverse, cmax if prune else math.inf, max_word_len,
            max_elements):
        levels.append((parent, letter))
        scan(g)

    base = []
    for depth, row, j, ell in families.values():
        word = []
        for parent, letter in levels[depth:0:-1]:
            word.append(labels[letter[row]])
            row = parent[row]
        shift = sum((table[lab][1] for lab in word), 0.0)
        base.append(CordFamily(".".join(reversed(word)) or "e", p, j, ell,
                               shift))
    out = []
    for src in range(1, p + 1):  # rotation-equivalent copies per source cusp
        for f in base:
            tgt = (f.target_cusp + src - p - 1) % p + 1
            out.append(CordFamily(f.word, src, tgt, f.length, f.shift))
    out.sort(key=lambda f: (round(f.length, 9), f.word, f.source_cusp,
                            f.target_cusp))
    return out
