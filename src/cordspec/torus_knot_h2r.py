"""H^2 x R geometry of (p,q)-torus-knot complements in S^3 and S^2 x S^1:
the symmetric 2p-gon with alternating ideal/interior vertices, parabolic
face pairings with R-shift bookkeeping, and cord-family enumeration over
the surface holonomy group."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .isometry_group import (INFINITY, Horoball, Moebius, _compose,
                             _entries, apply_boundary, image_horoball,
                             is_infinity, reduced_levels, spell)


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

    def vertex(self, k: int) -> complex:
        return self.vertices[(k - 1) % (2 * self.p)]


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


def _reaches(x, y, u0, u1, t):
    """Whether the point (x, y) of the half-plane, or one of the geodesic
    arcs from it down to the real points u0 and u1 (NaN: no arc), reaches
    height t.  An arc to u does when |x - u| >= t + sqrt(t^2 - y^2): then
    its circle has radius >= t and its apex lies on the arc."""
    reach = t + np.sqrt(np.maximum(t * t - y * y, 0.0))
    return (y >= t) | (np.fmax(np.abs(x - u0), np.abs(x - u1)) >= reach)


def enumerate_surface_cords(params: TorusKnotParams, Lmax: float,
                            y0: float = 4.0,
                            max_elements: int = 500_000) -> list:
    """Cord families with length <= Lmax, one per double coset of the cusp
    stabilizers in the surface holonomy group <phi_1, ..., phi_p>.

    Families are enumerated from the cusp at infinity: deduplicate image
    horodisks g . B_j by (diameter, center modulo the infinity-cusp
    translation s); every cord between horodisk lifts of the boundary
    horocycles arises this way, and the p source cusps contribute
    rotation-equivalent copies (tau_1 conjugation permutes the phi_i), so
    each infinity-based family is reported once per source cusp.

    The search is a breadth-first walk over the tiles gP of the polygon P
    of ``build_polygon`` in the half-plane, whose ideal vertex v_2p is at
    infinity; the tile gP borders the tiles g phi_i^{+-1} P, the children
    of g in ``isometry_group.reduced_levels``.  The walk stops at a level
    that adds nothing; BudgetExceeded past ``max_elements`` tiles is only a
    safety stop.
    - Tile rule: gP is kept when its height, the greatest of its vertex
      heights and of the tops of its edge arcs (infinite when g sends a
      vertex to infinity), reaches y0 e^{-Lmax}, and the x-range of its
      finite vertex images meets P's period window [x_L, x_L + s].  The
      tiles that meet the convex strip {x_L <= x <= x_L + s,
      y >= y0 e^{-Lmax}} are edge-connected, and all are kept.  Each family
      horodisk has a translate whose top lies in the strip, in a tile at
      the disk's cusp, because y0 lies above P's finite part and so each
      B_j lies in the tiles at its cusp (ValueError otherwise).
    - Stabilizer rule: a family is a double coset, so a row whose last
      letter is phi_j^{+-1} is not scanned for B_j; its parent was.
    - Naming rule: a family's word is the first word in breadth-first order
      (shortest first, then lexicographic in the sorted letter labels "-1",
      ..., "-p", "1", ..., "p") among the words whose tiles are kept, and
      its ``shift`` follows that word.
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
    # the cusp j whose phi_j each letter is, and 0 for the identity
    cusp = np.array([abs(int(lab)) for lab in labels] + [0])
    # PSL(2, R) up to rounding: the walk runs on the real parts
    letters = _entries([table[lab][0] for lab in labels]).real
    # B_j = m . {z >= t}, with m = None for the B_j at infinity
    balls = [(None, B.size) if B.is_at_infinity() else
             (_entries([Moebius(B.center, -1, 1, 0)])[:, 0].real, 1.0 / B.size)
             for B in _cusp_horoballs(params, y0)]
    phi = pairings[p - 1].h2  # a parabolic fixing infinity
    if abs(phi.c) > 1e-12:
        raise ValueError("not upper triangular")
    s_inf = abs((phi.b / phi.d).real)  # translation length at infinity
    # P's vertices in the half-plane: interior v_1, v_3, ..., v_2p-1 at
    # (vx, vy), ideal v_2, v_4, ..., v_2p-2 at e on R, and v_2p at infinity
    verts = [_to_halfplane(build_polygon(p).vertex(k))
             for k in range(1, 2 * p)]
    inner = np.array(verts[0::2])[:, None]
    vx, vy, e = inner.real, inner.imag, np.array(verts[1::2]).real[:, None]
    u = np.vstack([[np.nan], e, [np.nan]])  # the edges at v_2p are vertical
    if _reaches(vx, vy, u[:-1], u[1:], y0).any():
        raise ValueError("y0 must lie above the polygon's finite part")
    x_lo, x_hi = vx.min() - 1e-9, vx.max() + 1e-9  # the period window
    dmin = math.exp(-Lmax) * y0  # emission bound on image diameters
    lo, hi = dmin - 1e-12, y0 * (1.0 - 1e-12)

    def keep(h):
        """The tile rule on the tiles of the child columns h."""
        a, b, c, d = h[:, None]
        at_inf = np.abs(c[0]) < 1e-9  # g fixes infinity: infinite height
        with np.errstate(divide="ignore", invalid="ignore"):
            v2p = np.where(at_inf, np.nan, a / c)
        # ideal vertex images in the order v_2p, v_2, ..., v_2p-2, v_2p
        u = np.vstack([v2p, (a * e + b) / (c * e + d), v2p])
        den = (c * vx + d) ** 2 + (c * vy) ** 2
        x = ((a * vx + b) * (c * vx + d) + a * c * vy * vy) / den
        high = _reaches(x, vy / den, u[:-1], u[1:], dmin * (1 - 1e-9))
        return ((at_inf | high.any(axis=0))
                & (np.fmin(x.min(axis=0), np.fmin.reduce(u)) <= x_hi)
                & (np.fmax(x.max(axis=0), np.fmax.reduce(u)) >= x_lo))

    families = {}
    levels = []  # per word length: (parent row, last letter)
    for g, parent, letter in reduced_levels(letters, inverse, keep,
                                            max_elements):
        levels.append((parent, letter))
        found = []
        for j, (m, t) in enumerate(balls, start=1):
            h = g if m is None else _compose(g, m)
            with np.errstate(divide="ignore"):
                size = 1.0 / (np.abs(h[2]) ** 2 * t)
            rows = np.flatnonzero((size >= lo) & (size <= hi)
                                  & (cusp[letter] != j))
            found += zip(rows.tolist(), [j] * len(rows),
                         *h[:, rows][[0, 2]].tolist())
        for row, j, a, c in sorted(found, key=lambda f: f[:2]):
            # diameter and center as image_horoball
            size = 1.0 / (abs(c) ** 2 * balls[j - 1][1])
            x = (a / c) % s_inf
            key = (round(size, 9), round(min(x, s_inf - x), 8)
                   if x < 1e-8 or s_inf - x < 1e-8 else round(x, 8), j)
            if key not in families:
                families[key] = (len(levels) - 1, row, j,
                                 math.log(y0 / size))

    base = []
    for depth, row, j, ell in families.values():
        word = spell(levels, depth, row, labels)
        shift = sum((table[lab][1] for lab in word), 0.0)
        base.append(CordFamily(".".join(word) or "e", p, j, ell, shift))
    out = []
    for src in range(1, p + 1):  # rotation-equivalent copies per source cusp
        for f in base:
            tgt = (f.target_cusp + src - p - 1) % p + 1
            out.append(CordFamily(f.word, src, tgt, f.length, f.shift))
    out.sort(key=lambda f: (round(f.length, 9), f.word, f.source_cusp,
                            f.target_cusp))
    return out
