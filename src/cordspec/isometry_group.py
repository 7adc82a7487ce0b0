"""PSL(2,C) isometries of H^3: Moebius action, Poincare extension,
horoball images, presentation checks, and pruned word / double coset
enumeration for cusped-manifold holonomy groups."""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hyperbolic_core import PointH3

INFINITY = complex("inf")

_TOL = 1e-9
# g fixes infinity iff |c(g)| < PERIPHERAL_TOL: else |c| >= 1/|tau| (Shimizu)
PERIPHERAL_TOL = 1e-9


def is_infinity(w) -> bool:
    """Whether the boundary point w of C u {inf} is the point at infinity."""
    return not cmath.isfinite(w)


class Moebius:
    """An element of PSL(2,C): a det-1 matrix, defined up to sign."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        s = cmath.sqrt(a * d - b * c)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(1, 0, 0, 1)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    def compose(self, other: "Moebius") -> "Moebius":
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def trace(self) -> complex:
        return self.a + self.d

    def is_close(self, other: "Moebius", tol: float = _TOL) -> bool:
        """Equality in PSL: close to ``other`` or to its negative."""
        return any(max(abs(self.a - s * other.a), abs(self.b - s * other.b),
                       abs(self.c - s * other.c), abs(self.d - s * other.d))
                   < tol for s in (1, -1))

    def __repr__(self):
        return f"Moebius({self.a:.6g}, {self.b:.6g}, {self.c:.6g}, {self.d:.6g})"


def apply_boundary(g: Moebius, w):
    """Action on the boundary sphere C u {inf}."""
    if is_infinity(w):
        if abs(g.c) < 1e-15:
            return INFINITY
        return g.a / g.c
    den = g.c * w + g.d
    if abs(den) < 1e-15:
        return INFINITY
    return (g.a * w + g.b) / den


def apply_h3(g: Moebius, q: PointH3) -> PointH3:
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


def classify(g: Moebius, tol: float = 1e-8) -> str:
    """Classification by tr^2: identity, parabolic, elliptic, or loxodromic."""
    if g.is_close(Moebius.identity(), tol):
        return "identity"
    t2 = g.trace() ** 2
    if abs(t2 - 4) < tol:
        return "parabolic"
    if abs(t2.imag) < tol and -tol < t2.real < 4 + tol:
        return "elliptic"
    return "loxodromic"


@dataclass(frozen=True)
class Horoball:
    """Horoball with ideal center; size is the height a0 if the center is
    infinity, else the Euclidean diameter."""

    center: complex
    size: float

    def __post_init__(self):
        if not self.size > 0:
            raise ValueError("horoball size must be positive")

    def is_at_infinity(self) -> bool:
        return is_infinity(self.center)


def image_horoball(g: Moebius, B: Horoball) -> Horoball:
    """Image of a horoball under an isometry.

    For B = {z >= a0} and c != 0 the image is the ball at a/c with
    Euclidean diameter 1/(|c|^2 a0); finite centers are handled by
    factoring off the standard map sending infinity to the center.
    """
    if B.is_at_infinity():
        if abs(g.c) < PERIPHERAL_TOL:
            # g fixes infinity; heights scale by |a|^2 (since ad = 1)
            return Horoball(INFINITY, B.size * abs(g.a) ** 2)
        return Horoball(g.a / g.c, 1.0 / (abs(g.c) ** 2 * B.size))
    # B = m . {z >= 1/diam} with m = [[w0, -1], [1, 0]]
    m = Moebius(B.center, -1, 1, 0)
    return image_horoball(g.compose(m), Horoball(INFINITY, 1.0 / B.size))


@dataclass
class GroupPresentation:
    """Holonomy data: matrix generators, relators, peripheral words."""

    name: str
    generators: list  # list of Moebius, one per lowercase letter a, b, ...
    relators: list  # list of words
    meridian: str
    longitude: str
    cusp_lattice: list = field(default_factory=list)  # [[m_re, m_im], [l_re, l_im]]
    # set by cord_engine.embedded_height on first use
    embedded_height: float | None = field(default=None, init=False,
                                          compare=False, repr=False)

    def letters(self) -> dict:
        table = {}
        for i, g in enumerate(self.generators):
            lo = chr(ord("a") + i)
            table[lo] = g
            table[lo.upper()] = g.inverse()
        return table

    def evaluate(self, word: str) -> Moebius:
        """The product of the letters of ``word``; uppercase means inverse."""
        table = self.letters()
        out = Moebius.identity()
        for ch in word:
            out = out.compose(table[ch])
        return out

    def lattice_vectors(self) -> tuple:
        (m1, m2), (l1, l2) = self.cusp_lattice
        return complex(m1, m2), complex(l1, l2)


def load_presentation(path) -> GroupPresentation:
    with open(path) as f:
        data = json.load(f)
    gens = []
    for gd in data["generators"]:
        a, b = complex(*gd["a"]), complex(*gd["b"])
        c, d = complex(*gd["c"]), complex(*gd["d"])
        gens.append(Moebius(a, b, c, d))
    return GroupPresentation(
        name=data.get("name", "unnamed"),
        generators=gens,
        relators=list(data["relators"]),
        meridian=data["meridian"],
        longitude=data["longitude"],
        cusp_lattice=data["cusp_lattice"],
    )


def verify_presentation(rep: GroupPresentation, tol: float = 1e-8) -> dict:
    """Check relators, peripheral parabolicity, and peripheral commutation.

    Returns a report dict with residuals and boolean flags; never raises
    on a failed check.
    """
    report = {"name": rep.name, "relator_residuals": [], "flags": {}, "ok": True}
    ident = Moebius.identity()
    for w in rep.relators:
        m = rep.evaluate(w).matrix()
        res = min(np.abs(m - np.eye(2)).max(), np.abs(m + np.eye(2)).max())
        report["relator_residuals"].append(float(res))
        if res > tol:
            report["ok"] = False
    flags = report["flags"]
    mer = rep.evaluate(rep.meridian)
    lon = rep.evaluate(rep.longitude)
    for label, g in (("meridian", mer), ("longitude", lon)):
        flags[f"{label}_parabolic"] = classify(g, tol) == "parabolic"
        flags[f"{label}_fixes_infinity"] = abs(g.c) < tol
    comm = mer.compose(lon).compose(mer.inverse()).compose(lon.inverse())
    flags["peripheral_commute"] = comm.is_close(ident, tol)
    if rep.cusp_lattice:
        mu, lam = rep.lattice_vectors()
        flags["lattice_matches_meridian"] = abs(mer.b / mer.a - mu) < tol
        flags["lattice_matches_longitude"] = abs(lon.b / lon.a - lam) < tol
        flags["lattice_nondegenerate"] = abs((mu.conjugate() * lam).imag) > tol
    for k, v in flags.items():
        if not v:
            report["ok"] = False
    return report


class BudgetExceeded(RuntimeError):
    pass


# A row of Moebius maps is one column (a, b, c, d) of a complex (4, n) array.

def _entries(maps) -> np.ndarray:
    return np.array([[m.a, m.b, m.c, m.d] for m in maps], dtype=complex).T


def _compose(g, m) -> np.ndarray:
    """Columns of g . m, divided by sqrt(ad - bc) as Moebius.__init__ does."""
    h = np.array([g[0] * m[0] + g[1] * m[2], g[0] * m[1] + g[1] * m[3],
                  g[2] * m[0] + g[3] * m[2], g[2] * m[1] + g[3] * m[3]])
    return h / np.sqrt(h[0] * h[3] - h[1] * h[2])


def _psl_keys(g) -> list:
    """The PSL key of each row as bytes: entries rounded to 8 digits,
    negated where the first nonzero one is negative, so g and -g agree."""
    k = np.rint(np.ascontiguousarray(g.T).view(float) * 1e8)
    first = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
    k = np.ascontiguousarray(k * np.where(first < 0, -1.0, 1.0)[:, None] + 0.0)
    return k.view(np.dtype((np.void, k.strides[0]))).ravel().tolist()


def reduced_levels(letters, inverse, keep, max_elements: int,
                   max_word_len: int | None = None):
    """Breadth-first search over the freely reduced words in the k rows of
    ``letters`` (complex, or real for a group in PSL(2, R)), where letter
    inverse[i] cancels letter i.  Yields each level as (rows, parent row,
    last letter), the identity first (parent None).  Within a level the
    words are in shortlex order: by parent row, then by letter.
    A word is kept if ``keep(h)``, a bool mask over the child columns h
    (called on blocks of them), accepts its element.
    - With ``max_word_len``, every such word is a row, up to that many
      letters, and an element may recur under later words: its first
      row is its shortlex-least kept word.
    - Without it, a word is dropped when its element was kept before, in
      PSL, and the search stops at a level that adds nothing.
    Raises BudgetExceeded past ``max_elements`` kept rows."""
    k = letters.shape[1]
    inverse = np.append(inverse, -1)  # the identity's last letter k has none
    g = np.array([[1], [0], [0], [1]], dtype=letters.dtype)  # the identity
    last = np.array([k])
    yield g, None, last
    seen = set(_psl_keys(g)) if max_word_len is None else None
    kept = 0
    for _ in (itertools.count() if max_word_len is None
              else range(max_word_len)):
        # every row times every letter; keep runs on blocks of columns
        # small enough to stay in cache
        h = _compose(g[:, :, None], letters[:, None]).reshape(4, -1)
        ok = np.concatenate([keep(h[:, i:i + 4096])
                             for i in range(0, h.shape[1], 4096)])
        ok &= (np.arange(k) != inverse[last][:, None]).ravel()
        parent, letter = np.divmod(np.flatnonzero(ok), k)
        h = h[:, ok]
        if seen is not None:
            new = []
            for i, key in enumerate(_psl_keys(h)):
                if key not in seen:
                    seen.add(key)
                    new.append(i)
            h, parent, letter = h[:, new], parent[new], letter[new]
        kept += h.shape[1]
        if kept > max_elements:
            raise BudgetExceeded(f"element cap {max_elements} exceeded")
        if not h.shape[1]:
            return
        g, last = h, letter
        yield g, parent, last


def spell(levels, depth: int, rows, names) -> np.ndarray:
    """The words of ``rows`` (one row index, or an array of them) of level
    ``depth``, traced back through ``levels``, each level's (parent row,
    last letter) from ``reduced_levels``, the identity's level first.
    Returns ``names`` taken at the letters, first letter first: shape
    (depth,) for one row, (depth, n) for n rows."""
    word = []
    for parent, letter in levels[depth:0:-1]:
        word.append(letter[rows])
        rows = parent[rows]
    return np.asarray(names)[np.array(word[::-1], dtype=int)]


def enumerate_elements(rep: GroupPresentation, max_radius: float,
                       a0: float = 1.0, max_word_len: int = 14,
                       max_elements: int = 2_000_000,
                       margin: float = 8.0):
    """The levels of ``reduced_levels`` over the freely reduced words in
    the generators, letter i being ``sorted(rep.letters())[i]``.

    A cord of length at most max_radius has a0*|c| <= e^{max_radius/2}.
    Prefixes whose |c| exceeds that bound by ``margin`` are pruned: for
    discrete cusped holonomies |c| grows along reduced words once it leaves
    the peripheral subgroup, and the margin absorbs the non-monotone steps
    (validated against an unpruned oracle in the tests).  The rows within
    the margin stay in their level; callers select their own.
    """
    cmax = math.exp(max_radius / 2.0) / a0
    table = rep.letters()
    names = sorted(table)
    return reduced_levels(_entries(table[ch] for ch in names),
                          [names.index(ch.swapcase()) for ch in names],
                          lambda h: np.abs(h[2]) <= margin * cmax,
                          max_elements, max_word_len)


def _lattice_coords(w, mu: complex, lam: complex) -> tuple:
    """(s, t) in [0, 1)^2 with w = s mu + t lam modulo Z mu + Z lam, for a
    complex w or an array of them."""
    det = mu.real * lam.imag - lam.real * mu.imag
    s = (w.real * lam.imag - lam.real * w.imag) / det
    t = (mu.real * w.imag - w.real * mu.imag) / det
    return s - (s + 1e-9) // 1.0, t - (t + 1e-9) // 1.0


def lattice_key(w, rep: GroupPresentation):
    """Class name s + it of a horoball center w = s mu + t lam (a complex or
    an array) modulo the cusp lattice: s, t rounded by ``np.round(., 6)``."""
    s, t = _lattice_coords(w, *rep.lattice_vectors())
    return np.round(s, 6) % 1.0 + 1j * (np.round(t, 6) % 1.0)


def center_key(g: Moebius, rep: GroupPresentation) -> complex:
    """The ``lattice_key`` of g's horoball center g(inf) = a/c: peripheral
    factors move a/c by lattice vectors, and no sign enters."""
    if abs(g.c) < PERIPHERAL_TOL:
        raise ValueError("peripheral element has no cord class")
    return lattice_key(g.a / g.c, rep)


def double_coset_canonical(g: Moebius, rep: GroupPresentation) -> Moebius:
    """Canonical representative of the peripheral double coset of g.

    Left/right multiplication by the cusp translations shifts a/c and d/c
    by lattice vectors without changing c; the representative puts both in
    the fundamental parallelogram of the cusp lattice and recomputes b from
    the determinant.  Idempotent up to sign.
    """
    if abs(g.c) < PERIPHERAL_TOL:
        raise ValueError("peripheral element has no cord class")
    mu, lam = rep.lattice_vectors()
    c = g.c
    s, t = _lattice_coords(g.a / c, mu, lam)
    a = (s * mu + t * lam) * c
    s, t = _lattice_coords(g.d / c, mu, lam)
    d = (s * mu + t * lam) * c
    b = (a * d - 1.0) / c
    return Moebius(a, b, c, d)
