"""PSL(2,C) isometries of H^3: Moebius action on the boundary sphere,
horoball images, presentation checks, the breadth-first word search, and
the Ford-descent flood over the cord classes of a cusped holonomy group."""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

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
        if abs(g.c) < PERIPHERAL_TOL:
            return INFINITY
        return g.a / g.c
    den = g.c * w + g.d
    if abs(den) < 1e-15:
        return INFINITY
    return (g.a * w + g.b) / den


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
    # set by ford_moves on first use
    moves: "FordMoves | None" = field(default=None, init=False,
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
    lattice = data["cusp_lattice"]
    try:
        (m1, m2), (l1, l2) = lattice
        lattice = [[float(m1), float(m2)], [float(l1), float(l2)]]
    except (TypeError, ValueError):
        raise ValueError(f"cusp_lattice {lattice!r} is not two 2-vectors") \
            from None
    return GroupPresentation(
        name=data.get("name", "unnamed"),
        generators=gens,
        relators=list(data["relators"]),
        meridian=data["meridian"],
        longitude=data["longitude"],
        cusp_lattice=lattice,
    )


def verify_presentation(rep: GroupPresentation, tol: float = 1e-8) -> dict:
    """Check relators, peripheral parabolicity, peripheral commutation, and
    the cusp lattice, which must be present.

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
    try:
        mu, lam = rep.lattice_vectors()
    except (TypeError, ValueError):  # no lattice, or not two 2-vectors
        flags["lattice_present"] = False
    else:
        flags["lattice_present"] = True
        flags["lattice_matches_meridian"] = abs(mer.b / mer.a - mu) < tol
        flags["lattice_matches_longitude"] = abs(lon.b / lon.a - lam) < tol
        flags["lattice_nondegenerate"] = abs((mu.conjugate() * lam).imag) > tol
    for k, v in flags.items():
        if not v:
            report["ok"] = False
    return report


class BudgetExceeded(RuntimeError):
    pass


class CoverError(RuntimeError):
    """The word search ended before the isometric disks of its classes
    covered the plane, so no flood over them is complete."""


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


def reduced_levels(letters, inverse, keep, max_elements: int):
    """Breadth-first search over the freely reduced words in the k rows of
    ``letters`` (complex, or real for a group in PSL(2, R)), where letter
    inverse[i] cancels letter i.  Yields each level as (rows, parent row,
    last letter), the identity first (parent None).  Within a level the
    words are in shortlex order: by parent row, then by letter.
    A word is kept if ``keep(h)``, a bool mask over the child columns h
    (called on blocks of them), accepts its element and that element was
    not kept before, in PSL; so each element's row carries its
    shortlex-least kept word.  The search stops at a level that adds
    nothing, and raises BudgetExceeded past ``max_elements`` kept rows."""
    k = letters.shape[1]
    inverse = np.append(inverse, -1)  # the identity's last letter k has none
    g = np.array([[1], [0], [0], [1]], dtype=letters.dtype)  # the identity
    last = np.array([k])
    yield g, None, last
    seen = set(_psl_keys(g))
    kept = 0
    while True:
        # every row times every letter; keep runs on blocks of columns
        # small enough to stay in cache
        h = _compose(g[:, :, None], letters[:, None]).reshape(4, -1)
        ok = np.concatenate([keep(h[:, i:i + 4096])
                             for i in range(0, h.shape[1], 4096)])
        ok &= (np.arange(k) != inverse[last][:, None]).ravel()
        parent, letter = np.divmod(np.flatnonzero(ok), k)
        new = []
        for i, key in enumerate(_psl_keys(h[:, ok])):
            if key not in seen:
                seen.add(key)
                new.append(i)
        g, parent, last = h[:, ok][:, new], parent[new], letter[new]
        kept += len(new)
        if kept > max_elements:
            raise BudgetExceeded(f"element cap {max_elements} exceeded")
        if not new:
            return
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


def lattice_disks(centers, radii, mu: complex, lam: complex,
                  limit: int = 2_000_000) -> tuple:
    """The lattice vectors v = m mu + n lam with |v - centers[i]| <=
    radii[i], for arrays of disks, as arrays (i, m, n) ordered by disk,
    then m, then n ascending.  Each disk's m run over the range of its s
    coordinate, and each (disk, m) its n between the roots of
    |n lam - (center - m mu)| = radius.  Raises BudgetExceeded, before
    listing them, when there are more than ``limit`` vectors or (disk, m)
    rows."""
    centers = np.asarray(centers, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    det = mu.real * lam.imag - lam.real * mu.imag
    s = (centers.real * lam.imag - lam.real * centers.imag) / det
    ds = radii * abs(lam) / abs(det)  # the s coordinate's reach
    i, m = _runs(np.ceil(s - ds), np.floor(s + ds), limit)
    q = centers[i] - m * mu
    b = (q * lam.conjugate()).real / abs(lam) ** 2
    disc = b * b - (np.abs(q) ** 2 - radii[i] ** 2) / abs(lam) ** 2
    root = np.sqrt(np.maximum(disc, 0.0))
    j, n = _runs(np.where(disc >= 0, np.ceil(b - root), 1.0),
                 np.where(disc >= 0, np.floor(b + root), 0.0), limit)
    return i[j], m[j].astype(int), n.astype(int)


def _runs(lo, hi, limit: int) -> tuple:
    """(j, x): for each j in order, the integers x from lo[j] to hi[j];
    BudgetExceeded if there are more than ``limit``."""
    count = np.maximum(hi - lo + 1, 0)
    if count.sum() > limit:
        raise BudgetExceeded(f"lattice vector cap {limit} exceeded")
    count = count.astype(int)
    j = np.repeat(np.arange(len(count)), count)
    start = np.cumsum(count) - count
    return j, lo[j] + (np.arange(len(j)) - start[j])


# The most grid nodes that one cover check evaluates; past it the moves are
# treated as not covering, and the next |c| value joins them.
_COVER_NODES = 1 << 18
# The most elements the word search for the moves keeps: a safety stop only,
# as the figure-eight's moves are found among 52 elements and 5_2's among
# a few hundred
_MOVE_SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class FordMoves:
    """Classes k whose isometric disks |c_k| |w - k(inf) - v| < 1, v in
    the cusp lattice, cover the plane: their words, their elements as
    columns and the proven ``margin`` of the cover."""

    words: list
    entries: np.ndarray
    margin: float

    @property
    def least_c(self) -> float:
        return float(np.abs(self.entries[2]).min())


def cover_margin(rep: GroupPresentation, entries) -> float:
    """A lower bound on 1 - sup f over the plane, where f(w) is the least
    |c_k| |w - k(inf) - v| over the moves k (columns of ``entries``) and the
    lattice vectors v: positive exactly when it proves that the isometric
    disks cover the plane.

    f is periodic, and Lipschitz with constant M = max |c_k|.  On a grid
    over the fundamental parallelogram F whose nodes lie within r of every
    point of F, sup f <= max f(node) + M r.  A grid that leaves no proof
    but no node uncovered is refined to r <= (1 - max f(node)) / 2M, up to
    ``_COVER_NODES`` nodes; the bound of the last grid is returned."""
    mu, lam = rep.lattice_vectors()
    ac = np.abs(entries[2])
    z, M = entries[0] / entries[2], ac.max()
    # every disk translate that meets F, which lies in the disk about its
    # middle of radius half its longer diagonal
    mid = (mu + lam) / 2
    i, m, n = lattice_disks(mid - z, 1.0 / ac + max(abs(mu + lam),
                                                    abs(mu - lam)) / 2,
                            mu, lam)
    centers, scale = z[i] + m * mu + n * lam, ac[i]
    h = min(abs(mu), abs(lam)) / 8
    while True:
        ns, nt = math.ceil(abs(mu) / h), math.ceil(abs(lam) / h)
        r = (abs(mu) / ns + abs(lam) / nt) / 2
        nodes = (np.arange(ns + 1)[:, None] / ns * mu
                 + np.arange(nt + 1) / nt * lam).ravel()
        f = max(float((scale * np.abs(block[:, None] - centers)).min(axis=1)
                      .max()) for block in np.split(
                          nodes, range(4096, len(nodes), 4096)))
        bound = float(1.0 - f - M * r)
        if bound > 0 or f >= 1.0:
            return bound
        h = min(h / 2, (1.0 - f) / (2 * M))
        if (abs(mu) / h + 2) * (abs(lam) / h + 2) > _COVER_NODES:
            return bound


def ford_moves(rep: GroupPresentation) -> FordMoves:
    """The moves of the flood, found once per presentation and kept on it.

    A breadth-first search over the reduced words, deduplicated in PSL,
    collects the non-peripheral classes by ``lattice_key``, each with its
    shortlex-least word.  After each level the classes are taken in order
    of |c| (rounded to 9 digits), a whole |c| value at a time, and the
    first prefix whose disks pass ``cover_margin`` is the moves.  Raises
    CoverError when the search ends with no such prefix, BudgetExceeded
    past its element budget."""
    if rep.moves is not None:
        return rep.moves
    table = rep.letters()
    names = sorted(table)
    levels, known, words, found = [], np.empty(0, complex), [], []
    for g, parent, letter in reduced_levels(
            _entries(table[ch] for ch in names),
            [names.index(ch.swapcase()) for ch in names],
            lambda h: np.ones(h.shape[1], bool), _MOVE_SEARCH_BUDGET):
        levels.append((parent, letter))
        rows = np.flatnonzero(np.abs(g[2]) >= PERIPHERAL_TOL)
        keys, first = np.unique(lattice_key(g[0, rows] / g[2, rows], rep),
                                return_index=True)
        new = ~np.isin(keys, known, assume_unique=True)
        if not new.any():
            continue
        known = np.concatenate([known, keys[new]])
        rows = np.sort(rows[first[new]])  # shortlex order
        words += ["".join(w) for w in
                  spell(levels, len(levels) - 1, rows, names).T.tolist()]
        found.append(g[:, rows])
        entries = np.concatenate(found, axis=1)
        ac = np.round(np.abs(entries[2]), 9)
        order = np.argsort(ac, kind="stable")
        # the prefixes that end with a whole |c| value
        for end in np.flatnonzero(np.diff(np.append(ac[order], np.inf))):
            prefix = order[:end + 1]
            margin = cover_margin(rep, entries[:, prefix])
            if margin > 0:
                rep.moves = FordMoves([words[i] for i in prefix],
                                      entries[:, prefix], margin)
                return rep.moves
    raise CoverError(f"the classes of {rep.name}'s word search do not "
                     "cover the plane with their isometric disks")


def _join(u: str, v: str) -> str:
    """The reduced words u and v concatenated, reduced at the join."""
    if not (u and v and u[-1] == v[0].swapcase()):
        return u + v
    i, n = 1, min(len(u), len(v))
    while i < n and u[-1 - i] == v[i].swapcase():
        i += 1
    return u[:len(u) - i] + v[i:]


def enumerate_elements(rep: GroupPresentation, max_radius: float,
                       a0: float = 1.0, max_elements: int = 2_000_000):
    """The Ford-descent flood over the cord classes g with
    |c| <= cmax = e^{max_radius/2} / a0: yields each level as (entries,
    words, steps tried), the level's new classes in ``lattice_key`` order.

    With the moves K of ``ford_moves``, every class descends to the cusp
    through strictly smaller |c|: its center w lies in a disk of a move k,
    and k^{-1} T_{-v} g has |c| = |c_g| |c_k| |w - k(inf) - v| < |c_g|.
    Read backwards, every class is reached from the identity by steps
    g -> k T_v g along which |c| rises, and stays <= cmax.  Level 1 is the
    moves; a step from g takes each move k and each v = m mu + n lam in the
    disk |v + a_g/c_g + d_k/c_k| <= cmax / (|c_g| |c_k|), where
    c(k T_v g) = c_g c_k (v + a_g/c_g + d_k/c_k), and keeps the steps whose
    |c| rises.  A class is kept once, by the first step that reaches it:
    parents in key order, then moves, then lattice vectors in the order of
    ``lattice_disks``; only those steps are composed.  Its word is the
    move's word, then meridian^m longitude^n, then the parent's word, each
    join freely reduced.  Every candidate parent has smaller |c|, so the
    word depends neither on cmax nor on a0.  The flood stops at a level
    that adds no class, and raises BudgetExceeded past ``max_elements``
    steps tried."""
    moves = ford_moves(rep)
    cmax = math.exp(max_radius / 2.0) / a0 * (1.0 + 1e-9)
    mu, lam = rep.lattice_vectors()
    k = moves.entries
    kc = np.abs(k[2])
    shift = k[3] / k[2]

    def prefix(j, m, n):
        """The move's word, then meridian^m longitude^n."""
        t = moves.words[j]
        for w, e in ((rep.meridian, m), (rep.longitude, n)):
            for _ in range(abs(e)):
                t = _join(t, w if e > 0 else w[::-1].swapcase())
        return t

    rows = np.flatnonzero(kc <= cmax)
    keys = lattice_key(k[0, rows] / k[2, rows], rep)
    order = np.argsort(keys)
    g, known = k[:, rows[order]], keys[order]
    words = [moves.words[j] for j in rows[order].tolist()]
    steps = tried = len(kc)
    while words:
        yield g, words, steps
        w, gc = g[0] / g[2], np.abs(g[2])
        centers = -(w[:, None] + shift).ravel()
        try:
            disk, m, n = lattice_disks(
                centers, (cmax / np.outer(gc, kc)).ravel(), mu, lam,
                max_elements - tried)
        except BudgetExceeded:
            raise BudgetExceeded(f"step cap {max_elements} exceeded") from None
        steps = len(disk)
        tried += steps
        parent, j = np.divmod(disk, len(kc))
        v = m * mu + n * lam
        rise = np.flatnonzero(np.abs(v - centers[disk]) * kc[j]
                              > 1.0 + 1e-9)
        z = w[parent[rise]] + v[rise]
        kj = k[:, j[rise]]
        keys, first = np.unique(lattice_key((kj[0] * z + kj[1])
                                            / (kj[2] * z + kj[3]), rep),
                                return_index=True)
        new = ~np.isin(keys, known, assume_unique=True)
        known = np.concatenate([known, keys[new]])
        step = rise[first[new]]  # the first step into each new class
        # k T_v g, with T_v g = [[a + v c, b + v d], [c, d]]
        p, vs = g[:, parent[step]], v[step]
        g = _compose(k[:, j[step]], np.array([p[0] + vs * p[2],
                                              p[1] + vs * p[3], p[2], p[3]]))
        # one integer code per (move, m, n), so each prefix is spelled once
        js, ms, ns = j[step], m[step], n[step]
        m0, n0 = ms.min(initial=0), ns.min(initial=0)
        span_m, span_n = ms.max(initial=0) - m0 + 1, ns.max(initial=0) - n0 + 1
        _, first, at = np.unique((js * span_m + ms - m0) * span_n + ns - n0,
                                 return_index=True, return_inverse=True)
        heads = [prefix(*x) for x in zip(
            js[first].tolist(), ms[first].tolist(), ns[first].tolist())]
        words = [_join(heads[i], words[q])
                 for i, q in zip(at.tolist(), parent[step].tolist())]


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
    the determinant.  Idempotent up to sign."""
    if abs(g.c) < PERIPHERAL_TOL:
        raise ValueError("peripheral element has no cord class")
    mu, lam = rep.lattice_vectors()
    c = g.c
    s, t = _lattice_coords(g.a / c, mu, lam)
    a = (s * mu + t * lam) * c
    s, t = _lattice_coords(g.d / c, mu, lam)
    d = (s * mu + t * lam) * c
    return Moebius(a, (a * d - 1.0) / c, c, d)
