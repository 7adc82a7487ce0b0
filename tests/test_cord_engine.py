import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (common_perpendicular, cord_length, cord_point,
                     cord_velocity, from_vertical, vertical_cord, z_profile,
                     z_profile_residual)

from cordspec import cord_engine as ce
from cordspec.hyperbolic_core import distance
from cordspec.isometry_group import (INFINITY, Horoball, Moebius,
                                     center_key, image_horoball)

A0 = 1.2


def test_vertical_cord_geometry():
    cord = from_vertical(2.0, 1 + 1j, 0.8)
    assert cord.start.z == 2.0
    assert abs(cord.end.z - 2.0 * math.exp(-0.8)) < 1e-15
    assert abs(distance(cord.start, cord.end) - 0.8) < 1e-12
    # constant speed: d(c(0), c(t)) = t * length
    for t in (0.25, 0.5, 0.9):
        d = distance(cord_point(cord, 0), cord_point(cord, t))
        assert abs(d - t * 0.8) < 1e-12


def test_common_perpendicular_matches_closed_form(fig8):
    B0 = Horoball(INFINITY, A0)
    for word in ("b", "ab", "bA", "abb"):
        g = fig8.evaluate(word)
        cord = common_perpendicular(B0, image_horoball(g, B0))
        assert abs(cord.length - cord_length(g, A0)) < 1e-10


def test_common_perpendicular_orthogonal_endpoints():
    B0 = Horoball(INFINITY, 2.0)
    B1 = Horoball(0.7 - 0.3j, 0.4)
    cord = common_perpendicular(B0, B1)
    # endpoint 0 on the horosphere at infinity: velocity purely vertical
    v0 = cord_velocity(cord, 0.0)
    assert math.hypot(v0[0], v0[1]) < 1e-5 * abs(v0[2])
    assert abs(cord.start.z - 2.0) < 1e-10
    # endpoint 1 on the sphere: velocity parallel to the radial direction
    c = np.array([B1.center.real, B1.center.imag, B1.size / 2])
    rad = cord.end.coords() - c
    v1 = cord_velocity(cord, 1.0)
    cosang = abs(rad @ v1) / (np.linalg.norm(rad) * np.linalg.norm(v1))
    assert cosang > 1.0 - 1e-8


def test_degenerate_horoballs_rejected():
    B0 = Horoball(INFINITY, 1.0)
    with pytest.raises(ValueError):
        common_perpendicular(B0, Horoball(0j, 1.0))  # tangent
    with pytest.raises(ValueError):
        common_perpendicular(B0, Horoball(INFINITY, 2.0))
    with pytest.raises(ValueError):
        common_perpendicular(Horoball(1j, 0.3), Horoball(1j, 0.2))


@pytest.mark.parametrize("excess", [1e-10, 5e-10, 1e-8])
def test_common_perpendicular_decides_tangency_as_cord_length(excess):
    # a0 |c| = 1 + excess; the first two lie in the band that TANGENT_TOL
    # rejects and that a bare d >= a0 - 1e-12 test let through
    g = Moebius(0, -1 / (1 + excess), 1 + excess, 0)
    B0 = Horoball(INFINITY, 1.0)
    h = Moebius(0, -1, 1, 2)  # moves both centers off infinity
    pairs = [(B0, image_horoball(g, B0)),
             (image_horoball(h, B0), image_horoball(h.compose(g), B0))]
    assert not pairs[1][0].is_at_infinity()
    if excess <= ce.TANGENT_TOL:
        for pair in pairs:
            with pytest.raises(ValueError, match="tangent"):
                common_perpendicular(*pair)
    else:
        for pair in pairs:
            cord = common_perpendicular(*pair)
            assert cord.length == pytest.approx(cord_length(g, 1.0),
                                                rel=1e-6)


def test_cord_between_finite_horoballs():
    B0, B1 = Horoball(0.3j, 0.5), Horoball(1.2 + 0j, 0.3)
    cord = common_perpendicular(B0, B1)
    assert cord.centers[0] == B0.center
    assert cord.centers[1] == B1.center
    ell = cord.length
    for t, end in ((0.0, cord.start), (1.0, cord.end)):
        assert np.abs(cord_point(cord, t).coords()
                      - end.coords()).max() < 1e-12
    ts = np.linspace(0.0, 1.0, 6)
    for s in ts:
        for t in ts:
            d = distance(cord_point(cord, s), cord_point(cord, t))
            assert abs(d - abs(t - s) * ell) < 1e-10
    # the velocity is along the radius of each horosphere at its endpoint
    for B, t, q in ((B0, 0.0, cord.start), (B1, 1.0, cord.end)):
        rad = q.coords() - np.array([B.center.real, B.center.imag, B.size / 2])
        v = cord_velocity(cord, t)
        cosang = abs(rad @ v) / (np.linalg.norm(rad) * np.linalg.norm(v))
        assert cosang > 1.0 - 1e-8


def test_z_profile_residual_and_bounds(fig8):
    for word in ("b", "aB", "bab"):
        cord = vertical_cord(fig8.evaluate(word), A0)
        assert z_profile_residual(cord) < 1e-10
        f0, b0 = z_profile(cord)
        assert abs(b0) <= f0 + 1e-12
        ell = cord.length
        fmax = max(1.0 / cord_point(cord, t).z for t in np.linspace(0, 1, 50))
        assert fmax <= f0 * math.cosh(ell) + abs(b0) * math.sinh(ell) + 1e-10


def test_max_embedded_height(fig8, five_two):
    assert ce.max_embedded_height(fig8) == pytest.approx(1.0, abs=1e-9)
    # 1 / |c| of the two classes of least |c| of 5_2
    assert ce.max_embedded_height(five_two) == pytest.approx(1 / 1.150964,
                                                             rel=1e-6)


def test_enumerate_cords_golden(fig8):
    spec = ce.enumerate_cords(fig8, A0, 4.0)
    # the Eisenstein count of eisenstein_classes below
    assert len(spec.words) == len(spec.lengths) == 1416
    assert spec.lengths[0] == pytest.approx(2 * math.log(A0), abs=1e-12)
    lengths = spec.lengths
    rounded = [round(ell, 9) for ell in lengths]
    assert rounded == sorted(rounded)
    for e in json.loads(spec.to_json())["entries"][:20]:
        assert e["energy"] == pytest.approx(0.5 * e["length"]**2)
        assert e["action"] == pytest.approx(-0.5 * e["length"]**2)
        assert e["f0"] == e["b0"] == pytest.approx(1 / A0)
    assert lengths[-1] <= 4.0 + 1e-9


def test_equal_lengths_ordered_by_word(fig8):
    # classes of one length differ in the last bits of their float lengths;
    # the order among them is by word, not by that rounding noise
    groups = {}
    spec = ce.enumerate_cords(fig8, A0, 4.0)
    for w, ell in zip(spec.words, spec.lengths):
        groups.setdefault(round(ell, 9), []).append(w)
    assert groups[round(2 * math.log(A0), 9)][:3] == ["B", "BAb", "Bab"]
    for words in groups.values():
        assert words == sorted(words)


def test_enumerate_cords_below_threshold_rejected(fig8):
    with pytest.raises(ValueError):
        ce.enumerate_cords(fig8, 0.5, 2.0)


def test_canonical_classes_deterministic(fig8):
    c1 = ce.canonical_classes(fig8, A0, 2.0)
    c2 = ce.canonical_classes(fig8, A0, 2.0)
    assert c1.words == c2.words and c1.lengths == c2.lengths
    assert len({center_key(fig8.evaluate(w), fig8) for w in c1.words}) \
        == len(c1.words)


def test_class_names_depend_on_neither_cutoff_nor_height(fig8):
    # a class is named by the first step that reaches it, and every step
    # into it comes from a class of smaller |c|
    names = {}
    for a0, L in ((A0, 4.0), (A0, 5.0), (1.5, 4.0 + 2 * math.log(1.5 / A0))):
        for w in ce.canonical_classes(fig8, a0, L).words:
            names.setdefault(center_key(fig8.evaluate(w), fig8),
                             set()).add(w)
    assert all(len(words) == 1 for words in names.values())


def test_classes_report_how_the_flood_found_them(fig8):
    classes = ce.canonical_classes(fig8, A0, 4.0)
    assert classes.stats == {
        "moves": 4, "least_c": pytest.approx(1.0), "cover_margin":
        ce.ford_moves(fig8).margin, "levels": 3, "steps": 5504,
        "kept": 1416, "stop": "exhausted"}
    assert ce.enumerate_cords(fig8, A0, 4.0).stats == classes.stats


# Oracle for the figure-eight spectrum.  Riley's holonomy lies in
# PSL(2, Z[w]), w = e^{2 pi i/3}, and both groups have one cusp (Riley, "A
# quadratic parabolic group", 1975), so the horoball centers g(inf) are all
# the reduced fractions a/c in Q(w), and the cord to the center a/c has
# length 2 ln(a0 |c|).  A class is a center modulo the cusp lattice
# Z + 2 sqrt(3) i Z = Z + 4w Z.  x + y w is the integer pair (x, y).

def _mul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0] - u[1] * v[1]


def _norm(u):
    return u[0] * u[0] - u[0] * u[1] + u[1] * u[1]


def _conj(u):
    return u[0] - u[1], -u[1]


def _coprime(u, v):
    """Euclid's algorithm in Z[w]: rounding u/v coordinatewise leaves a
    remainder of norm at most 3/4 of N(v)."""
    while v != (0, 0):
        n = _norm(v)
        p, q = _mul(u, _conj(v))
        qv = _mul(((2 * p + n) // (2 * n), (2 * q + n) // (2 * n)), v)
        u, v = v, (u[0] - qv[0], u[1] - qv[1])
    return _norm(u) == 1


_UNITS = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]


def eisenstein_classes(a0, L):
    """Classes with 1/a0 < |c| <= e^{L/2}/a0, as {(s, t): N(c)} with the
    exact lattice coordinates a/c = s + t 2 sqrt(3) i mod 1, and the count
    of 4 phi(c) over the denominators c up to units: a/c mod Z[w] takes
    phi(c) values, and Z[w] / (Z + 4w Z) has 4 elements."""
    nmax = (math.exp(L / 2) / a0) ** 2
    r = math.isqrt(int(2 * nmax)) + 1
    centers, count = {}, 0
    for c in ((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)):
        n = _norm(c)
        if not 1 / a0**2 < n <= nmax or c != max(_mul(u, c) for u in _UNITS):
            continue
        # a c-bar mod N names the residue of a mod c
        residues = {}
        for a in ((x, y) for x in range(n) for y in range(n)):
            p, q = _mul(a, _conj(c))
            residues.setdefault((p % n, q % n), a)
        for (p, q), a in residues.items():
            if not _coprime(a, c):
                continue
            count += 4
            for k in range(4):  # a/c = (p + (q + k n) w) / n mod Z[w]
                t = Fraction(q + k * n, 4 * n)
                centers[(Fraction(p, n) - 2 * t) % 1, t % 1] = n
    return centers, count


def _rounded(*st):
    return tuple(round(float(x) % 1.0, 6) % 1.0 for x in st)


@pytest.mark.parametrize("L", [2.0, 3.0, 4.0, 5.0])
def test_spectrum_centers_are_the_oracle_classes(fig8, L):
    centers, count = eisenstein_classes(A0, L)
    oracle = {_rounded(*st): n for st, n in centers.items()}
    assert len(oracle) == len(centers) == count
    got = set()
    spec = ce.enumerate_cords(fig8, A0, L)
    for word, ell in zip(spec.words, spec.lengths):
        g = fig8.evaluate(word)
        w = g.a / g.c
        key = _rounded(w.real, w.imag / (2 * math.sqrt(3)))
        assert key not in got  # one entry per class
        got.add(key)
        assert key in oracle
        assert ell == pytest.approx(math.log(A0**2 * oracle[key]), abs=1e-12)
        assert cord_length(g, A0) == pytest.approx(ell, abs=1e-9)
    # the flood is complete: every oracle class is printed
    assert got == oracle.keys()
    assert len(got) == {2.0: 24, 3.0: 216, 4.0: 1416, 5.0: 10416}[L]
    if L == 2.0:
        # denominators 1, 1 - w and 2, with phi = 1, 2 and 3
        assert len(got) == count == 4 * (1 + 2 + 3)


def test_spectrum_serialization(tmp_path, fig8):
    spec = ce.enumerate_cords(fig8, A0, 2.0)
    jpath = tmp_path / "spec.json"
    cpath = tmp_path / "spec.csv"
    spec.write_json(jpath)
    spec.write_csv(cpath)
    data = json.loads(jpath.read_text())
    assert data["cutoff"] == 2.0
    assert len(data["entries"]) == len(spec.words)
    rows = cpath.read_text().strip().split("\n")
    assert rows[0] == "class_word,length,energy,action,f0,b0"
    assert len(rows) == len(spec.words) + 1


def _entries(spec):
    """The spectrum's JSON entries, derived from its columns."""
    return [{"class_word": w, "length": ell, "energy": 0.5 * ell**2,
             "action": -0.5 * ell**2, "f0": 1.0 / A0, "b0": 1.0 / A0}
            for w, ell in zip(spec.words, spec.lengths)]


def _rounded_groups(lengths, text=repr):
    """{length rounded to 9 digits: the distinct ``text`` of its floats}."""
    groups = {}
    for ell in lengths:
        groups.setdefault(round(ell, 9), set()).add(text(ell))
    return groups


@pytest.mark.parametrize("cutoff", [2.0, 0.3, 4.0])
def test_spectrum_json_is_the_json_module_output(fig8, cutoff):
    # 0.3 lies below the shortest cord, 2 ln 1.2, so that spectrum is empty
    spec = ce.enumerate_cords(fig8, A0, cutoff)
    assert bool(spec.words) == (cutoff != 0.3)
    if cutoff == 4.0:
        # 1416 rows of 390 distinct floats; some 9-digit lengths hold more
        # than one float, and each row must print its own
        assert len(spec.words) == 1416 and len(set(spec.lengths)) == 390
        assert any(len(v) > 1 for v in _rounded_groups(spec.lengths).values())
    entries = _entries(spec)
    text = spec.to_json()
    assert text == json.dumps({
        "cutoff": cutoff, "horoball_height": A0, "entries": entries},
        indent=1)
    data = json.loads(text)
    assert (data["cutoff"], data["horoball_height"]) == (cutoff, A0)
    assert data["entries"] == entries


@pytest.mark.parametrize("cutoff", [2.0, 0.3, 4.0, 5.0])
def test_spectrum_csv_is_the_json_to_12_digits(tmp_path, fig8, cutoff):
    # the CSV writer derives energy, action, f0 and b0 from the length and
    # the height as the JSON writer does; each field is the JSON value to
    # 12 significant digits, and the empty spectrum writes the header only
    spec = ce.enumerate_cords(fig8, A0, cutoff)
    if cutoff == 5.0:
        # one 9-digit length holds floats that differ in the 12th digit, so
        # each row must print its own
        twelve = _rounded_groups(spec.lengths, lambda ell: f"{ell:.12g}")
        assert sum(len(v) > 1 for v in twelve.values()) == 1
    path = tmp_path / "spec.csv"
    spec.write_csv(path)
    header = ["class_word", "length", "energy", "action", "f0", "b0"]
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames == header
    # the JSON writer's entries, from the columns as the JSON test checks,
    # so that a fault shared by both writers does not pass here
    entries = _entries(spec)
    assert [r["class_word"] for r in rows] == spec.words
    for r, e in zip(rows, entries):
        assert all(r[k] == f"{e[k]:.12g}" for k in header[1:]), (r, e)
    if cutoff == 0.3:
        assert path.read_bytes() == b"class_word,length,energy,action,f0,b0\r\n"
    elif cutoff == 2.0:
        assert len(rows) == 24
