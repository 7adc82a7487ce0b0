import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import apply_h3

from cordspec.hyperbolic_core import PointH3, distance
from cordspec.isometry_group import (INFINITY, PERIPHERAL_TOL, BudgetExceeded,
                                     CoverError, GroupPresentation, Horoball,
                                     Moebius, _entries, _psl_keys,
                                     apply_boundary, center_key, classify,
                                     cover_margin, double_coset_canonical,
                                     enumerate_elements, ford_moves,
                                     image_horoball, is_infinity,
                                     lattice_disks, verify_presentation)

finite = st.floats(-4, 4, allow_nan=False)
cplx = st.builds(complex, finite, finite)


def random_psl(seed):
    rng = np.random.default_rng(seed)
    while True:
        a, b, c, d = (complex(*rng.normal(size=2)) for _ in range(4))
        if abs(a * d - b * c) > 1e-3:
            return Moebius(a, b, c, d)


@given(st.integers(0, 10**6))
@example(156359)  # ad - bc is 1 + 5.0e-15 here
@settings(max_examples=40, deadline=None)
def test_det_normalized_and_psl_equality(seed):
    g = random_psl(seed)
    assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-12
    gg = Moebius(g.a, g.b, g.c, g.d)
    # normalization idempotent: dividing again by sqrt(ad - bc), rounded
    # within a few ulps of |ad| + |bc|, moves each entry by that much of it
    ulp = np.finfo(float).eps * max(map(abs, (g.a, g.b, g.c, g.d)))
    assert gg.is_close(g, 4 * ulp * (abs(g.a * g.d) + abs(g.b * g.c)))
    neg = Moebius(-g.a, -g.b, -g.c, -g.d)
    assert neg.is_close(g, 1e-12)  # PSL sign quotient
    assert _psl_keys(_entries([neg])) == _psl_keys(_entries([gg]))
    assert not g.is_close(g.compose(random_psl(seed + 1)), 1e-12)


# Words whose products are one element of PSL but come out of float
# arithmetic with opposite signs, so that a sign convention read off the
# entries tells them apart.
@pytest.mark.parametrize("w1, w2", [("baaba", "babaBABab"),
                                    ("babbAA", "abAABAbA")])
def test_sign_flipped_products_are_one_element(fig8, w1, w2):
    g, h = fig8.evaluate(w1), fig8.evaluate(w2)
    assert g.is_close(h, 1e-8)
    assert _psl_keys(_entries([g])) == _psl_keys(_entries([h]))


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_group_laws(s1, s2):
    g, h = random_psl(s1), random_psl(s2 + 1)
    assert g.compose(g.inverse()).is_close(Moebius.identity(), 1e-10)
    lhs = g.compose(h).inverse()
    rhs = h.inverse().compose(g.inverse())
    assert lhs.is_close(rhs, 1e-9)


@given(st.integers(0, 10**6), cplx)
@settings(max_examples=30, deadline=None)
def test_boundary_action_is_composition(seed, w):
    g, h = random_psl(seed), random_psl(seed + 7)
    direct = apply_boundary(g.compose(h), w)
    stepped = apply_boundary(g, apply_boundary(h, w))
    if direct == INFINITY or stepped == INFINITY:
        return
    assert abs(direct - stepped) < 1e-6 * max(1.0, abs(direct))


@given(st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_poincare_extension_is_isometry(seed, pseed):
    g = random_psl(seed)
    rng = np.random.default_rng(pseed)
    q1 = PointH3(*rng.normal(size=2), math.exp(rng.normal()))
    q2 = PointH3(*rng.normal(size=2), math.exp(rng.normal()))
    d0 = distance(q1, q2)
    d1 = distance(apply_h3(g, q1), apply_h3(g, q2))
    assert abs(d0 - d1) < 1e-8 * max(1.0, d0)


def test_extension_limits_to_boundary_action():
    g = Moebius(2, 1 + 1j, 0.5j, 1)
    w = 0.3 - 0.7j
    bdry = apply_boundary(g, w)
    q = apply_h3(g, PointH3(w.real, w.imag, 1e-7))
    assert abs(complex(q.x, q.y) - bdry) < 1e-5


def test_is_infinity():
    g = Moebius(2, 1 + 1j, 0.5j, 1)
    for w in (INFINITY, float("inf"), complex(1.0, float("inf")),
              apply_boundary(g, -g.d / g.c)):
        assert is_infinity(w)
    for w in (0j, 0, 2.5, 1e300 + 1e300j, apply_boundary(g, INFINITY)):
        assert not is_infinity(w)
    assert Horoball(INFINITY, 1.0).is_at_infinity()
    assert not Horoball(1j, 1.0).is_at_infinity()


def test_classification():
    assert classify(Moebius(1, 1, 0, 1)) == "parabolic"
    assert classify(Moebius(2, 0, 0, 0.5)) == "loxodromic"
    th = 0.6
    assert classify(Moebius(math.cos(th), -math.sin(th),
                            math.sin(th), math.cos(th))) == "elliptic"
    assert classify(Moebius.identity()) == "identity"


def test_word_algebra():
    g = Moebius(1, 1, 0, 1)
    h = Moebius(1, -1, 0, 1)
    assert g.compose(h).is_close(Moebius.identity(), 1e-14)


def test_image_horoball_standard():
    B = Horoball(INFINITY, 2.0)
    g = Moebius(0, -1, 1, 0)  # w -> -1/w
    img = image_horoball(g, B)
    assert abs(img.center) < 1e-14
    assert abs(img.size - 0.5) < 1e-14  # diam 1/(|c|^2 a0)
    # parabolic fixing infinity: height preserved
    img2 = image_horoball(Moebius(1, 3 + 1j, 0, 1), B)
    assert img2.is_at_infinity() and abs(img2.size - 2.0) < 1e-14


def test_peripheral_word_fixes_infinity(fig8):
    # longitude^10 fixes infinity, but its product rounds c to 1.4e-15;
    # the boundary action, the image horoball and the class key all call
    # it peripheral, by one tolerance
    g = fig8.evaluate(fig8.longitude * 10)
    assert 1e-15 < abs(g.c) < PERIPHERAL_TOL
    assert is_infinity(apply_boundary(g, INFINITY))
    assert image_horoball(g, Horoball(INFINITY, 1.2)).is_at_infinity()
    with pytest.raises(ValueError, match="peripheral"):
        center_key(g, fig8)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_image_horoball_consistent_with_extension(seed):
    g = random_psl(seed)
    a0 = 1.7
    img = image_horoball(g, Horoball(INFINITY, a0))
    # points of the horosphere {z = a0} map onto the image horosphere
    for w in (0j, 1 + 1j, -2.3 + 0.4j):
        q = apply_h3(g, PointH3(w.real, w.imag, a0))
        if img.is_at_infinity():
            assert abs(q.z - img.size) < 1e-9
        else:
            c = np.array([img.center.real, img.center.imag, img.size / 2])
            r = np.linalg.norm(q.coords() - c)
            assert abs(r - img.size / 2) < 1e-8


def test_figure_eight_presentation(fig8):
    report = verify_presentation(fig8)
    assert report["ok"], report
    assert max(report["relator_residuals"]) < 1e-12
    assert report["flags"]["meridian_parabolic"]
    assert report["flags"]["longitude_parabolic"]
    assert report["flags"]["peripheral_commute"]
    mu, lam = fig8.lattice_vectors()
    assert abs(mu - 1.0) < 1e-12
    assert abs(lam - 2j * math.sqrt(3)) < 1e-12


@pytest.mark.parametrize("lattice", [[], [[1.0, 0.0]]])
def test_presentation_without_a_lattice_does_not_verify(fig8, lattice):
    # a presentation built in code may lack the lattice that the class
    # search reads; verifying it must fail, not skip the lattice flags
    assert verify_presentation(fig8)["flags"]["lattice_present"] is True
    report = verify_presentation(dataclasses.replace(fig8,
                                                     cusp_lattice=lattice))
    assert report["ok"] is False
    assert report["flags"]["lattice_present"] is False
    assert "lattice_matches_meridian" not in report["flags"]


def test_generator_classification(fig8):
    for g in fig8.generators:
        assert classify(g) == "parabolic"


def word_classes(rep, cmax, max_len):
    """{center_key: word}: the first reduced word, in shortlex order on
    ``sorted(rep.letters())``, of each non-peripheral class with
    |c| <= cmax, among the words of up to ``max_len`` letters, each
    evaluated on its own by ``rep.evaluate``."""
    names = sorted(rep.letters())
    classes = {}
    for n in range(1, max_len + 1):
        for word in itertools.product(names, repeat=n):
            if any(x == y.swapcase() for x, y in zip(word, word[1:])):
                continue
            g = rep.evaluate(word)
            if 1e-9 <= abs(g.c) <= cmax + 1e-9:
                classes.setdefault(center_key(g, rep), "".join(word))
    return classes


def free_reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def flood_oracle(rep, cmax):
    """{center_key: word} by the flood's naming rule, in scalar Moebius
    arithmetic: breadth first from the moves, each level's classes taken
    in key order, then the moves in order, then v = m mu + n lam with m,
    then n ascending over a box that holds the disk; a step k T_v g is
    kept when |c| rises and stays <= cmax, and a class is named by the
    first step that reaches it, as word(k) mer^m lon^n word(g), freely
    reduced."""
    moves = [(w, rep.evaluate(w)) for w in ford_moves(rep).words]
    mu, lam = rep.lattice_vectors()
    det = mu.real * lam.imag - lam.real * mu.imag
    inv = lambda w: w[::-1].swapcase()
    level = {center_key(k, rep): (w, k) for w, k in moves
             if abs(k.c) <= cmax}
    names = {key: w for key, (w, _) in level.items()}
    while level:
        new = {}
        for key in sorted(level, key=lambda z: (z.real, z.imag)):
            word, g = level[key]
            for kw, k in moves:
                center = -(g.a / g.c + k.d / k.c)
                reach = abs(center) + cmax / abs(g.c * k.c) + 1
                mmax = int(reach * abs(lam / det)) + 1
                nmax = int(reach * abs(mu / det)) + 1
                for m in range(-mmax, mmax + 1):
                    for n in range(-nmax, nmax + 1):
                        v = m * mu + n * lam
                        h = k.compose(Moebius(1, v, 0, 1)).compose(g)
                        if not abs(g.c) * (1 + 1e-9) < abs(h.c) \
                                <= cmax * (1 + 1e-9):
                            continue
                        hk = center_key(h, rep)
                        if hk in names:
                            continue
                        t = ((rep.meridian if m > 0 else inv(rep.meridian))
                             * abs(m) + (rep.longitude if n > 0 else
                                         inv(rep.longitude)) * abs(n))
                        names[hk] = free_reduce(kw + t + word)
                        new[hk] = (names[hk], h)
        level = new
    return names


def flood_names(rep, max_radius, a0=1.0):
    """{center_key: word} of the classes of ``enumerate_elements``."""
    return {center_key(Moebius(*col), rep): w
            for g, words, _ in enumerate_elements(rep, max_radius, a0)
            for col, w in zip(g.T.tolist(), words)}


def test_figure_eight_moves_cover_by_the_eisenstein_covering_radius(fig8):
    # the four classes of |c| = 1 have their centers at Z[w], so f is the
    # distance to the triangular lattice of side 1, whose covering radius
    # 1/sqrt(3) bounds any proven margin
    moves = ford_moves(fig8)
    assert moves.words == ["B", "b", "BAb", "Bab"]
    assert np.abs(moves.entries[2]) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < moves.margin <= 1.0 - 1.0 / math.sqrt(3) + 1e-12
    # B and b alone leave points uncovered
    assert cover_margin(fig8, moves.entries[:, :2]) <= 0.0


def test_five_two_cover_settles_a_thin_margin(five_two):
    moves = ford_moves(five_two)
    ac = np.abs(moves.entries[2])
    assert ac == pytest.approx(1.150964, abs=1e-6) and len(ac) == 2
    # the margin is proven, and no larger than the gap 1 - f at the worst
    # node of an independent 161 x 161 grid with every nearby translate
    mu, lam = five_two.lattice_vectors()
    grid = np.linspace(0.0, 1.0, 161)
    w = (grid[:, None] * mu + grid * lam).ravel()
    box = np.arange(-8, 9)
    v = (box[:, None] * mu + box * lam).ravel()
    f = np.min([c * np.abs(w[:, None] - z - v).min(axis=1)
                for z, c in zip(moves.entries[0] / moves.entries[2], ac)],
               axis=0)
    assert 0.97 < f.max() < 1.0
    assert 0.0 < moves.margin <= 1.0 - f.max()
    # the next |c| value widens the margin
    more = [five_two.evaluate(word) for word in ("b", "B")]
    wider = np.concatenate([moves.entries, _entries(more)], axis=1)
    assert cover_margin(five_two, wider) > moves.margin


def test_word_search_that_ends_without_a_cover_is_an_error():
    # a group of order 2 whose one class has a disk of radius 1 about each
    # point of 4 Z[i]: the search ends, and the plane is not covered
    rep = GroupPresentation("order_two", [Moebius(0, 1, -1, 0)], ["aa"],
                            "", "", [[4.0, 0.0], [0.0, 4.0]])
    with pytest.raises(CoverError):
        ford_moves(rep)


@pytest.mark.parametrize("seed", range(5))
def test_lattice_disks_list_the_lattice_vectors_in_order(seed):
    rng = np.random.default_rng(seed)
    # a lattice far from degenerate, so that a box of 60 holds the disks
    mu = complex(1.0, rng.normal() * 0.3)
    lam = complex(rng.normal(), 1.0 + rng.random())
    centers = rng.normal(size=6) * 3 + 1j * rng.normal(size=6) * 3
    radii = rng.random(6) * 4
    i, m, n = lattice_disks(centers, radii, mu, lam)
    want = [(k, a, b) for k in range(6) for a in range(-60, 61)
            for b in range(-60, 61)
            if abs(a * mu + b * lam - centers[k]) <= radii[k]]
    assert list(zip(i.tolist(), m.tolist(), n.tolist())) == want
    with pytest.raises(BudgetExceeded):
        lattice_disks(centers, radii * 100, mu, lam, limit=len(want))


def test_flood_names_each_class_by_its_first_step(fig8, five_two):
    assert flood_names(fig8, 3.0, 1.2) == flood_oracle(
        fig8, math.exp(1.5) / 1.2)
    # 504 classes, whose steps reach negative m and n, and a last level
    # with no new class
    names = flood_names(fig8, 3.5, 1.2)
    assert len(names) == 504
    assert names == flood_oracle(fig8, math.exp(1.75) / 1.2)
    assert flood_names(five_two, 2 * math.log(2.5)) == flood_oracle(
        five_two, 2.5)


def test_flood_contains_every_class_of_a_word_search(fig8, five_two):
    # on the figure-eight the capped word search of 8 letters reaches
    # every class up to |c| = 2; on 5_2 it misses some up to |c| = 3
    for rep, cmax, n in ((fig8, 2.0, 24), (five_two, 3.0, 20)):
        words = word_classes(rep, cmax, 8)
        flood = flood_names(rep, 2 * math.log(cmax))
        assert len(words) == n and words.keys() <= flood.keys()
    assert len(flood) == 30


def test_five_two_class_counts_grow_by_e_squared(five_two):
    counts = [len(flood_names(five_two, L)) for L in (3.0, 4.0, 5.0)]
    assert counts[1] / counts[0] == pytest.approx(math.e**2, rel=0.05)
    assert counts[2] / counts[1] == pytest.approx(math.e**2, rel=0.03)


def test_enumeration_budget_cap(fig8):
    with pytest.raises(BudgetExceeded, match="step cap 100"):
        list(enumerate_elements(fig8, max_radius=6.0, max_elements=100))


def test_enumeration_words_are_reduced_and_match(fig8, five_two):
    for rep in (fig8, five_two):
        for g, words, _ in enumerate_elements(rep, max_radius=4.0):
            for word, col in zip(words, g.T.tolist()):
                assert word == free_reduce(word)
                # the word's product is the level's element, in PSL
                assert rep.evaluate(word).is_close(Moebius(*col), 1e-9)


def test_double_coset_canonical_properties(fig8):
    g = fig8.evaluate("abAB")
    cg = double_coset_canonical(g, fig8)
    # idempotent
    assert double_coset_canonical(cg, fig8).is_close(cg, 1e-10)
    # invariant under peripheral multiplication on both sides
    mu = fig8.evaluate(fig8.meridian)
    lam = fig8.evaluate(fig8.longitude)
    for left in (mu, lam, mu.inverse()):
        for right in (mu, lam.inverse()):
            h = left.compose(g).compose(right)
            assert center_key(h, fig8) == center_key(g, fig8)
            assert double_coset_canonical(h, fig8).is_close(cg, 1e-9)
    # |c| is a class invariant
    assert abs(abs(cg.c) - abs(g.c)) < 1e-12


def test_double_coset_rejects_peripheral(fig8):
    with pytest.raises(ValueError):
        double_coset_canonical(fig8.evaluate("a"), fig8)
    with pytest.raises(ValueError):
        center_key(fig8.evaluate("a"), fig8)


def test_center_key_rounds_as_the_spectrum_names(fig8):
    # a center half-way between two 6-digit names gets the spectrum's
    # name: np.round rounds 2.5 to even, where round() would give 3e-06
    mu, _ = fig8.lattice_vectors()
    g = Moebius(2.5e-6 * mu, -1, 1, 0)
    assert center_key(g, fig8) == 2e-06 + 0j
