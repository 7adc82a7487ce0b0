import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cordspec.cord_engine import canonical_classes
from cordspec.hyperbolic_core import PointH3, distance
from cordspec.isometry_group import (INFINITY, BudgetExceeded, Horoball,
                                     Moebius, _entries, _psl_keys,
                                     apply_boundary, apply_h3, center_key,
                                     classify, double_coset_canonical,
                                     enumerate_elements, image_horoball,
                                     is_infinity, spell, verify_presentation)

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


def test_generator_classification(fig8):
    for g in fig8.generators:
        assert classify(g) == "parabolic"


def psl_invariant(g):
    """The quadratic monomials a^2, ab, ..., d^2, rounded: equal for g and
    -g, and determining g up to sign."""
    a, b, c, d = g.a, g.b, g.c, g.d
    return tuple(round(v, 6) for z in (a * a, a * b, a * c, a * d, b * b,
                                       b * c, b * d, c * c, c * d, d * d)
                 for v in (z.real, z.imag))


def flat_elements(rep, max_radius, a0=1.0, **kw):
    """(word, element) for the elements of the levels of
    ``enumerate_elements`` with a0 |c| <= e^{max_radius/2}, the identity
    left out, in the search's order."""
    cmax = math.exp(max_radius / 2.0) / a0
    names = sorted(rep.letters())
    levels, out = [], []
    for g, parent, letter in enumerate_elements(rep, max_radius, a0, **kw):
        levels.append((parent, letter))
        if parent is None:
            continue
        for row in np.flatnonzero(np.abs(g[2]) <= cmax + 1e-12).tolist():
            word = "".join(spell(levels, len(levels) - 1, row, names))
            out.append((word, Moebius(*g[:, row].tolist())))
    return out


def first_shortlex_classes(rep, a0, Lmax, max_len):
    """The word of each cord class with length <= Lmax, by the naming
    rule: the first of the reduced words of up to ``max_len`` letters, in
    shortlex order on ``sorted(rep.letters())``, whose element is neither
    peripheral nor tangent and lies within the cutoff, per ``center_key``.
    Each word is evaluated on its own, by ``rep.evaluate``."""
    names = sorted(rep.letters())
    classes = {}
    for n in range(1, max_len + 1):
        for word in itertools.product(names, repeat=n):
            if any(x == y.swapcase() for x, y in zip(word, word[1:])):
                continue
            g = rep.evaluate(word)
            ac = abs(g.c)
            if (ac >= 1e-9 and a0 * ac > 1.0 + 1e-9
                    and 2.0 * math.log(a0 * ac) <= Lmax + 1e-12):
                classes.setdefault(center_key(g, rep), "".join(word))
    return sorted(classes.values())


def test_capped_search_names_each_class_by_its_first_shortlex_word(fig8):
    # a capped search keeps every reduced word, so a class keeps its first
    # row: the first word of the first element that reaches the class
    for Lmax, cap in ((2.0, 6), (3.0, 6), (3.0, 7)):
        want = first_shortlex_classes(fig8, 1.2, Lmax, cap)
        got = sorted(w for w, _, _ in canonical_classes(fig8, 1.2, Lmax,
                                                        max_word_len=cap))
        assert got == want, (Lmax, cap)
    ac = np.concatenate([np.abs(g[2]) for g, _, _ in enumerate_elements(
        fig8, max_radius=3.0, max_word_len=10)])
    assert ac[ac > 1e-9].min() == pytest.approx(1.0)


def test_enumeration_pruning_is_lossless(fig8):
    pruned = flat_elements(fig8, max_radius=2.0, max_word_len=7)
    unpruned = flat_elements(fig8, max_radius=2.0, max_word_len=7,
                             margin=1e9)
    assert ({psl_invariant(g) for _, g in pruned}
            == {psl_invariant(g) for _, g in unpruned})


def test_enumeration_budget_cap(fig8):
    with pytest.raises(BudgetExceeded):
        list(enumerate_elements(fig8, max_radius=6.0, max_word_len=12,
                                max_elements=100))


def test_enumeration_words_are_reduced_and_match(fig8):
    for word, g in flat_elements(fig8, max_radius=2.0, max_word_len=6):
        assert word and all(
            word[i] != word[i + 1].swapcase() or word[i] == word[i + 1]
            for i in range(len(word) - 1))
        # the frontier composes on the right, as evaluate does
        assert fig8.evaluate(word).is_close(g, 1e-12)


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
