import itertools
import math

import pytest
from scipy.integrate import quad

from oracles import (IdealTriangle, common_perpendicular, cord_length,
                     geometric_catalog, hexagon_of, penner_arcs, plane_defect,
                     reduction_to_vertical_plane, truncate)

from cordspec import cord_engine as ce
from cordspec import triangle_geometry as tg
from cordspec.isometry_group import (INFINITY, Horoball, Moebius, center_key,
                                     image_horoball)


def symmetric_hexagon():
    tri = IdealTriangle((0j, 1 + 0j, INFINITY))
    balls = (Horoball(0j, 0.3), Horoball(1 + 0j, 0.3), Horoball(INFINITY, 3.0))
    return truncate(tri, balls), tri, balls


def test_ideal_triangle_validation():
    with pytest.raises(ValueError):
        IdealTriangle((0j, 0j, INFINITY))
    with pytest.raises(ValueError):
        IdealTriangle((INFINITY, INFINITY, 0j))
    IdealTriangle((0j, 1j, INFINITY))  # ok


def test_truncate_symmetric_sides_and_arcs():
    hexa, _, _ = symmetric_hexagon()
    # symmetry: the two sides meeting the horoball at infinity are equal
    assert hexa.side_lengths[1] == pytest.approx(hexa.side_lengths[2])
    assert hexa.side_lengths[1] == pytest.approx(math.log(3.0 / 0.3))
    assert hexa.side_lengths[0] == pytest.approx(-2 * math.log(0.3))
    assert hexa.arc_lengths[2] == pytest.approx(1.0 / 3.0)  # |0-1| / height
    assert hexa.arc_lengths[0] == pytest.approx(0.3)
    # Penner's h-lengths give the same arcs from the side lengths alone
    assert penner_arcs(hexa.side_lengths) == pytest.approx(
        (0.3, 0.3, 1.0 / 3.0), abs=1e-15)


def test_truncate_rejects_mismatched_or_overlapping():
    tri = IdealTriangle((0j, 1 + 0j, INFINITY))
    with pytest.raises(ValueError):
        truncate(tri, (Horoball(5j, 0.1), Horoball(1 + 0j, 0.1),
                       Horoball(INFINITY, 3.0)))
    with pytest.raises(ValueError):  # tangent/overlapping horoballs
        truncate(tri, (Horoball(0j, 1.0), Horoball(1 + 0j, 1.0),
                       Horoball(INFINITY, 3.0)))


def test_area_gauss_bonnet_and_quadrature():
    hexa, _, _ = symmetric_hexagon()
    assert abs(hexa.area - math.pi + sum(hexa.arc_lengths)) < 1e-12
    # independent quadrature of the hyperbolic area of the region
    a, d0, d1 = 3.0, 0.3, 0.3

    def f(u):
        zlow = math.sqrt(max(u * (1 - u), 1e-300))
        tot = 1.0 / zlow - 1.0 / a
        for (uc, d) in ((0.0, d0), (1.0, d1)):
            du = u - uc
            disc = (d / 2) ** 2 - du * du
            if disc > 0:
                zm, zp = d / 2 - math.sqrt(disc), d / 2 + math.sqrt(disc)
                lo, hi = max(zm, zlow), min(zp, a)
                if hi > lo:
                    tot -= 1.0 / lo - 1.0 / hi
        return tot

    val, _ = quad(f, 0, 1, points=[0.15, 0.3, 0.7, 0.85], limit=200)
    assert abs(hexa.area - val) < 1e-6


def test_area_tends_to_ideal_triangle():
    tri = IdealTriangle((0j, 1 + 0j, INFINITY))
    prev = 0.0
    for eps in (0.1, 0.01, 0.001):
        hexa = truncate(tri, (Horoball(0j, eps), Horoball(1 + 0j, eps),
                              Horoball(INFINITY, 1.0 / eps)))
        assert prev < hexa.area < math.pi
        prev = hexa.area
    assert abs(hexa.area - math.pi) < 0.01


def test_coplanar_reduce_chained_triple():
    _, _, balls = symmetric_hexagon()
    sides = [common_perpendicular(balls[i], balls[(i + 1) % 3])
             for i in range(3)]
    g = reduction_to_vertical_plane(*(B.center for B in balls))
    assert plane_defect(g, sides) < 1e-8


def test_coplanar_reduce_round_trip():
    _, _, balls = symmetric_hexagon()
    r = Moebius(1.3 + 0.2j, 0.4 - 1.1j, 0.7 + 0.3j, 1)
    moved = [image_horoball(r, B) for B in balls]
    sides = [common_perpendicular(moved[i], moved[(i + 1) % 3])
             for i in range(3)]
    g = reduction_to_vertical_plane(*(B.center for B in moved))
    assert plane_defect(g, sides) < 1e-8


def test_reduction_examples_up_to_axis_rotation():
    # real-axis triples reduce to the identity composed with w -> i w
    rot = Moebius(1j, 0, 0, 1)
    g = reduction_to_vertical_plane(0j, 1 + 0j, INFINITY)
    assert g.is_close(rot, 1e-12)
    g2 = reduction_to_vertical_plane(1j, 1 + 1j, INFINITY)
    shift = rot.compose(Moebius(1, -1j, 0, 1))  # translation by -i, then rot
    assert g2.is_close(shift, 1e-12)


def test_triangle_catalog_figure_eight(fig8):
    catalog = tg.triangle_catalog(fig8, 1.2, 4.0, ("b", "b", "BB"))
    assert len(catalog) >= 1
    lb = cord_length(fig8.evaluate("b"), 1.2)
    lbb = cord_length(fig8.evaluate("bb"), 1.2)
    for hexa in catalog:
        s = sorted(hexa.side_lengths)
        assert s[0] == pytest.approx(lb, abs=1e-7)
        assert s[1] == pytest.approx(lb, abs=1e-7)
        assert s[2] == pytest.approx(lbb, abs=1e-7)
        assert abs(hexa.area - math.pi + sum(hexa.arc_lengths)) < 1e-6
        assert penner_arcs(hexa.side_lengths) == pytest.approx(
            hexa.arc_lengths, abs=1e-12)
        geo = hexagon_of(hexa, 1.2)
        g = reduction_to_vertical_plane(*(B.center for B in geo.horoballs))
        assert plane_defect(g, geo.sides) < 1e-8


def test_triangle_catalog_golden_values_from_arithmetic(fig8):
    # |c| = 1 for b and 2 for bb: lambda = 1.2, 1.2, 2.4, so the arcs are
    # 2.4 / 1.44, 1.2 / 2.88 and the area pi - 5/2
    (hexa,) = tg.triangle_catalog(fig8, 1.2, 4.0, ("b", "b", "BB"))
    exact = [(hexa.side_lengths, (2 * math.log(1.2), 2 * math.log(1.2),
                                  2 * math.log(2.4))),
             (hexa.arc_lengths, (5 / 12, 5 / 3, 5 / 12)),
             ((hexa.area,), (math.pi - 5 / 2,))]
    for got, want in exact:
        for x, y in zip(got, want, strict=True):
            assert abs(x - y) <= 4 * math.ulp(y), (x, y)


def test_triangle_catalog_makes_no_moebius_product_per_candidate(
        fig8, monkeypatch):
    calls = []
    compose = Moebius.compose
    monkeypatch.setattr(Moebius, "compose",
                        lambda g, h: calls.append(1) or compose(g, h))
    words = ("b", "b", "BaaaaaaaB")
    assert tg.triangle_catalog(fig8, 1.2, 6.0, words)
    assert len(calls) == sum(map(len, words))  # rep.evaluate's


def test_triangle_catalog_is_the_geometric_route(fig8):
    # the closed form from |c| against Moebius products, horoball images,
    # common perpendiculars and arcs on horospheres, over every triple of
    # the 8 shortest classes
    words = ce.canonical_classes(fig8, 1.2, 4.0).words[:8]
    found = 0
    for Lmax in (4.0, 6.0):
        for triple in itertools.product(words, repeat=3):
            geo = geometric_catalog(fig8, 1.2, Lmax, triple)
            try:
                catalog = tg.triangle_catalog(fig8, 1.2, Lmax, triple)
            except ValueError:
                assert geo == [], triple
                continue
            assert len(catalog) == len(geo), triple
            found += len(catalog)
            for hexa, ref in zip(catalog, geo):
                got = [*hexa.side_lengths, *hexa.arc_lengths, hexa.area,
                       *hexa.vertices[1:]]
                want = [*ref.side_lengths, *ref.arc_lengths, ref.area,
                        *(B.center for B in ref.horoballs[1:])]
                assert hexa.vertices[0] == INFINITY
                assert max(abs(x - y) for x, y in zip(got, want)) < 1e-13
    assert found >= 100


def test_triangle_catalog_rejections(fig8):
    with pytest.raises(ValueError):  # peripheral class: constant chord
        tg.triangle_catalog(fig8, 1.2, 4.0, ("a", "b", "B"))
    with pytest.raises(ValueError):  # not composable at this cutoff
        tg.triangle_catalog(fig8, 1.2, 4.0, ("b", "b", "b"))
    with pytest.raises(ValueError, match="embedded threshold"):
        tg.triangle_catalog(fig8, 0.5, 4.0, ("b", "b", "BB"))


def box_search_centers(rep, a0, Lmax, words, box=25):
    """(center, size) of each third horoball h2 B0 of the chained triples,
    h2 = e0 p e1 with p run over the translations m mu + n lam, |m|, |n| <=
    box, whose cord is nondegenerate, no longer than Lmax and in the class
    of e2^-1; none unless the cords of e0 and e1 are nondegenerate and no
    longer than Lmax too."""
    e0, e1, e2 = (rep.evaluate(w) for w in words)
    target = center_key(e2.inverse(), rep)
    mu, lam = rep.lattice_vectors()
    cmax = math.exp(Lmax / 2.0) / a0
    out = set()
    if not all(abs(g.c) <= cmax and a0 * abs(g.c) > 1.0 + 1e-9
               for g in (e0, e1)):
        return out
    for m in range(-box, box + 1):
        for n in range(-box, box + 1):
            h2 = e0.compose(Moebius(1, m * mu + n * lam, 0, 1)).compose(e1)
            ac = abs(h2.c)
            if ac <= cmax and a0 * ac > 1.0 + 1e-9 \
                    and center_key(h2, rep) == target:
                B2 = image_horoball(h2, Horoball(INFINITY, a0))
                out.add((round(B2.center.real, 8), round(B2.center.imag, 8),
                         round(B2.size, 10)))
    return out


@pytest.mark.parametrize("words", [("b", "b", "BB"), ("b", "ab", "BB"),
                                   ("b", "b", "BaaaaaaaB")])
def test_triangle_catalog_equals_box_search(fig8, words):
    # at a0 = 1.2 and L = 6 the disk of translations has radius 16.7, well
    # inside the box of +-25; the last triple needs the translation by -7 mu
    catalog = tg.triangle_catalog(fig8, 1.2, 6.0, words)
    balls = [hexagon_of(h, 1.2).horoballs[2] for h in catalog]
    centers = [(round(B.center.real, 8), round(B.center.imag, 8),
                round(B.size, 10)) for B in balls]
    assert len(set(centers)) == len(centers)
    assert set(centers) == box_search_centers(fig8, 1.2, 6.0, words)


def test_triangle_catalog_conjugation_invariant(fig8):
    c1 = tg.triangle_catalog(fig8, 1.2, 4.0, ("b", "b", "BB"))
    # conjugating every class word simultaneously preserves the geometry
    c2 = tg.triangle_catalog(fig8, 1.2, 4.0, ("Aba", "Aba", "ABBa"))
    assert len(c1) == len(c2)
    for h1, h2 in zip(c1, c2):
        for s1, s2 in zip(sorted(h1.side_lengths), sorted(h2.side_lengths)):
            assert s1 == pytest.approx(s2, abs=1e-7)
