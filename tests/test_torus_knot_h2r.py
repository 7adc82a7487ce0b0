import itertools
import math

import numpy as np
import pytest

from oracles import angle_sum, interior_angle

from cordspec import torus_knot_h2r as tk
from cordspec.cli import run_torus
from cordspec.isometry_group import (BudgetExceeded, Moebius, _compose,
                                     _entries, apply_boundary, classify,
                                     image_horoball, reduced_levels)


def test_params_validation():
    tk.TorusKnotParams(2, 3)
    tk.TorusKnotParams(3, 2, "s2xs1")
    with pytest.raises(ValueError):
        tk.TorusKnotParams(2, 4)  # not coprime
    with pytest.raises(ValueError):
        tk.TorusKnotParams(1, 3)  # unknot
    with pytest.raises(ValueError):
        tk.TorusKnotParams(2, 3, "s2xs1")  # needs p > |q|
    with pytest.raises(ValueError):
        tk.TorusKnotParams(2, 3, "r3")


def test_geometric_presentation_swap():
    assert tk.TorusKnotParams(2, 3).geometric_pq() == (3, 2)
    assert tk.TorusKnotParams(3, 4).geometric_pq() == (3, 4)
    assert tk.TorusKnotParams(3, 2, "s2xs1").geometric_pq() == (3, 2)


@pytest.mark.parametrize("p", [3, 4, 5])
def test_polygon_angles(p):
    poly = tk.build_polygon(p)
    for i in range(1, p + 1):
        assert interior_angle(poly, 2 * i - 1) == pytest.approx(
            2 * math.pi / p, abs=1e-9)
        assert interior_angle(poly, 2 * i) == 0.0
        assert abs(abs(poly.vertex(2 * i)) - 1.0) < 1e-12
    assert angle_sum(poly) == pytest.approx(2 * math.pi, abs=1e-8)


def test_polygon_degenerates_at_two():
    poly = tk.build_polygon(2)
    assert poly.center_distance == pytest.approx(0.0, abs=1e-12)
    assert angle_sum(poly) == pytest.approx(2 * math.pi, abs=1e-8)


def test_face_pairings_parabolic_and_edge_matching():
    params = tk.TorusKnotParams(3, 4)
    poly = tk.build_polygon(3)
    pairings = tk.face_pairings(params)
    assert [fp.name for fp in pairings] == ["phi1", "phi2", "phi3", "tau"]
    for i, fp in enumerate(pairings[:3], start=1):
        assert classify(fp.h2) == "parabolic"
        assert fp.shift == 1.0
        fix = tk._to_halfplane(poly.vertex(2 * i))
        src = apply_boundary(tk._CAYLEY, poly.vertex(2 * i - 1))
        dst = apply_boundary(tk._CAYLEY, poly.vertex(2 * i + 1))
        assert apply_boundary(fp.h2, fix) == fix or \
            abs(apply_boundary(fp.h2, fix) - fix) < 1e-9
        assert abs(apply_boundary(fp.h2, src) - dst) < 1e-9
    tau = pairings[3]
    assert tau.shift == 4.0


def test_face_pairing_shifts_by_ambient():
    for fp in tk.face_pairings(tk.TorusKnotParams(3, 2, "s2xs1"))[:3]:
        assert fp.shift == 0.0
    assert tk.face_pairings(tk.TorusKnotParams(3, 2, "s2xs1"))[3].shift == 3.0
    for fp in tk.face_pairings(tk.TorusKnotParams(2, 3))[:3]:
        assert fp.shift == 1.0


def test_vertex_cycle_is_identity():
    for params in (tk.TorusKnotParams(2, 3), tk.TorusKnotParams(3, 4),
                   tk.TorusKnotParams(2, 5), tk.TorusKnotParams(3, 2, "s2xs1")):
        # phi_p ... phi_1 around the compact-vertex gluing cycle is a full
        # rotation by 2 pi, the identity in PSL(2, R)
        pairings = tk.face_pairings(params)
        g = Moebius.identity()
        for fp in pairings[:params.geometric_pq()[0]]:
            g = fp.h2.compose(g)
        assert g.is_close(Moebius.identity(), 1e-9)


def test_euler_characteristic():
    assert tk.euler_char(tk.TorusKnotParams(2, 3)) == 1
    assert tk.euler_char(tk.TorusKnotParams(2, 5)) == -1
    assert tk.euler_char(tk.TorusKnotParams(3, 5)) == -4
    assert tk.euler_char(tk.TorusKnotParams(3, 4)) == -2


def test_cusp_horoball_count_and_rotation():
    params = tk.TorusKnotParams(3, 4)
    balls = tk._cusp_horoballs(params, 4.0)
    assert len(balls) == 3
    assert balls[-1].is_at_infinity() and balls[-1].size == pytest.approx(4.0)
    for B in balls[:-1]:
        assert not B.is_at_infinity()


def test_enumerate_cords_golden_trefoil():
    params = tk.TorusKnotParams(2, 3)
    fams = tk.enumerate_surface_cords(params, 6.0)
    assert len(fams) == 60
    lengths = [round(f.length, 9) for f in fams]
    assert lengths == sorted(lengths)
    assert all(f.length <= 6.0 + 1e-9 for f in fams)
    # three rotation-equivalent copies, one per source cusp of the p=3 polygon
    by_word = {}
    for f in fams:
        by_word.setdefault(f.word, []).append(f.source_cusp)
    for srcs in by_word.values():
        # equal representation of every source cusp for each family word
        assert len(srcs) % 3 == 0
        assert srcs.count(1) == srcs.count(2) == srcs.count(3)


@pytest.mark.parametrize("q,n_base", [(3, 20), (5, 64)],
                         ids=["p2q3", "p2q5"])
def test_family_words_compose_to_their_lengths(q, n_base):
    # each base family's dotted word, multiplied out from the face pairings
    # with scalar Moebius products, carries the target horodisk to one of
    # diameter y0 e^{-length}, up to the rounding of the array enumeration
    params = tk.TorusKnotParams(2, q)
    p, _ = params.geometric_pq()
    y0 = 4.0
    pairings = tk.face_pairings(params)[:p]
    balls = tk._cusp_horoballs(params, y0)
    base = [f for f in tk.enumerate_surface_cords(params, 6.0, y0=y0)
            if f.source_cusp == p]
    assert len(base) == n_base
    for f in base:
        g = Moebius.identity()
        for lab in ([] if f.word == "e" else f.word.split(".")):
            h2 = pairings[abs(int(lab)) - 1].h2
            g = g.compose(h2.inverse() if lab.startswith("-") else h2)
        gb = image_horoball(g, balls[f.target_cusp - 1])
        assert math.log(y0 / gb.size) == pytest.approx(f.length, abs=1e-12)


def _disk_key(j, size, center, s):
    """A horodisk by target cusp, diameter to 7 digits and center mod s."""
    return j, f"{size:.7g}", round(center % s, 6) % round(s, 6)


def test_tile_walk_finds_every_family_of_an_unpruned_search():
    # oracle: every freely reduced word of up to 7 letters, none pruned,
    # carries each cusp horodisk B_j to the horodisks of the families
    params = tk.TorusKnotParams(2, 3)
    p, _ = params.geometric_pq()
    y0, Lmax = 4.0, 5.0
    pairings = tk.face_pairings(params)[:p]
    balls = tk._cusp_horoballs(params, y0)
    phi = pairings[p - 1].h2
    s = abs((phi.b / phi.d).real)
    gens = [fp.h2 for fp in pairings] + [fp.h2.inverse() for fp in pairings]
    inverse = list(range(p, 2 * p)) + list(range(p))
    want = set()
    # the identity's level and 7 more: every element of a reduced word of
    # up to 7 letters, each once
    for g, _, _ in itertools.islice(reduced_levels(
            _entries(gens), inverse, lambda h: np.ones(h.shape[1], bool),
            10**6), 8):
        for j, B in enumerate(balls, start=1):
            if B.is_at_infinity():
                a, c, t = g[0], g[2], B.size
            else:
                h = _compose(g, _entries([Moebius(B.center, -1, 1, 0)]))
                a, c, t = h[0], h[2], 1.0 / B.size
            with np.errstate(divide="ignore", invalid="ignore"):
                size, center = 1.0 / (np.abs(c) ** 2 * t), (a / c).real
            for i in np.flatnonzero((size >= y0 * math.exp(-Lmax))
                                    & (size < y0 * (1 - 1e-9))):
                want.add(_disk_key(j, size[i], center[i], s))
    got = []
    for f in tk.enumerate_surface_cords(params, Lmax, y0=y0):
        if f.source_cusp != p:
            continue
        g = Moebius.identity()
        for lab in ([] if f.word == "e" else f.word.split(".")):
            h2 = pairings[abs(int(lab)) - 1].h2
            g = g.compose(h2.inverse() if lab.startswith("-") else h2)
        gb = image_horoball(g, balls[f.target_cusp - 1])
        got.append(_disk_key(f.target_cusp, gb.size, gb.center.real, s))
    assert len(got) == len(set(got)) == 8
    assert set(got) == want


@pytest.mark.parametrize("p,q,ambient,Lmax,n", [(2, 5, "s3", 8.0, 2420),
                                                (3, 4, "s3", 8.0, 432),
                                                (5, 2, "s2xs1", 7.0, 860)])
def test_family_count_goldens(p, q, ambient, Lmax, n):
    params = tk.TorusKnotParams(p, q, ambient)
    assert len(tk.enumerate_surface_cords(params, Lmax)) == n


def test_y0_must_lie_above_the_polygon():
    # the (5, 2) polygon's finite part has its vertices at height 1 and the
    # tops of its outer edge arcs at 1.0515: y0 = 1.05 lies between
    params = tk.TorusKnotParams(2, 5)
    with pytest.raises(ValueError):
        tk.enumerate_surface_cords(params, 2.0, y0=1.05)
    tk.enumerate_surface_cords(params, 2.0, y0=1.06)


def test_equal_lengths_ordered_by_word():
    # families of one length differ in the last bits of their float
    # lengths; the order among them is by word, then by cusps
    fams = tk.enumerate_surface_cords(tk.TorusKnotParams(3, 4), 8.0)
    keys = [(round(f.length, 9), f.word, f.source_cusp, f.target_cusp)
            for f in fams]
    assert len(keys) == 432 and keys == sorted(keys)


def test_enumerate_cords_monotone_in_cutoff():
    params = tk.TorusKnotParams(3, 4)
    small = tk.enumerate_surface_cords(params, 4.0)
    large = tk.enumerate_surface_cords(params, 6.0)
    assert len(small) < len(large)
    key = lambda f: (f.word, f.source_cusp, f.target_cusp)
    assert set(map(key, small)) <= set(map(key, large))


def test_enumerate_cords_empty_below_shortest():
    params = tk.TorusKnotParams(2, 3)
    assert tk.enumerate_surface_cords(params, 0.05) == []


def test_enumerate_cords_budget_cap():
    params = tk.TorusKnotParams(2, 5)
    with pytest.raises(BudgetExceeded):
        tk.enumerate_surface_cords(params, 12.0, max_elements=200)


def test_rank_table_pairs_degrees():
    code, rep = run_torus(2, 3, "s3", 6.0)
    assert code == 0
    assert rep["rank_table"] == {"cutoff": 6.0,
                                 "counts": {"0": 60, "1": 60}}
