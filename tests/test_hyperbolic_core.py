import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import inner, riemann

from cordspec.hyperbolic_core import (PointH3, TangentVec, christoffel,
                                      christoffel_fd, distance,
                                      distance_gradient, geodesic_point,
                                      metric_tensor, riemann_fd)

coord = st.floats(-3, 3, allow_nan=False)
height = st.floats(0.05, 20, allow_nan=False)
points = st.builds(PointH3, coord, coord, height)


def test_metric_tensor():
    g = metric_tensor(PointH3(1.0, -2.0, 0.5).coords())
    assert np.allclose(g, np.eye(3) / 0.25)
    stacked = metric_tensor([[1.0, -2.0, 0.5], [0.0, 0.0, 2.0]])
    assert np.array_equal(stacked, [np.eye(3) / 0.25, np.eye(3) / 4.0])


def test_christoffel_closed_form():
    z = 0.7
    G = christoffel((0.3, 0.1, z))
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 0] = expected[2, 1, 1] = 1.0 / z
    expected[0, 0, 2] = expected[0, 2, 0] = -1.0 / z
    expected[1, 1, 2] = expected[1, 2, 1] = -1.0 / z
    expected[2, 2, 2] = -1.0 / z
    assert np.allclose(G, expected, atol=1e-14)
    stacked = christoffel([[[0.3, 0.1, z]], [[0.0, 0.0, 2 * z]]])
    assert stacked.shape == (2, 1, 3, 3, 3)
    assert np.array_equal(stacked[0, 0], G)
    assert np.array_equal(stacked[1, 0], christoffel((0.0, 0.0, 2 * z)))


@given(points)
@settings(max_examples=30, deadline=None)
def test_christoffel_matches_finite_differences(q):
    c = q.coords()
    assert np.abs(christoffel(c) - christoffel_fd(c)).max() < 1e-6


@given(points, st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_riemann_matches_finite_differences(q, seed):
    rng = np.random.default_rng(seed)
    X, Y, Z = (rng.normal(size=3) for _ in range(3))
    alg = riemann(q, X, Y, Z)
    num = riemann_fd(q.coords(), X, Y, Z)
    scale = max(1.0, np.abs(alg).max())
    assert np.abs(alg - num).max() / scale < 1e-5


def _central_differences(f, q, h):
    """d[k] = (f(q + h e_k) - f(q - h e_k)) / 2h at one point q."""
    return np.array([(f(q + h * e) - f(q - h * e)) / (2 * h)
                     for e in np.eye(3)])


def test_fd_oracles_match_their_index_loops():
    # the einsum contractions against the index loops they replaced, on the
    # same difference quotients; only the summation order differs
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = np.array([*rng.normal(size=2), math.exp(rng.normal())])
        dg = _central_differences(metric_tensor, q, 1e-5 * q[2])
        ginv = np.linalg.inv(metric_tensor(q))
        gamma = np.zeros((3, 3, 3))
        for a, i, j, m in np.ndindex(3, 3, 3, 3):
            gamma[a, i, j] += 0.5 * ginv[a, m] * (dg[i, m, j] + dg[j, m, i]
                                                  - dg[m, i, j])
        eps = np.finfo(float).eps
        assert (np.abs(christoffel_fd(q) - gamma).max()
                <= 16 * eps * np.abs(gamma).max())
        dgam = _central_differences(christoffel, q, 1e-4 * q[2])
        gam = christoffel(q)
        R = np.zeros((3, 3, 3, 3))
        for a, b, i, j in np.ndindex(3, 3, 3, 3):
            R[a, b, i, j] = dgam[i, a, j, b] - dgam[j, a, i, b] + sum(
                gam[a, i, m] * gam[m, j, b] - gam[a, j, m] * gam[m, i, b]
                for m in range(3))
        X, Y, Z = (rng.normal(size=3) for _ in range(3))
        loop = np.einsum("abij,i,j,b->a", R, X, Y, Z)
        fd = riemann_fd(q, X, Y, Z)
        scale = np.abs(R).max() * np.abs([X, Y, Z]).max() ** 3
        assert np.abs(fd - loop).max() <= 64 * eps * scale


# The per-point bodies that the stacked oracles replaced, kept as references:
# one point at a time, one stencil point at a time.

def _christoffel_fd_loop(q, rel_step=1e-5):
    h = rel_step * q[2]
    dg = np.zeros((3, 3, 3))  # dg[k, i, j] = d_k g_ij
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dg[k] = (metric_tensor(q + e) - metric_tensor(q - e)) / (2 * h)
    ginv = np.linalg.inv(metric_tensor(q))
    return 0.5 * np.einsum("am,imj->aij", ginv, dg + dg.transpose(2, 1, 0)
                           - dg.transpose(1, 0, 2))


def _riemann_fd_loop(q, X, Y, Z, rel_step=1e-4):
    h = rel_step * q[2]
    dgam = np.zeros((3, 3, 3, 3))  # dgam[k, a, i, j] = d_k Gamma^a_ij
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        dgam[k] = (christoffel(q + e) - christoffel(q - e)) / (2 * h)
    gam = christoffel(q)
    R = (np.einsum("iajb->abij", dgam) - np.einsum("jaib->abij", dgam)
         + np.einsum("aim,mjb->abij", gam, gam)
         - np.einsum("ajm,mib->abij", gam, gam))
    return np.einsum("abij,i,j,b->a", R, X, Y, Z)


def _curvature_suite_points(n=100, seed=7):
    """The curvature suite's draws, point by point: q, X and Y."""
    gauss = random.Random(seed).gauss
    rows = []
    for _ in range(n):
        x, y = gauss(0.0, 1.0), gauss(0.0, 1.0)
        z = math.exp(gauss(0.0, 1.0))
        rows.append([x, y, z, *(gauss(0.0, 1.0) for _ in range(6))])
    rows = np.array(rows)
    return rows[:, :3], rows[:, 3:6], rows[:, 6:]


def test_stacked_fd_oracles_equal_their_point_loops():
    # the same difference quotients and contractions on every row: a row of
    # a stack is at most a few ulps of the largest term away from the loop
    eps = np.finfo(float).eps
    q, X, Y = _curvature_suite_points()
    gam = christoffel_fd(q)
    R = riemann_fd(q, X, Y, Y)
    assert gam.shape == (100, 3, 3, 3) and R.shape == (100, 3)
    for k in range(len(q)):
        loop = _christoffel_fd_loop(q[k])
        assert np.abs(gam[k] - loop).max() <= 4 * eps * np.abs(loop).max()
        loop = _riemann_fd_loop(q[k], X[k], Y[k], Y[k])
        scale = (np.abs(christoffel(q[k])).max() ** 2
                 * np.abs([X[k], Y[k]]).max() ** 3)
        assert np.abs(R[k] - loop).max() <= 64 * eps * scale
    # a batch of one is the unbatched call, and batch axes may be nested
    assert np.array_equal(christoffel_fd(q[:1])[0], christoffel_fd(q[0]))
    assert np.array_equal(riemann_fd(q[:1], X[:1], Y[:1], Y[:1])[0],
                          riemann_fd(q[0], X[0], Y[0], Y[0]))
    nested = riemann_fd(q.reshape(10, 10, 3), X.reshape(10, 10, 3),
                        Y.reshape(10, 10, 3), Y.reshape(10, 10, 3))
    assert np.array_equal(nested.reshape(100, 3), R)


@given(points, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sectional_curvature_is_minus_one(q, seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=3), rng.normal(size=3)
    den = inner(q, X, X) * inner(q, Y, Y) - inner(q, X, Y) ** 2
    if den < 1e-6 * q.z**-4:
        return
    k = inner(q, riemann(q, X, Y, Y), X) / den
    assert abs(k + 1.0) < 1e-10


def test_distance_closed_form_values():
    # vertical: d((0,0,1),(0,0,e)) = 1
    assert abs(distance(PointH3(0, 0, 1), PointH3(0, 0, math.e)) - 1.0) < 1e-14
    # same height, cosh d = 1 + |dx|^2 / (2 z^2)
    d = distance(PointH3(0, 0, 1), PointH3(1, 0, 1))
    assert abs(math.cosh(d) - 1.5) < 1e-14
    # nearby points: d = log(1 + h) and its gradient (0, 0, -1), (0, 0, 1/z2)
    # keep their precision where 1 + h^2/2 rounds to 1
    q1, q2 = PointH3(0, 0, 1), PointH3(0, 0, 1 + 1e-9)
    assert abs(distance(q1, q2) / math.log1p(q2.z - 1) - 1.0) < 1e-12
    g1, g2 = distance_gradient(q1, q2)
    assert all(type(c) is float for c in g1 + g2)  # two float triples
    assert max(abs(a - b) for a, b in zip(g1, (0, 0, -1))) < 1e-12
    assert max(abs(a - b) for a, b in zip(g2, (0, 0, 1 / q2.z))) < 1e-12


@given(points, points)
@settings(max_examples=40, deadline=None)
def test_distance_symmetry_positivity(q1, q2):
    d12, d21 = distance(q1, q2), distance(q2, q1)
    assert abs(d12 - d21) < 1e-12
    assert d12 >= 0.0
    assert distance(q1, q1) == 0.0


@given(points, points, points)
@settings(max_examples=40, deadline=None)
def test_triangle_inequality(q1, q2, q3):
    assert distance(q1, q3) <= distance(q1, q2) + distance(q2, q3) + 1e-10


@given(points, st.integers(0, 10**6), st.floats(0.01, 2.0))
@settings(max_examples=30, deadline=None)
def test_geodesic_unit_speed_and_distance(q, seed, t):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=3)
    v = v / (np.linalg.norm(v) / q.z)  # unit hyperbolic norm
    X = TangentVec(q, v)
    qt = geodesic_point(q, X, t)
    assert abs(distance(q, qt) - t) < 1e-9


def test_geodesic_initial_velocity():
    q = PointH3(0.2, -0.5, 1.3)
    v = np.array([0.6, -0.2, 0.9])
    v = v / (np.linalg.norm(v) / q.z)
    h = 1e-6
    qp = geodesic_point(q, TangentVec(q, v), h)
    qm = geodesic_point(q, TangentVec(q, v), -h)
    fd = (qp.coords() - qm.coords()) / (2 * h)
    assert np.abs(fd - v).max() < 1e-7


def test_geodesic_point_normalizes_the_velocity():
    # the velocity's length does not matter, only its direction; a list,
    # a tuple and an array of floats are read alike
    q = PointH3(0.2, -0.5, 1.3)
    v = np.array([0.6, -0.2, 0.9])
    unit = geodesic_point(q, TangentVec(q, v / (np.linalg.norm(v) / q.z)),
                          0.8)
    for w in (3.0 * v, list(0.25 * v), tuple(v)):
        qt = geodesic_point(q, TangentVec(q, w), 0.8)
        assert np.abs(qt.coords() - unit.coords()).max() < 1e-14
    with pytest.raises(ValueError, match="zero velocity"):
        geodesic_point(q, TangentVec(q, (0.0, 0.0, 0.0)), 0.8)


def test_geodesic_vertical_case():
    q = PointH3(1.0, 2.0, 0.5)
    X = TangentVec(q, (0.0, 0.0, -0.5))  # unit speed downward
    qt = geodesic_point(q, X, 0.7)
    assert abs(qt.x - 1.0) < 1e-14 and abs(qt.y - 2.0) < 1e-14
    assert abs(qt.z - 0.5 * math.exp(-0.7)) < 1e-12


def test_invalid_height_rejected():
    with pytest.raises(ValueError):
        PointH3(0, 0, 0.0)
    with pytest.raises(ValueError):
        PointH3(0, 0, -1.0)
