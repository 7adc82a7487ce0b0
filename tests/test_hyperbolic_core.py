import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cordspec.hyperbolic_core import (PointH3, TangentVec, christoffel,
                                      christoffel_fd, distance,
                                      distance_gradient, geodesic_point,
                                      inner, metric_tensor, riemann,
                                      riemann_fd)

coord = st.floats(-3, 3, allow_nan=False)
height = st.floats(0.05, 20, allow_nan=False)
points = st.builds(PointH3, coord, coord, height)


def test_metric_tensor():
    g = metric_tensor(PointH3(1.0, -2.0, 0.5))
    assert np.allclose(g, np.eye(3) / 0.25)


def test_christoffel_closed_form():
    z = 0.7
    G = christoffel(PointH3(0.3, 0.1, z))
    expected = np.zeros((3, 3, 3))
    expected[2, 0, 0] = expected[2, 1, 1] = 1.0 / z
    expected[0, 0, 2] = expected[0, 2, 0] = -1.0 / z
    expected[1, 1, 2] = expected[1, 2, 1] = -1.0 / z
    expected[2, 2, 2] = -1.0 / z
    assert np.allclose(G, expected, atol=1e-14)


@given(points)
@settings(max_examples=30, deadline=None)
def test_christoffel_matches_finite_differences(q):
    assert np.abs(christoffel(q) - christoffel_fd(q)).max() < 1e-6


@given(points, st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_riemann_matches_finite_differences(q, seed):
    rng = np.random.default_rng(seed)
    X, Y, Z = (TangentVec(q, rng.normal(size=3)) for _ in range(3))
    alg = riemann(q, X, Y, Z).vec()
    num = riemann_fd(q, X, Y, Z).vec()
    scale = max(1.0, np.abs(alg).max())
    assert np.abs(alg - num).max() / scale < 1e-5


def _central_differences(f, q, h):
    """d[k] = (f(q + h e_k) - f(q - h e_k)) / 2h."""
    c = q.coords()
    return np.array([(f(PointH3.from_coords(c + h * e))
                      - f(PointH3.from_coords(c - h * e))) / (2 * h)
                     for e in np.eye(3)])


def test_fd_oracles_match_their_index_loops():
    # the einsum contractions against the index loops they replaced, on the
    # same difference quotients; only the summation order differs
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = PointH3(*rng.normal(size=2), math.exp(rng.normal()))
        dg = _central_differences(metric_tensor, q, 1e-5 * q.z)
        ginv = np.linalg.inv(metric_tensor(q))
        gamma = np.zeros((3, 3, 3))
        for a, i, j, m in np.ndindex(3, 3, 3, 3):
            gamma[a, i, j] += 0.5 * ginv[a, m] * (dg[i, m, j] + dg[j, m, i]
                                                  - dg[m, i, j])
        eps = np.finfo(float).eps
        assert (np.abs(christoffel_fd(q) - gamma).max()
                <= 16 * eps * np.abs(gamma).max())
        dgam = _central_differences(christoffel, q, 1e-4 * q.z)
        gam = christoffel(q)
        R = np.zeros((3, 3, 3, 3))
        for a, b, i, j in np.ndindex(3, 3, 3, 3):
            R[a, b, i, j] = dgam[i, a, j, b] - dgam[j, a, i, b] + sum(
                gam[a, i, m] * gam[m, j, b] - gam[a, j, m] * gam[m, i, b]
                for m in range(3))
        X, Y, Z = (rng.normal(size=3) for _ in range(3))
        loop = np.einsum("abij,i,j,b->a", R, X, Y, Z)
        fd = riemann_fd(q, *(TangentVec(q, v) for v in (X, Y, Z))).vec()
        scale = np.abs(R).max() * np.abs([X, Y, Z]).max() ** 3
        assert np.abs(fd - loop).max() <= 64 * eps * scale


@given(points, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_sectional_curvature_is_minus_one(q, seed):
    rng = np.random.default_rng(seed)
    X = TangentVec(q, rng.normal(size=3))
    Y = TangentVec(q, rng.normal(size=3))
    den = inner(X, X) * inner(Y, Y) - inner(X, Y) ** 2
    if den < 1e-6 * q.z**-4:
        return
    k = inner(riemann(q, X, Y, Y), X) / den
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
    assert np.abs(g1 - [0, 0, -1]).max() < 1e-12
    assert np.abs(g2 - [0, 0, 1 / q2.z]).max() < 1e-12


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
