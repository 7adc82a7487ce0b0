import math

import numpy as np
import pytest

from oracles import (cord_point, first_variation, from_vertical, path_energy,
                     riemann)

from cordspec import cord_engine as ce
from cordspec import variational as va
from cordspec.hyperbolic_core import PointH3

A0 = 1.2


def vertical_cord(length=1.3):
    return from_vertical(A0, 0j, length)


def curvature_form(ell, a0, N, curvature_sign=1.0, boundary=True):
    """The index form along the vertical cord of length ell from {z = a0},
    assembled one segment at a time from the curvature operator: the
    general integrand |DV/dt|^2 - <R(V, c')c', V> at each segment midpoint,
    and the boundary terms |c'| <S V, V> from the numeric shape operator of
    the horospheres.  The reference oracle for ``hessian``'s bands.  With
    the curvature sign flipped and no boundary terms it is a form of
    positive index, which shows that the counts can see one."""
    z = a0 * np.exp(-ell * (np.arange(N + 1) / N))  # node heights
    h = 1.0 / N
    # DV/dt at the midpoint of segment k: ca V_k + cb V_{k+1}
    ca = -1.0 / h + ell / 2.0
    cb = 1.0 / h + ell / 2.0
    diag = np.zeros((2, N + 1))
    off = np.zeros((2, N))
    for k in range(N):
        zm = math.sqrt(z[k] * z[k + 1])  # geometric midpoint height
        w = 1.0 / zm**2
        qmid = PointH3(0.0, 0.0, zm)
        cdot = (0.0, 0.0, -ell * zm)
        for comp in range(2):
            e = [0.0, 0.0, 0.0]
            e[comp] = 1.0
            Rv = riemann(qmid, e, cdot, cdot)
            q = h * curvature_sign * -Rv[comp] / zm**2 / 4.0
            diag[comp, k] += h * w * ca * ca + q
            diag[comp, k + 1] += h * w * cb * cb + q
            off[comp, k] = h * w * ca * cb + q
    if boundary:
        for node in (0, N):
            s = va._shape_operator_diag(PointH3(0.0, 0.0, z[node]))
            diag[:, node] += ell * np.asarray(s) / z[node] ** 2
    mass = h / z**2  # trapezoid L^2 mass
    mass[[0, N]] /= 2.0
    return va.HessianForm(diag, off, mass)


def bisection_eigenvalue(H):
    """The least eigenvalue by plain bisection on the Sturm count over the
    whole bracket, to adjacent floats: the solve before the Newton start,
    kept as its oracle."""
    lo = -H.zero_band
    if H.count_below(lo) > 0:
        lo = min(min(a - math.sqrt(l) - math.sqrt(r)
                     for a, l, r in zip(d, e2, e2[1:] + [0.0]))
                 for d, e2, _, _ in H._sturm)
    hi = float(np.min(H.diag.sum(axis=1) + 2.0 * H.off.sum(axis=1))
               / H.mass.sum())
    assert H.count_below(hi) >= 1
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if H.count_below(mid) >= 1:
            hi = mid
        else:
            lo = mid


def test_mean_curvature_of_horospheres():
    for z0 in (0.1, 1.0, 10.0):
        assert abs(va.mean_curvature(z0) - 1.0) < 1e-8
        lo, hi = va._shape_operator_diag(PointH3(0.0, 0.0, z0))
        assert abs(lo - 1.0) < 1e-8 and abs(hi - 1.0) < 1e-8


def samples(cord, N):
    return [cord_point(cord, k / N) for k in range(N + 1)]


def test_discrete_energy_of_geodesic_samples():
    nodes = samples(vertical_cord(0.9), 64)
    # exact segment distances make geodesic samples exactly critical
    assert path_energy(nodes) == pytest.approx(0.5 * 0.9**2, abs=1e-13)


def test_first_variation_vanishes_at_cord():
    nodes = samples(vertical_cord(1.1), 48)
    rng = np.random.default_rng(2)
    V = rng.normal(size=(49, 3))
    V[0, 2] = V[-1, 2] = 0.0  # tangent to the horospheres at the ends
    assert abs(first_variation(nodes, V)) < 1e-10


def test_first_variation_matches_finite_differences():
    N, h = 32, 1e-6
    rng = np.random.default_rng(4)
    # perturb the interior nodes so the gradient is nonzero
    nodes = [PointH3(q.x + 0.02 * rng.normal(), q.y + 0.02 * rng.normal(),
                     q.z * math.exp(0.02 * rng.normal())) if 0 < k < N else q
             for k, q in enumerate(samples(vertical_cord(1.0), N))]
    V = rng.normal(size=(N + 1, 3))
    V[0, 2] = V[-1, 2] = 0.0

    def shifted(sign):
        return path_energy([PointH3(*(q.coords() + sign * h * v))
                            for q, v in zip(nodes, V)])

    fd = (shifted(1) - shifted(-1)) / (2 * h)
    assert abs(first_variation(nodes, V) - fd) <= 1e-4 * max(1.0, abs(fd))


def test_hessian_positive_index_zero():
    # index and nullity stay (0, 0) under mesh refinement
    for length in (0.4, 1.6, 3.0):
        for N in (64, 256, 1024):
            H = va.hessian(length, A0, N)
            idx, nul = va.index_nullity(H)
            assert (idx, nul) == (0, 0)
            # Robin boundary terms push the spectrum above l^2
            assert va.smallest_eigenvalue(H) > length**2


@pytest.mark.parametrize("kwargs", [
    {}, {"curvature_sign": -1.0, "boundary": False}])
def test_band_eigenvalues_match_dense_generalized_solve(kwargs):
    from scipy.linalg import block_diag, eigh

    # hessian's form, or the sign-flipped, boundary-free oracle form
    H0 = curvature_form(2.5, A0, 128, **kwargs) if kwargs else \
        va.hessian(2.5, A0, 128)
    # both give equal components, which are counted once and doubled; a
    # rescaled second component makes the two problems differ
    H1 = va.HessianForm(H0.diag * [[1.0], [1.5]], H0.off * [[1.0], [0.5]],
                        H0.mass)
    assert not np.array_equal(*H1.diag)
    zero_band = 10.0 / 128**2
    for H in (H0, H1):
        # the dense 2(N+1)-square form and mass, one block per component
        A = block_diag(*(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
                         for d, e in zip(H.diag, H.off)))
        M = np.diag(np.tile(H.mass, 2))
        dense = eigh(A, M, eigvals_only=True)
        # the Sturm count at the band edges and inside every 16th gap; the
        # gaps start at the second, since equal components give pairs
        gaps = 0.5 * (dense[:-1] + dense[1:])[1::16]
        for x in (-zero_band, zero_band, *gaps):
            assert H.count_below(x) == int(np.sum(dense < x)), x
        assert va.index_nullity(H) == (int(np.sum(dense < -zero_band)),
                                       int(np.sum(np.abs(dense) <= zero_band)))
        assert va.smallest_eigenvalue(H) == pytest.approx(dense[0], rel=1e-10)
        assert va.smallest_eigenvalue(H) == bisection_eigenvalue(H)


class _CountedList(list):
    """A list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


@pytest.mark.parametrize("a0, length, N", [
    *((A0, ell, N) for ell in (0.3, 1.0, 2.5, 5.0) for N in (64, 256)),
    # a height where Newton's steps reach rounding level: undoubled, they
    # crept through 309 passes to the root, and doubled they take 16
    (1.0000000000000016, 2.197224577336224, 1024)])
def test_newton_start_returns_the_bisection_float(a0, length, N):
    H = va.hessian(length, a0, N)
    expected = bisection_eigenvalue(H)
    # count every pivot pass, Sturm count or Newton step: plain bisection
    # makes 55 to 58
    (d, *rest), = H._sturm  # equal components: one distinct
    H._sturm = ((counted := _CountedList(d), *rest),)
    assert va.smallest_eigenvalue(H) == expected
    assert counted.passes < 50


def test_rayleigh_bound_without_an_eigenvalue_below_raises():
    # constant diagonal, zero off-diagonal and constant mass: every
    # eigenvalue is 1.0 / 0.1 = 10.0, and so is the Rayleigh quotient of the
    # constant field in exact arithmetic; its rounded sums give
    # 9.999999999999998, below the eigenvalue, so the upper end holds none
    n = 17
    H = va.HessianForm(np.ones((2, n)), np.zeros((2, n - 1)),
                       np.full(n, 0.1))
    assert H.count_below(10.0) == 2 * n
    with pytest.raises(ArithmeticError, match="Rayleigh quotient"):
        va.smallest_eigenvalue(H)
    # a quotient that rounds onto the eigenvalue holds it: a zero pivot
    # counts as negative, as in dstebz
    H = va.HessianForm(np.full((2, n), 2.0), np.zeros((2, n - 1)),
                       np.ones(n))
    assert va.smallest_eigenvalue(H) == 2.0


@pytest.mark.parametrize("length", [1.0, 2.5, 4.0])
def test_negative_smallest_eigenvalue_matches_dense_solve(length):
    # with the curvature sign flipped and no boundary terms the index is
    # positive, so the bisection starts from the Gershgorin bound
    from scipy.linalg import eigh

    H = curvature_form(length, A0, 64, curvature_sign=-1.0, boundary=False)
    d, e = H.diag[0], H.off[0]
    A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dense = eigh(A, np.diag(H.mass), eigvals_only=True)
    assert dense[0] < 0 and va.index_nullity(H)[0] > 0
    assert va.smallest_eigenvalue(H) == pytest.approx(dense[0], rel=1e-10)
    assert va.smallest_eigenvalue(H) == bisection_eigenvalue(H)


def test_hessian_routes_agree():
    # hessian's whole-array bands against the curvature-operator oracle
    Hd = va.hessian(1.2, A0, 128)
    Hc = curvature_form(1.2, A0, 128)
    for band in ("diag", "off", "mass"):
        assert np.abs(getattr(Hd, band) - getattr(Hc, band)).max() < 1e-8


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("length", [0.3, 1.0, 2.5, 5.0])
def test_index_form_does_not_depend_on_the_height(length, N):
    # z -> s z is an isometry that scales the form and the mass by 1/s^2
    # alike, so index solves once per length, whatever the height
    forms = [va.hessian(length, a0, N) for a0 in (0.5, 1.0, 1.2, 3.0)]
    counts = {va.index_nullity(H) for H in forms}
    assert counts == {(0, 0)}
    lams = [va.smallest_eigenvalue(H) for H in forms]
    assert max(lams) - min(lams) <= 1e-11 * min(lams)


def test_hessian_mesh_consistency():
    e64 = va.smallest_eigenvalue(va.hessian(1.0, A0, 64))
    e256 = va.smallest_eigenvalue(va.hessian(1.0, A0, 256))
    assert abs(e64 - e256) <= 1.0 / 64


def test_synthetic_sign_flip_creates_index():
    # flipping the curvature sign and dropping the boundary terms must
    # produce negative directions: validates that the detector can see them
    H = curvature_form(2.5, A0, 128, curvature_sign=-1.0, boundary=False)
    idx, _ = va.index_nullity(H)
    assert idx > 0


def test_constant_chord_kernel_cokernel():
    assert va.constant_chord_hessian(1.0, N=128) == (2, 2)
    assert va.constant_chord_hessian(2.0, N=64) == (2, 2)
    assert va.constant_chord_hessian(1.0, N=256) == (2, 2)


def dense_constant_chord_count(a0, N):
    """Kernel and cokernel dimensions of the constant-chord problem from
    dense SVDs of its (2N + 2)-square coordinate blocks, one tolerance over
    all their singular values: the count before the propagator reduction,
    kept as its oracle where that tolerance still separates the ranks."""
    h = 1.0 / N
    n = N + 1
    k = np.arange(N)

    def block(fixed):
        # unknowns: dq_c at nodes 0..N, then dp_c at nodes 0..N
        L = np.zeros((2 * n, 2 * n))
        # (dq_{k+1} - dq_k)/h - a0^2 (dp_k + dp_{k+1})/2 = 0
        L[k, k + 1] = 1.0 / h
        L[k, k] = -1.0 / h
        L[k, n + k] = -a0**2 / 2.0
        L[k, n + k + 1] = -a0**2 / 2.0
        # (dp_{k+1} - dp_k)/h = 0
        L[N + k, n + k + 1] = 1.0 / h
        L[N + k, n + k] = -1.0 / h
        # boundary: the fixed unknown vanishes at both ends
        L[2 * N, fixed] = 1.0
        L[2 * N + 1, fixed + N] = 1.0
        return L.shape, np.linalg.svd(L, compute_uv=False)

    # dp_x = dp_y = 0 at both ends (fixed = n, twice); dq_z = 0 (fixed = 0)
    blocks = [(2, *block(n)), (1, *block(0))]  # (multiplicity, shape, sv)
    tol = 1e-8 * max(sv[0] for _, _, sv in blocks)
    rank = sum(m * int(np.sum(sv > tol)) for m, _, sv in blocks)
    kernel_dim = sum(m * cols for m, (_, cols), _ in blocks) - rank
    cokernel_dim = sum(m * rows for m, (rows, _), _ in blocks) - rank
    return kernel_dim, cokernel_dim


@pytest.mark.parametrize("N", [1, 2, 16, 64, 128, 256])
@pytest.mark.parametrize("a0", [0.5, 1.0, 2.0])
def test_constant_chord_count_matches_dense_svd(a0, N):
    assert va.constant_chord_hessian(a0, N) == \
        dense_constant_chord_count(a0, N)


@pytest.mark.parametrize("N", [1, 2, 64, 4096, 2**16])
@pytest.mark.parametrize("a0", [1e-4, 1e-2, 1.0, 1e2, 1e4])
def test_constant_chord_count_free_of_scale_and_mesh(a0, N):
    # the dense count printed 3, 4 and 97 at (a0, N) = (0.01, 256),
    # (100, 256) and (1000, 256): its one tolerance mixed dq and dp scales
    assert va.constant_chord_hessian(a0, N) == (2, 2)


def test_enumerated_cords_all_stable(fig8):
    for ell in ce.canonical_classes(fig8, A0, 2.0).lengths:
        H = va.hessian(ell, A0, 128)
        assert va.index_nullity(H) == (0, 0)
        assert va.smallest_eigenvalue(H) > ell**2


def test_five_two_cords_all_stable(five_two):
    # the paper's theorem on a second, non-arithmetic knot: at the embedded
    # height every cord below the cutoff has index 0 and nullity 0
    a0 = ce.max_embedded_height(five_two)
    lengths = ce.canonical_classes(five_two, a0, 3.0).lengths
    assert len(lengths) > 10
    for ell in lengths:
        H = va.hessian(ell, a0, 128)
        assert va.index_nullity(H) == (0, 0)
        assert va.smallest_eigenvalue(H) > ell**2
