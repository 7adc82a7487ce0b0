"""Second variation of the energy at a cord between horospheres, with the
free-boundary shape-operator terms: the index form, its Morse index,
nullity and least eigenvalue, the horospheres' mean curvature, and the
constant-chord Hessian."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hyperbolic_core import PointH3, christoffel


# ---------------------------------------------------------------------------
# Hessian of the energy at a cord (standard vertical frame)


@dataclass
class HessianForm:
    """Discrete second variation over transverse nodal fields (components in
    the horosphere-tangent directions d_x, d_y at each node).

    The form couples node k of a component only with nodes k +- 1 of the
    same component, and the trapezoid L^2 mass is lumped at the nodes, so
    both are stored as bands: one symmetric tridiagonal matrix per component
    (``diag[comp]``, ``off[comp]``) and the diagonal ``mass``."""

    diag: np.ndarray  # (2, N+1)
    off: np.ndarray  # (2, N)
    mass: np.ndarray  # (N+1,)

    @property
    def N(self) -> int:
        return len(self.mass) - 1

    @property
    def zero_band(self) -> float:
        """Half-width 10/N^2 of the band of eigenvalues counted as null."""
        return 10.0 / self.N**2

    @cached_property
    def _sturm(self) -> tuple:
        """Per distinct component, the tridiagonal T = M^{-1/2} H M^{-1/2}
        as float lists (diagonal, squared off-diagonal with a leading 0),
        its pivot guard and its multiplicity.  Equal components (as ``hessian``
        gives) are stored once and counted twice."""
        m = self.mass
        if np.array_equal(*self.diag) and np.array_equal(*self.off):
            comps = [(0, 2)]
        else:
            comps = [(0, 1), (1, 1)]
        out = []
        for c, mult in comps:
            e2 = self.off[c] ** 2 / (m[:-1] * m[1:])
            # dstebz's pivmin: the least |pivot| that keeps e^2/pivot finite
            pivmin = np.finfo(float).tiny * max(1.0, float(e2.max()))
            out.append(((self.diag[c] / m).tolist(), [0.0, *e2.tolist()],
                        pivmin, mult))
        return tuple(out)

    def count_below(self, x: float) -> int:
        """Number of eigenvalues of H u = lambda M u below x: the negative
        pivots of the LDL^T factorization of T - xI (Sylvester's law of
        inertia), summed over the components.  A pivot within pivmin of
        zero is set to -pivmin, as in LAPACK's dstebz."""
        x = float(x)  # a numpy scalar would slow every step of the loop
        total = 0
        for d, e2, pivmin, mult in self._sturm:
            n = 0
            q = 1.0
            for a, b in zip(d, e2):
                q = a - x - b / q
                if q < pivmin:
                    n += 1
                    if q > -pivmin:
                        q = -pivmin
            total += mult * n
        return total


def hessian(ell: float, a0: float, N: int = 256) -> HessianForm:
    """Second variation quadratic form of the energy at a nondegenerate cord
    of length ``ell`` from the horosphere {z = a0}, over transverse
    variation fields in the cord's standard vertical frame.

    An isometry fixing infinity carries the cord onto the vertical one over
    0, so the form depends on nothing else, and its two components are
    equal.  Integrand |DV/dt|^2 + |c'|^2 |V|^2, since -<R(V, c')c', V> =
    |c'|^2 |V|^2 in curvature -1, with the Robin boundary terms
    l(|V(0)|^2 + |V(1)|^2), since the horospheres' shape operator is the
    identity; assembled with whole-array operations.
    """
    if ell <= 0:
        raise ValueError("constant chord: use constant_chord_hessian")
    z = a0 * np.exp(-ell * (np.arange(N + 1) / N))  # node heights
    h = 1.0 / N
    # DV/dt at the midpoint of segment k: ca V_k + cb V_{k+1}
    ca = -1.0 / h + ell / 2.0
    cb = 1.0 / h + ell / 2.0
    w = 1.0 / (z[:-1] * z[1:])  # 1/z^2 at the geometric midpoint height
    # h * w * (ca V_k + cb V_{k+1})^2 plus the curvature term
    # h * l^2 * w * ((V_k + V_{k+1}) / 2)^2 on the midpoint value
    q = h * ell**2 * w / 4.0
    d = np.zeros(N + 1)
    d[:-1] += h * w * ca * ca + q
    d[1:] += h * w * cb * cb + q
    d[[0, N]] += ell / z[[0, N]] ** 2  # the Robin terms
    o = h * w * ca * cb + q
    mass = h / z**2  # trapezoid L^2 mass
    mass[[0, N]] /= 2.0
    return HessianForm(np.array([d, d]), np.array([o, o]), mass)


def _shape_operator_diag(q: PointH3, step: float = 1e-6) -> tuple:
    """Diagonal of the horosphere shape operator at q for the normal field
    pointing into the adjacent horoball (numeric covariant derivative of the
    normal field nu = z d_z of the foliation by horizontal horospheres)."""
    gam = christoffel(q.coords())
    diag = []
    for comp in range(2):
        e = np.zeros(3)
        e[comp] = step
        qp = PointH3.from_coords(q.coords() + e)
        qm = PointH3.from_coords(q.coords() - e)
        nu_p = np.array([0.0, 0.0, qp.z])
        nu_m = np.array([0.0, 0.0, qm.z])
        dnu = (nu_p - nu_m) / (2 * step)
        nu = np.array([0.0, 0.0, q.z])
        ev = np.zeros(3)
        ev[comp] = 1.0
        cov = dnu + np.einsum("aij,i,j->a", gam, ev, nu)
        # S(e) = -(nabla_e nu)^tangent; tangent components are x, y
        diag.append(-cov[comp])
    return tuple(diag)


def mean_curvature(z0: float) -> float:
    """Mean curvature of the horosphere {z = z0} from the shape operator
    (average of the two principal curvatures); equals 1 for every z0 > 0."""
    d = _shape_operator_diag(PointH3(0.0, 0.0, z0))
    return 0.5 * (d[0] + d[1])


def index_nullity(H: HessianForm) -> tuple:
    """Counts of negative and near-zero eigenvalues of the generalized
    problem H u = lambda M u: below -band, and within [-band, band], for
    the band 10/N^2."""
    band = H.zero_band
    below = H.count_below(-band)
    return below, H.count_below(np.nextafter(band, np.inf)) - below


def smallest_eigenvalue(H: HessianForm) -> float:
    """Least eigenvalue of H u = lambda M u by bisection on the Sturm count,
    to adjacent floats (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

    The bracket runs from -band, or the Gershgorin bound of T when some
    eigenvalue lies below -band, up to the Rayleigh quotient of the
    constant field, the least over the components.  From -band, Newton's
    method on each component's det(T - xI) (not on their product, whose
    root may be double) rises to the least root, and its first iterate
    with a negative pivot closes the bracket.  The float count is monotone
    in x (Demmel, Dhillon & Ren, ETNA 3, 1995), so the bisection returns
    the same float.  From the Gershgorin bound, far below the spectrum,
    Newton would take about 0.65 N steps, so that bracket is bisected."""
    lo = -H.zero_band
    newton = H.count_below(lo) == 0
    if not newton:
        lo = min(min(a - math.sqrt(l) - math.sqrt(r)
                     for a, l, r in zip(d, e2, e2[1:] + [0.0]))
                 for d, e2, _, _ in H._sturm)
    hi = float(np.min(H.diag.sum(axis=1) + 2.0 * H.off.sum(axis=1))
               / H.mass.sum())
    if H.count_below(hi) < 1:
        raise ArithmeticError(
            f"no eigenvalue below the Rayleigh quotient {hi!r}")
    lows = []
    for d, e2, pivmin, _ in H._sturm if newton else ():
        x, last, grow = lo, lo, 1.0
        while True:
            # pivots q_k of T - xI with q'_k = -1 + e_k^2 q'_{k-1} / q_{k-1}^2;
            # the Newton step is -det / det' = -1 / sum q'_k / q_k
            q, dq, s = 1.0, 0.0, 0.0
            for a, b in zip(d, e2):
                dq = -1.0 + b * dq / (q * q)
                q = a - x - b / q
                if q < pivmin:
                    hi = min(hi, x)  # a negative pivot: x is past the root
                    break
                s += dq / q
            else:
                last, x = x, x - grow / s
                # steps below sqrt(eps) |x| are rounding noise that creeps
                # (309 steps seen at N = 1024): double them to reach the root
                grow *= 2.0 if x - last < 2.0**-26 * abs(x) else 1.0
                if last < hi and x > last:  # else past hi, stalled or nan
                    continue
            break
        lows.append(last)
    lo = min(lows, default=lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if H.count_below(mid) >= 1:
            hi = mid
        else:
            lo = mid


def constant_chord_hessian(a0: float = 1.0, N: int = 128) -> tuple:
    """Kernel and cokernel dimensions of the linearized constant-chord
    problem at a point of the horo-torus {z = a0}.

    The linearization of the Hamiltonian chord equations at a constant chord
    (q, p = 0) is dq' = z^2 dp, dp' = 0, with endpoint conditions
    dq(i) tangent to the torus and dp(i) conormal.  Both dimensions equal
    dim T = 2: constant tangent fields (v, 0) span the kernel, and constant
    conormal-dual fields (0, beta) span the cokernel.

    No equation or endpoint row mixes the coordinates c = 0, 1, 2, so the
    system is block diagonal with one block per coordinate over the unknowns
    (dq_c, dp_c) at nodes 0..N.  Its 2N interior rows, the midpoint rule
    (dq_{k+1} - dq_k)/h = a0^2 (dp_k + dp_{k+1})/2 and the difference rule
    (dp_{k+1} - dp_k)/h = 0, are triangular over the unknowns at nodes
    1..N with diagonal 1/h.  So they have full row rank 2N, and their
    solutions are exactly the combinations of the two discrete fundamental
    solutions started from (dq_0, dp_0) = e_1, e_2.  The block's rank is
    therefore exact: 2N plus the rank of its two endpoint rows applied to
    those two solutions, a 2 x 2 matrix.  dq and dp carry different units,
    so its nonzero columns are normalized before its singular values meet
    the tolerance, and the count does not move with a0 or N.  The x and y
    blocks have the same endpoint rows, so they are counted twice.

    Each block is square, 2N + 2 rows (N + N equations and 2 endpoint rows)
    over 2N + 2 unknowns, so ``cokernel_dim`` equals ``kernel_dim`` by
    construction: the cokernel count checks nothing beyond the kernel.
    """
    h = 1.0 / N
    # the fundamental solutions as columns: dp_{k+1} = dp_k, and dq_{k+1} =
    # dq_k + h a0^2 (dp_k + dp_{k+1})/2, from (dq_0, dp_0) = e_1, e_2
    dp = np.repeat([[0.0, 1.0]], N + 1, axis=0)
    dq = np.cumsum(np.vstack([[1.0, 0.0],
                              h * a0**2 * (dp[:-1] + dp[1:]) / 2.0]), axis=0)

    def rank(fixed):
        # boundary: the fixed unknown vanishes at both ends
        ends = fixed[[0, N]]
        norms = np.linalg.norm(ends, axis=0)
        nonzero = norms > 0
        return 2 * N + int(np.linalg.matrix_rank(
            ends[:, nonzero] / norms[nonzero], tol=1e-8))

    # dp_x = dp_y = 0 at both ends (twice); dq_z = 0 at both ends
    blocks = [(2, rank(dp)), (1, rank(dq))]  # (multiplicity, rank)
    rows = cols = 2 * N + 2
    kernel_dim = sum(m * (cols - r) for m, r in blocks)
    cokernel_dim = sum(m * (rows - r) for m, r in blocks)
    return kernel_dim, cokernel_dim
