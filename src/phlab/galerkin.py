"""Conforming spectral discretization of the order-2m problems on rectangles.

Shape functions on the reference interval [-1, 1] are Legendre polynomials
P_0..P_{n-1} for the free problem and (1 - t^2)^m P_i for the clamped one;
the latter vanish to order m at both ends, so their tensor products satisfy
the essential boundary conditions exactly.  Both families are conforming, so
discrete eigenvalues are upper bounds for the continuous ones and decrease
monotonically as the space grows.

The quadratic form is the full m-th gradient contraction.  Splitting the
mixed partials d_x^a d_y^(m-a) by the binomial count of ordered index tuples
turns stiffness and mass into sums of Kronecker products of 1d derivative
Gram matrices on the reference element, scaled by the affine map of each
axis.  Quadrature uses n + 2m + 2 Gauss nodes per axis, which integrates
every integrand here exactly.  The 1d tables, shape derivatives times root
weights and their Grams, come from one builder, shape_table, which the chain
certificate of trialspace (one rule per eigensystem, sized by its largest
level) and the interpolation energies of harness read on their own rules as
well.  Each caller builds the tables it needs, so nothing is cached.

Shape function i has parity (-1)^i, so G_a[i, j] vanishes unless i + j is
even, and the pencil splits exactly into four blocks by (x parity, y parity).
Each block's mass is a Kronecker product of two 1d mass blocks, so it is
reduced to the identity one axis at a time (the generalized-eigenproblem
form of the fast diagonalization of Lynch, Rice & Thomas, 1964): each 1d
mass block is whitened by its own Cholesky factor, whose condition is the
square root of the 2d one, and the whitened 1d Grams are combined by one
einsum into one standard symmetric matrix per block.  No n^2-sized stiffness
or mass matrix is formed.  One pass forms each block's matrix, hands it to
one symmetric eigensolve and drops it before the next block; nothing is kept
between solves.  The solve takes the path its caller needs.
solve_2d_spectrum, behind spectrum2d and every rectangle claim but the chain
certificate, runs a values-only eigensolve per block, keeps only the block
values and merges them by one sort.  solve_2d_eigensystem, which only the
chain certificate needs, runs the eigenpair solve, keeps the eigenvectors
with their back-transforms and merges in a fixed order inside clusters of
equal values.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, floor, log, log1p, perm, pi

import numpy as np

from .linalg import gauss_legendre, hermitian_eig, legendre_derivatives, mass_whitener
from .model import (BC_NEUMANN, CapabilityError, Domain, InvalidArgumentError, MethodInfo,
                    Spectrum, ToleranceConfig, check_bc, check_order, make_spectrum, n_poly_dim)


def shape_derivatives(bc: str, m: int, n: int, t: np.ndarray, max_deriv: int) -> np.ndarray:
    """Reference shape functions and derivatives, shape (max_deriv+1, n, len(t)).

    Free: P_i.  Clamped: (1 - t^2)^m P_i, differentiated by the product rule
    with the polynomial weight expanded in exact small-integer coefficients.
    The family order m may be any integer >= 1, past the operator orders: the
    interpolation claim samples H^(m+1)_0 with the clamped family of order m+1.
    """
    check_bc(bc)
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidArgumentError(f"shape family order must be an integer >= 1, got {m!r}")
    t = np.asarray(t, dtype=float)
    P = legendre_derivatives(n, t, max_deriv)
    if bc == BC_NEUMANN:
        return P
    # weight w(t) = (1 - t^2)^m = sum_q binom(m,q) (-1)^q t^(2q) and its derivatives
    W = np.zeros((max_deriv + 1, t.size))
    for q in range(m + 1):
        c = comb(m, q) * (-1) ** q
        for r in range(min(max_deriv, 2 * q) + 1):
            W[r] += c * perm(2 * q, r) * t ** (2 * q - r)
    out = np.zeros_like(P)
    for r in range(max_deriv + 1):
        for s in range(r + 1):
            out[r] += comb(r, s) * W[s][None, :] * P[r - s]
    return out


def shape_table(bc: str, m: int, n: int, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """Shape factors and their Grams on the nq-point Gauss rule of [-1, 1].

    F[a, i, q] = phi_i^(a)(t_q) sqrt(w_q) and G[a] = F[a] @ F[a].T, the Gram
    of integrals of phi_i^(a) phi_j^(a), for 0 <= a <= m.  G is exact once
    nq >= n + 2m: the largest integrand degree is 2(n - 1) + 4m.  It is
    exactly symmetric, since the unoptimized einsum sums G[a, i, j] and
    G[a, j, i] over the same products in the same order.
    """
    t, w = gauss_legendre(nq)
    F = shape_derivatives(bc, m, n, t, max_deriv=m) * np.sqrt(w)
    return F, np.einsum("aiq,ajq->aij", F, F)


# block order (x parity, y parity): ee, eo, oe, oo
PARITY_BLOCKS = ((0, 0), (0, 1), (1, 0), (1, 1))
# largest n^2 of a pencil: its blocks are dense, solved in O(n^6) time
MAX_PENCIL_DIM = 2500
# relative gap below which merged eigenvectors follow block order: far below
# tol_identity, far above the 5e-13 split of the square's clamped lambda_2 = lambda_3
CLUSTER_RTOL = 1e-10


def trusted_capacity(n: int) -> int:
    """How many of the n^2 discrete eigenvalues are exposed as trustworthy."""
    return floor(0.7 * n * n)


def _reduced_axis(G00: np.ndarray, F: np.ndarray, index: np.ndarray,
                  s: float) -> tuple[np.ndarray, np.ndarray]:
    """Whitened 1d Grams R[a] and back-transform W^T of one axis parity.

    On an axis of length l = 2/s the physical Grams are K_a = s^(2a-1) G_a
    and the mass is M = G_00 / s, so W = sqrt(s) T for the whitener T of
    G_00.  R[a] = Q_a Q_a^T with Q_a = s^a T F_a is symmetric by construction;
    R[0] is set to the identity it equals in exact arithmetic.
    """
    T = mass_whitener(G00[np.ix_(index, index)])
    R = [np.eye(index.size)]
    for a in range(1, F.shape[0]):
        Q = s ** a * (T @ F[a, index])
        R.append(Q @ Q.T)
    return np.array(R), np.sqrt(s) * T.T


class _SolvedBlock(namedtuple("_SolvedBlock", "index back_x back_y w Y")):
    """One parity block, solved with its eigenvectors.

    index holds the flat indices i1 * n + i2 of the block's shapes.  The
    block pencil (sum_a C(m,a) K^x_a (x) K^y_(m-a), M^x (x) M^y) of physical
    1d stiffness and mass blocks has the eigenvalues w of
    C = sum_a C(m,a) R^x_a (x) R^y_(m-a), with R_a = W K_a W^T for the
    whitener W of each axis (W M W^T = I, so R_0 = I).  A column y of the
    eigenvectors Y of C gives the mass-orthonormal
    v = (back_x (x) back_y) y, back = W^T.  Only eigenpair solves form these;
    a values-only solve returns each block's w alone.
    """

    __slots__ = ()


def _solved_blocks(m: int, bc: str, n: int, domain: Domain, count: int,
                   vectors: bool) -> tuple[_SolvedBlock | np.ndarray, ...]:
    """The four parity blocks of the pencil, solved in PARITY_BLOCKS order.

    Each block's matrix C is formed, solved and dropped before the next.
    With vectors, each block gets eigh and is returned as a _SolvedBlock;
    without, it gets eigvalsh and only its ascending values w are returned,
    with no eigenvector, index or back-transform.

    count may not exceed trusted_capacity(n): the top 30 percent of a
    spectral discretization is dominated by unresolved modes and is never
    exposed.  A side so short that some block holds an entry, or could hold
    an eigenvalue, beyond double precision is refused with CapabilityError,
    and so is a rectangle whose spectrum scale, nu_1^m =
    (pi^2 (1/lx^2 + 1/ly^2))^m if clamped and (pi / max(lx, ly))^(2m) if
    free, is below the normal doubles.
    """
    if n * n > MAX_PENCIL_DIM:
        raise CapabilityError(
            f"pencil dimension {n * n} exceeds the supported cap {MAX_PENCIL_DIM}")
    cap = trusted_capacity(n)
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    if count > cap:
        raise CapabilityError(
            f"count exceeds the trusted capacity {cap} of n={n}; increase n"
        )
    m, bc = check_order(m), check_bc(bc)
    if domain.shape != "rectangle":
        raise InvalidArgumentError("assembly needs a rectangle domain")
    lo, hi = sorted((domain.lx, domain.ly))
    log_scale = (2 * m * (log(pi) - log(hi)) if bc == BC_NEUMANN
                 else m * (2.0 * (log(pi) - log(lo)) + log1p((lo / hi) ** 2)))
    if log_scale < log(np.finfo(float).tiny):
        raise CapabilityError(
            f"a {domain.lx:g} x {domain.ly:g} rectangle is too large for m={m}: "
            f"its eigenvalues fall below the normal range of double precision")
    if n < m + 1:
        raise InvalidArgumentError(f"need n >= m + 1 = {m + 1} shape functions per axis, got {n}")
    F, G = shape_table(bc, m, n, n + 2 * m + 2)
    parity = [np.arange(p, n, 2) for p in (0, 1)]
    binom = np.array([comb(m, a) for a in range(m + 1)], dtype=float)
    solved = []
    # the stiffness scales as (2 / side)^(2m); with numpy scalars an overflow
    # turns into inf entries, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        x_axis = [_reduced_axis(G[0], F, I, np.float64(2.0 / domain.lx)) for I in parity]
        y_axis = [_reduced_axis(G[0], F, I, np.float64(2.0 / domain.ly)) for I in parity]
        for px, py in PARITY_BLOCKS:
            (Rx, Wx), (Ry, Wy) = x_axis[px], y_axis[py]
            # C[(i, j), (k, l)] = sum_a C(m,a) Rx[a, i, k] Ry[m-a, j, l]
            dim = Wx.shape[0] * Wy.shape[0]
            C = np.einsum("a,aik,ajl->ijkl", binom, Rx, Ry[::-1]).reshape(dim, dim)
            # no eigenvalue of C exceeds its dimension times its largest entry
            if not np.isfinite(dim * np.abs(C).max()):
                raise CapabilityError(
                    f"a {domain.lx:g} x {domain.ly:g} rectangle is too small for m={m}: "
                    f"its stiffness overflows double precision")
            kept = hermitian_eig(C, vectors)
            del C  # one block matrix alive at a time
            if vectors:
                Ix, Iy = parity[px], parity[py]
                kept = _SolvedBlock((Ix[:, None] * n + Iy[None, :]).ravel(), Wx, Wy, *kept)
            solved.append(kept)
    return tuple(solved)


class Eigensystem2D(namedtuple("Eigensystem2D", "spectrum vectors")):
    """Spectrum plus mass-orthonormal eigenvectors in the assembly basis.

    vectors has shape (n*n, count); column k pairs with spectrum.values[k].
    """

    __slots__ = ()


def _first_values(m: int, bc: str, n: int, domain: Domain, w: np.ndarray, count: int,
                  tol: ToleranceConfig) -> Spectrum:
    """The first count of the ascending merged values w, validated."""
    # validate the zero block against the eigenvalue right after it, even when
    # the caller asked for fewer entries than the block holds
    z = n_poly_dim(2, m) if bc == BC_NEUMANN else 0
    probe_len = min(max(count, z + 1), w.size)
    full = make_spectrum(m, bc, domain, MethodInfo("Galerkin2D", n_per_axis=n),
                         w[:probe_len], tol=tol)
    return full._replace(values=full.values[:count])


def solve_2d_eigensystem(m: int, bc: str, n: int, domain: Domain = Domain.rectangle(),
                         count: int = 10,
                         tol: ToleranceConfig = ToleranceConfig()) -> Eigensystem2D:
    """Solve the discrete pencil and return the first `count` eigenpairs.

    Each block gets an eigenpair solve.  A caller that reads only the values
    should take solve_2d_spectrum, which forms no eigenvector.
    """
    blocks = _solved_blocks(m, bc, n, domain, count, True)
    w_all = np.concatenate([b.w for b in blocks])
    order = np.argsort(w_all, kind="stable")
    w = w_all[order]
    # values stay ascending; inside a cluster the vectors follow the position
    # in w_all, which is block order, then in-block order
    cluster = np.cumsum(np.r_[False, np.diff(w) > CLUSTER_RTOL * np.abs(w[1:])])
    pick = order[np.lexsort((order, cluster))][:count]
    V = np.zeros((n * n, count), order="F")  # columns contiguous, as eigh returns them
    start = 0
    for b in blocks:
        cols = np.flatnonzero((pick >= start) & (pick < start + b.w.size))
        # back-transform only the picked columns, one axis at a time
        Y = b.Y[:, pick[cols] - start].reshape(b.back_x.shape[0], b.back_y.shape[0], cols.size)
        V[np.ix_(b.index, cols)] = np.einsum("ik,jl,klc->ijc", b.back_x, b.back_y, Y,
                                             optimize=True).reshape(b.index.size, cols.size)
        start += b.w.size
    return Eigensystem2D(spectrum=_first_values(m, bc, n, domain, w, count, tol), vectors=V)


def solve_2d_spectrum(m: int, bc: str, n: int, domain: Domain = Domain.rectangle(),
                      count: int = 10,
                      tol: ToleranceConfig = ToleranceConfig()) -> Spectrum:
    """Solve the discrete pencil for its first `count` eigenvalues alone.

    Each block gets a values-only solve, and the block values are merged by
    one sort.  The values agree with solve_2d_eigensystem's to the
    eigensolvers' backward error, not bit for bit.
    """
    w = np.sort(np.concatenate(_solved_blocks(m, bc, n, domain, count, False)))
    return _first_values(m, bc, n, domain, w, count, tol)
