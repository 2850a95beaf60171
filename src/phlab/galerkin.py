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
every integrand here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, floor

import numpy as np

from .linalg import force_hermitian, gauss_legendre, legendre_derivatives, solve_gen_eig
from .model import (BC_NEUMANN, CapabilityError, Domain, InvalidArgumentError,
                    MethodInfo, NumericalError, Spectrum, ToleranceConfig, check_bc,
                    check_order, make_spectrum, n_poly_dim)


def shape_derivatives(bc: str, m: int, n: int, t: np.ndarray, max_deriv: int) -> np.ndarray:
    """Reference shape functions and derivatives, shape (max_deriv+1, n, len(t)).

    Free: P_i.  Clamped: (1 - t^2)^m P_i, differentiated by the product rule
    with the polynomial weight expanded in exact small-integer coefficients.
    """
    check_bc(bc)
    m = check_order(m)
    t = np.asarray(t, dtype=float)
    P = legendre_derivatives(n, t, max_deriv)
    if bc == BC_NEUMANN:
        return P
    # weight w(t) = (1 - t^2)^m = sum_q binom(m,q) (-1)^q t^(2q) and its derivatives
    W = np.zeros((max_deriv + 1, t.size))
    for q in range(m + 1):
        c = comb(m, q) * (-1) ** q
        for r in range(max_deriv + 1):
            if 2 * q - r >= 0:
                fall = 1.0
                for s in range(r):
                    fall *= (2 * q - s)
                W[r] += c * fall * t ** (2 * q - r)
    out = np.zeros_like(P)
    for r in range(max_deriv + 1):
        for s in range(r + 1):
            out[r] += comb(r, s) * W[s][None, :] * P[r - s]
    return out


def derivative_grams(bc: str, m: int, n: int, quad_nodes: int | None = None) -> np.ndarray:
    """G[a, b, i, j] = integral over [-1,1] of phi_i^(a) phi_j^(b), 0 <= a,b <= m.

    quad_nodes defaults to n + 2m + 2, the smallest count this module accepts;
    the largest integrand degree is 2(n - 1) + 4m, so that rule is already
    exact and a larger one only changes rounding.
    """
    floor_nodes = n + 2 * m + 2
    if quad_nodes is None:
        quad_nodes = floor_nodes
    elif quad_nodes < floor_nodes:
        raise InvalidArgumentError(
            f"quad_nodes={quad_nodes} below the exactness threshold {floor_nodes}"
        )
    t, w = gauss_legendre(quad_nodes)
    F = shape_derivatives(bc, m, n, t, max_deriv=m)
    return np.einsum("aiq,q,bjq->abij", F, w, F)


def axis_rule(length: float, nq: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule mapped from [-1, 1] to (0, length)."""
    t, w = gauss_legendre(nq)
    return 0.5 * length * (t + 1.0), 0.5 * length * w


@dataclass(frozen=True)
class AssembledPencil:
    """Stiffness/mass pair of the tensor-product space, flat index i1 * n + i2."""

    m: int
    bc: str
    n: int
    domain: Domain
    stiffness: np.ndarray
    mass: np.ndarray


def assemble_pencil(m: int, bc: str, n: int, domain: Domain) -> AssembledPencil:
    m = check_order(m)
    bc = check_bc(bc)
    if domain.shape != "rectangle":
        raise InvalidArgumentError("assembly needs a rectangle domain")
    if n < m + 1:
        raise InvalidArgumentError(f"need n >= m + 1 = {m + 1} shape functions per axis, got {n}")
    lx, ly = domain.lx, domain.ly
    sx, sy = 2.0 / lx, 2.0 / ly
    jac = 0.25 * lx * ly
    G = derivative_grams(bc, m, n)
    A = np.zeros((n * n, n * n))
    for a in range(m + 1):
        A += (comb(m, a) * sx ** (2 * a) * sy ** (2 * (m - a))
              * np.kron(G[a, a], G[m - a, m - a]))
    A *= jac
    B = jac * np.kron(G[0, 0], G[0, 0])
    return AssembledPencil(m=m, bc=bc, n=n, domain=domain,
                           stiffness=force_hermitian(A), mass=force_hermitian(B))


def assemble_stiffness(m: int, bc: str, n: int, domain: Domain) -> np.ndarray:
    return assemble_pencil(m, bc, n, domain).stiffness


def assemble_mass(bc: str, n: int, domain: Domain, m: int) -> np.ndarray:
    """Mass matrix of the tensor basis.  m is needed because the clamped
    shape functions carry the boundary factor (1 - t^2)^m."""
    check_bc(bc)
    m = check_order(m)
    if domain.shape != "rectangle" or n < 1:
        raise InvalidArgumentError("mass assembly needs a rectangle domain and n >= 1")
    G00 = derivative_grams(bc, m, n)[0, 0]
    return force_hermitian(0.25 * domain.lx * domain.ly * np.kron(G00, G00))


def trusted_capacity(n: int) -> int:
    """How many of the n^2 discrete eigenvalues are exposed as trustworthy."""
    return floor(0.7 * n * n)


@dataclass(frozen=True)
class Eigensystem2D:
    """Spectrum plus mass-orthonormal eigenvectors in the assembly basis."""

    pencil: AssembledPencil
    spectrum: Spectrum
    vectors: np.ndarray  # (n*n, count), column k pairs with spectrum.values[k]


def solve_2d_eigensystem(m: int, bc: str, n: int, domain: Domain = Domain.rectangle(),
                         count: int = 10,
                         tol: ToleranceConfig = ToleranceConfig()) -> Eigensystem2D:
    """Solve the discrete pencil and return the first `count` eigenpairs.

    count may not exceed trusted_capacity(n): the top 30 percent of a
    spectral discretization is dominated by unresolved modes and is never
    exposed.
    """
    cap = trusted_capacity(n)
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    if count > cap:
        raise CapabilityError(
            f"count={count} exceeds the trusted capacity {cap} of n={n}; increase n"
        )
    pencil = assemble_pencil(m, bc, n, domain)
    w, V = solve_gen_eig(pencil.stiffness, pencil.mass)
    # validate the zero block against the eigenvalue right after it, even when
    # the caller asked for fewer entries than the block holds
    z = n_poly_dim(2, m) if bc == BC_NEUMANN else 0
    probe_len = min(max(count, z + 1), w.size)
    full = make_spectrum(m, bc, domain, MethodInfo("Galerkin2D", n_per_axis=n),
                         w[:probe_len], trusted_count=probe_len, tol=tol)
    spectrum = Spectrum(m=full.m, bc=full.bc, domain=full.domain, method=full.method,
                        values=full.values[:count], trusted_count=count, tol=tol)
    return Eigensystem2D(pencil=pencil, spectrum=spectrum, vectors=V[:, :count])


def solve_2d_spectrum(m: int, bc: str, n: int, domain: Domain = Domain.rectangle(),
                      count: int = 10,
                      tol: ToleranceConfig = ToleranceConfig()) -> Spectrum:
    return solve_2d_eigensystem(m, bc, n, domain, count, tol).spectrum


@dataclass(frozen=True)
class ConvergenceTable:
    """Discrete eigenvalues across increasing n, with last-step differences.

    error_estimates[k] = |values[-1, k] - values[-2, k]| is the convergence
    based error proxy used when a strictness margin has to beat
    discretization error.
    """

    m: int
    bc: str
    domain: Domain
    n_list: tuple[int, ...]
    values: np.ndarray  # (len(n_list), count)
    error_estimates: np.ndarray  # (count,)


def convergence_study(m: int, bc: str, domain: Domain, n_list: list[int],
                      count: int = 10,
                      tol: ToleranceConfig = ToleranceConfig()) -> ConvergenceTable:
    """Solve at each n and check per-k monotone decrease within 1e-8 slack.

    Nested conforming spaces force lambda_hat_k to be nonincreasing in n;
    any rise beyond eigensolver noise marks a broken assembly.
    """
    if len(n_list) < 2 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidArgumentError("n_list must be strictly increasing with >= 2 entries")
    rows = []
    for n in n_list:
        rows.append(solve_2d_spectrum(m, bc, n, domain, count, tol).values)
    values = np.vstack(rows)
    rise = np.diff(values, axis=0)
    if np.any(rise > 1e-8):
        i, k = np.unravel_index(int(np.argmax(rise)), rise.shape)
        raise NumericalError(
            f"eigenvalue {k + 1} rose by {rise[i, k]:.3e} from n={n_list[i]} "
            f"to n={n_list[i + 1]}; conforming refinement must not increase it"
        )
    return ConvergenceTable(m=m, bc=bc, domain=domain, n_list=tuple(n_list),
                            values=values,
                            error_estimates=np.abs(values[-1] - values[-2]))
