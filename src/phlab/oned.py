"""Exact spectra of the order-2m eigenproblems on an interval.

On (0, L) the equation is (-1)^m u^(2m) = lam u.  Substituting u = e^(rho x)
gives rho^(2m) = (-1)^m lam, so the 2m characteristic exponents are

    rho_j = beta * exp(i pi (2 j + m) / (2 m)),   beta = lam^(1/(2m)),   j = 0 .. 2m-1.

For odd m all exponents have nonzero imaginary part; for even m exactly two
are purely real.  A real solution basis is built from one member per real
exponent and a cos/sin pair per conjugate pair, each damped by the exponent's
real part measured from the nearer endpoint so nothing overflows for large
lam.  That structure does not depend on lam, so it is read off at lam = 1 and
scaled by beta.  Eigenvalues are the lam > 0 where the 2m x 2m matrix of
boundary conditions applied to that basis is singular; clamped ends
constrain derivative orders 0..m-1, free ends the complementary orders
m..2m-1.  The determinant sign is scanned on a uniform beta grid, one
stacked slogdet per block of grid points, and all sign-change brackets are
then bisected together, one stacked slogdet per halving step.
"""

from __future__ import annotations

import numpy as np

from .model import (BC_DIRICHLET, BC_NEUMANN, CheckRecord, Domain, InvalidArgumentError,
                    MethodInfo, NumericalError, Spectrum, ToleranceConfig,
                    VerificationReport, check_bc, check_order, make_spectrum)

# grid points per stacked determinant call in the sign scan of positive_roots
SCAN_BLOCK = 4096


def characteristic_roots(m: int, lam: float) -> np.ndarray:
    """The 2m complex solutions rho of rho^(2m) = (-1)^m lam, for lam > 0.

    Returned sorted by (angle, magnitude); closed under conjugation.
    """
    m = check_order(m)
    if not lam > 0.0:
        raise InvalidArgumentError(f"characteristic roots need lam > 0, got {lam!r}")
    beta = lam ** (1.0 / (2 * m))
    j = np.arange(2 * m)
    ang = np.pi * (2 * j + m) / (2 * m)
    roots = beta * np.exp(1j * ang)
    return roots[np.argsort(np.angle(roots))]


def solution_derivatives(m: int, lam, orders, x, length: float = 1.0) -> np.ndarray:
    """Derivatives of the 2m real solutions of (-1)^m u^(2m) = lam u on (0, length).

    Entry [..., i, k, j] is the orders[i]-th derivative at x[k] of basis
    member j, e^(a (x - shift)) times cos(b x), sin(b x) or 1, for every lam
    in the array lam.  shift is length for growing members and 0 otherwise,
    so the exponential factor stays at most 1 on [0, length].
    """
    z1, sine = [], []
    for rho in characteristic_roots(m, 1.0):
        if abs(rho.imag) <= 1e-12:
            z1.append(complex(rho.real, 0.0))
            sine.append(False)
        elif rho.imag > 0.0:
            z1 += [rho, rho]
            sine += [False, True]
    z1 = np.array(z1)
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam > 0.0):
        raise InvalidArgumentError(f"solutions need lam > 0, got {lam!r}")
    z = lam[..., None, None, None] ** (1.0 / (2 * m)) * z1
    x = np.asarray(x, dtype=float)[:, None]
    p = np.asarray(orders)[:, None, None]
    shift = np.where(z1.real > 0.0, length, 0.0)
    d = z ** p * np.exp(z.real * (x - shift)) * np.exp(1j * z.imag * x)
    return np.where(sine, d.imag, d.real)


def boundary_matrix(m: int, lam, bc: str, length: float = 1.0) -> np.ndarray:
    """2m x 2m matrices of boundary conditions applied to the solution basis.

    Rows run over constrained derivative orders (0..m-1 clamped, m..2m-1
    free), each evaluated at x = 0 then x = length; columns over basis
    members.  lam is an eigenvalue iff this matrix is singular.  An array
    lam gives a stack of shape lam.shape + (2m, 2m).
    """
    check_bc(bc)
    orders = np.arange(m) if bc == BC_DIRICHLET else np.arange(m, 2 * m)
    D = solution_derivatives(m, lam, orders, (0.0, length), length)
    return D.reshape(D.shape[:-3] + (2 * m, 2 * m))


def det_indicator(m: int, lam, bc: str, length: float = 1.0):
    """Sign and log-magnitude of the boundary determinant at lam.

    Rows are scaled to unit max beforehand; positive row scaling changes the
    determinant's magnitude but never its sign or zero set, and it keeps the
    LU factorization well scaled out to large lam.  A scalar lam gives
    (int, float); an array lam gives two arrays of its shape.
    """
    M = boundary_matrix(m, lam, bc, length)
    scale = np.max(np.abs(M), axis=-1, keepdims=True)
    scale[scale == 0.0] = 1.0
    sign, logmag = np.linalg.slogdet(M / scale)
    if np.ndim(lam) == 0:
        return int(sign), float(logmag)
    return sign, logmag


def positive_roots(m: int, bc: str, count: int, length: float = 1.0,
                   tol: ToleranceConfig = ToleranceConfig()) -> np.ndarray:
    """First `count` lam > 0 where the boundary determinant vanishes.

    The sign is scanned on the beta grid in blocks of SCAN_BLOCK points up to
    the block holding the count-th root; a grid point with sign 0 is a root,
    and each sign change between neighbours is a bracket.  All brackets are
    then halved together until each meets tol_root.
    """
    m = check_order(m)
    bc = check_bc(bc)
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    if not length > 0.0:
        raise InvalidArgumentError(f"length must be positive, got {length!r}")
    two_m = 2 * m
    step = 0.02 * np.pi / length
    beta_max = (count + 4 * m + 8) * np.pi / length

    def sign(beta: np.ndarray) -> np.ndarray:
        return det_indicator(m, beta ** two_m, bc, length)[0]

    # cumulative sums reproduce the repeated beta + step of a point-by-point
    # scan; a small count evaluates little more than the grid up to beta_max
    block = min(SCAN_BLOCK, int(beta_max / step) + 1)
    beta = np.cumsum(np.full(block + 1, step))
    s = sign(beta)
    brackets, found = [], 0
    while True:
        hit = (s[1:] == 0) | ((s[1:] != s[:-1]) & (s[:-1] != 0))
        idx = np.flatnonzero(hit & (beta[1:] <= beta_max))[:count - found]
        brackets.append(np.stack((beta[idx], beta[idx + 1], s[idx], s[idx + 1])))
        found += idx.size
        if found == count:
            break
        if beta[-1] > beta_max:
            raise NumericalError(
                f"found only {found} of {count} roots below beta={beta_max:.3g}"
            )
        beta = np.cumsum(np.concatenate((beta[-1:], np.full(block, step))))
        s = np.concatenate((s[-1:], sign(beta[1:])))

    lo, hi, s_lo, s_hi = np.concatenate(brackets, axis=1)
    roots = hi ** two_m
    active = s_hi != 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lam_mid = mid ** two_m
        met = active & ((hi ** two_m - lo ** two_m <= tol.tol_root * lam_mid)
                        | (mid <= lo) | (mid >= hi))
        roots[met] = lam_mid[met]
        active &= ~met
        if not active.any():
            return roots
        i = np.flatnonzero(active)
        s = sign(mid[i])
        up = s == s_lo[i]
        lo[i[up]] = mid[i[up]]
        hi[i[~up]] = mid[i[~up]]
        zero = i[s == 0]
        roots[zero] = lam_mid[zero]
        active[zero] = False
    raise NumericalError("bisection exceeded 200 steps without meeting tol_root")


def solve_1d_spectrum(m: int, bc: str, count: int, length: float = 1.0,
                      tol: ToleranceConfig = ToleranceConfig()) -> Spectrum:
    """First `count` eigenvalues on (0, length), zeros of the free problem included.

    The free (natural) problem starts with exactly m zero eigenvalues, the
    polynomials of degree < m; every following eigenvalue is a positive root
    of the boundary determinant.
    """
    m = check_order(m)
    bc = check_bc(bc)
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    zeros = m if bc == BC_NEUMANN else 0
    n_pos = max(count - zeros, 0)
    vals = [0.0] * min(zeros, count)
    if n_pos:
        vals.extend(positive_roots(m, bc, n_pos, length, tol))
    return make_spectrum(m, bc, Domain.interval(length), MethodInfo("Exact1D"),
                         np.asarray(vals), trusted_count=count, tol=tol)


def check_root_coincidence(m: int, count: int, length: float = 1.0,
                           rel_tol: float = 1e-8,
                           tol: ToleranceConfig = ToleranceConfig(),
                           perturb: float = 0.0) -> VerificationReport:
    """Claim: on an interval the two boundary determinants share every positive root.

    Compares the first `count` positive eigenvalues of the clamped and the
    free problem pairwise; with the free problem's m zero modes this means
    the free eigenvalue with index k+m equals the clamped one with index k.
    perturb scales the free roots by (1 + perturb) and exists purely as a
    failure-injection hook for exit-code testing.
    """
    lam_d = positive_roots(m, BC_DIRICHLET, count, length, tol)
    lam_n = positive_roots(m, BC_NEUMANN, count, length, tol) * (1.0 + perturb)
    records = []
    for k in range(count):
        rel = abs(lam_n[k] - lam_d[k]) / lam_d[k]
        records.append(CheckRecord(k=k + 1, lhs=float(lam_n[k]), rhs=float(lam_d[k]),
                                   slack=float(rel_tol - rel)))
    return VerificationReport(
        claim_id="oned-coincidence",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes=(f"first {count} positive roots of the clamped and free boundary "
               f"determinants on (0, {length:g}) at m={m}, compared to "
               f"relative tolerance {rel_tol:g}"),
        config_echo={"m": m, "count": count, "length": length, "rel_tol": rel_tol,
                     "perturb": perturb},
    )
