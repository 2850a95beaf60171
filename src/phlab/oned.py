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
then refined together, one stacked slogdet per step: regula falsi on the
signed determinant, a guard point a fraction of the tolerance past its
estimate, and the midpoint, so that no bracket takes more steps than
bisection (the safeguards of Dekker's and Brent's zero-finders).  A request
for more than MAX_ROOTS positive roots is refused before any arithmetic.

This module only computes spectra; the claims that compare interval spectra
(oned-coincidence, zero-modes) live in harness.
"""

from __future__ import annotations

from math import isfinite, log

import numpy as np

from .model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, Domain, InvalidArgumentError,
                    MethodInfo, NumericalError, Spectrum, ToleranceConfig, check_bc,
                    check_order, make_spectrum)

# grid points per stacked determinant call in the sign scan of positive_roots
SCAN_BLOCK = 4096
# most positive roots one positive_roots call computes.  The work grows
# linearly with the count: 3.4 s for 20,000 roots at m=3 on 2 CPUs, so about
# 20 s at the cap.
MAX_ROOTS = 100_000
DOUBLE = np.finfo(float)


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
    then refined together until each meets tol_root, one stacked determinant
    call per step.  A step evaluates three points inside each bracket and
    keeps the part between the first sign change:
      - the regula falsi estimate, the zero of the chord through the bracket
        ends on f = sign * exp(logmag);
      - a guard a quarter of tol_root (relative in lam) past the estimate
        toward the farther end, so that an estimate within tolerance of the
        root closes its bracket at once;
      - the midpoint, so that every step at least halves every bracket and
        no bracket takes more steps than bisection.
    """
    m = check_order(m)
    bc = check_bc(bc)
    if count < 1:
        raise InvalidArgumentError(f"count must be >= 1, got {count}")
    if count > MAX_ROOTS:
        raise CapabilityError(f"at most {MAX_ROOTS} positive roots are supported per call")
    if not (length > 0.0 and isfinite(length)):
        raise InvalidArgumentError(f"length must be positive and finite, got {length!r}")
    two_m = 2 * m
    step = 0.02 * np.pi / length
    beta_max = (count + 4 * m + 8) * np.pi / length
    # the scan runs from step to at most one block past beta_max, which is
    # below 2 (beta_max + step), and every lam = beta^(2m) on it must be a
    # normal double
    if not (log(DOUBLE.tiny) <= two_m * log(step)
            and two_m * log(2.0 * (beta_max + step)) < log(DOUBLE.max)):
        raise CapabilityError(
            f"interval length {length:g} is out of range for m={m}: the scanned "
            f"lam = beta^{two_m} would leave double precision"
        )

    def indicator(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return det_indicator(m, beta ** two_m, bc, length)

    # cumulative sums reproduce the repeated beta + step of a point-by-point
    # scan; a small count evaluates little more than the grid up to beta_max
    block = min(SCAN_BLOCK, int(beta_max / step) + 1)
    beta = np.cumsum(np.full(block + 1, step))
    s, g = indicator(beta)
    brackets, found = [], 0
    while True:
        hit = (s[1:] == 0) | ((s[1:] != s[:-1]) & (s[:-1] != 0))
        idx = np.flatnonzero(hit & (beta[1:] <= beta_max))[:count - found]
        brackets.append(np.stack((beta[idx], beta[idx + 1], s[idx], s[idx + 1],
                                  g[idx], g[idx + 1])))
        found += idx.size
        if found == count:
            break
        if beta[-1] > beta_max:
            raise NumericalError(
                f"found only {found} of {count} roots below beta={beta_max:.3g}"
            )
        beta = np.cumsum(np.concatenate((beta[-1:], np.full(block, step))))
        s_next, g_next = indicator(beta[1:])
        s, g = np.concatenate((s[-1:], s_next)), np.concatenate((g[-1:], g_next))

    lo, hi, s_lo, s_hi, g_lo, g_hi = np.concatenate(brackets, axis=1)
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
        a, b = lo[i], hi[i]
        # |f_lo| / (|f_lo| + |f_hi|), from the log-magnitudes; exp may overflow to inf
        with np.errstate(over="ignore"):
            x = a + (b - a) / (1.0 + np.exp(g_hi[i] - g_lo[i]))
        guard = x + np.copysign(0.25 * tol.tol_root / two_m * x, (b - x) - (x - a))
        inner = np.sort(np.stack((x, np.clip(guard, a, b), mid[i]), axis=1), axis=1)
        s_in, g_in = indicator(inner)
        pts = np.column_stack((a, inner, b))
        sgn = np.column_stack((s_lo[i], s_in, s_hi[i]))
        lgm = np.column_stack((g_lo[i], g_in, g_hi[i]))
        row = np.arange(i.size)
        j = np.argmax(sgn[:, :-1] != sgn[:, 1:], axis=1)
        lo[i], hi[i] = pts[row, j], pts[row, j + 1]
        s_lo[i], s_hi[i] = sgn[row, j], sgn[row, j + 1]
        g_lo[i], g_hi[i] = lgm[row, j], lgm[row, j + 1]
        zero = (s_in == 0).any(axis=1)
        roots[i[zero]] = inner[zero, np.argmax(s_in[zero] == 0, axis=1)] ** two_m
        active[i[zero]] = False
    raise NumericalError("root refinement exceeded 200 steps without meeting tol_root")


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
                         np.asarray(vals), tol=tol)

