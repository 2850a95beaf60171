"""Exact spectra of the order-2m eigenproblems on an interval.

On (0, L) the equation is (-1)^m u^(2m) = lam u.  Substituting u = e^(rho x)
gives rho^(2m) = (-1)^m lam, so the 2m characteristic exponents are

    rho_j = beta * exp(i pi (2 j + m) / (2 m)),   beta = lam^(1/(2m)),   j = 0 .. 2m-1.

For odd m all exponents have nonzero imaginary part; for even m exactly two
are purely real.  A real solution basis is built from one member per real
exponent and a cos/sin pair per conjugate pair, each damped by the exponent's
real part measured from the nearer endpoint so nothing overflows for large
lam.  That structure does not depend on lam, so it is read off at lam = 1,
once per order, and scaled by beta.  Eigenvalues are the lam > 0 where the 2m x 2m matrix of
boundary conditions applied to that basis is singular; clamped ends
constrain derivative orders 0..m-1, free ends the complementary orders
m..2m-1.  The sign and log-magnitude of the determinant come from an LU
factorization with partial pivoting of the row-scaled matrix.  The sign is
scanned one point at a time on a uniform beta grid about four points per
root, up to the bracket of the last root asked for, and each sign-change
bracket is then refined on its own: regula falsi on the signed determinant,
a guard point a fraction of the tolerance past its estimate, and the
midpoint, so that no bracket takes more steps than bisection (the
safeguards of Dekker's and Brent's zero-finders).  A request for more than
MAX_ROOTS positive roots is refused before any arithmetic.

The module uses the standard library only, so `phlab oned` never imports
numpy.  It only computes spectra; the claims that compare interval spectra
(oned-coincidence, zero-modes) live in harness.
"""


from __future__ import annotations

import sys
from cmath import exp as cexp, phase
from functools import lru_cache
from math import copysign, exp, inf, isfinite, log, pi
from numbers import Real

from .model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, Domain, InvalidArgumentError,
                    MethodInfo, NumericalError, Spectrum, ToleranceConfig, check_bc,
                    check_order, make_spectrum)

# spacing of the sign scan in beta, in units of pi / length.  Consecutive
# roots sit at least 0.994 pi / length apart (the smallest beta gap over the
# first 300 roots of every (m, bc), at m = 2; 1.0 and 0.9993 at m = 1 and 3),
# so every grid interval holds at most one root, each root about four points.
SCAN_STEP = 0.25
# most positive roots one positive_roots call computes.  The work grows
# linearly with the count: `oned --count 20000` at m=3 takes 8.4 s on 2
# shared CPUs (Python 3.11), and 47 s at the cap, in 41 MB.
MAX_ROOTS = 100_000


def characteristic_roots(m: int, lam: float) -> list[complex]:
    """The 2m complex solutions rho of rho^(2m) = (-1)^m lam, for lam > 0.

    Returned sorted by (angle, magnitude); closed under conjugation.
    """
    m = check_order(m)
    if not lam > 0.0:
        raise InvalidArgumentError(f"characteristic roots need lam > 0, got {lam!r}")
    beta = lam ** (1.0 / (2 * m))
    roots = [beta * cexp(1j * (pi * (2 * j + m) / (2 * m))) for j in range(2 * m)]
    return sorted(roots, key=phase)


@lru_cache(maxsize=None)
def _basis_members(m: int) -> tuple:
    """(exponent at lam = 1, whether it fills a cos and a sin column) per member."""
    members = []
    for rho in characteristic_roots(m, 1.0):
        if abs(rho.imag) <= 1e-12:
            members.append((complex(rho.real, 0.0), False))
        elif rho.imag > 0.0:
            members.append((rho, True))
    return tuple(members)


def solution_derivatives(m: int, lam: float, orders, x, length: float = 1.0) -> list:
    """Derivatives of the 2m real solutions of (-1)^m u^(2m) = lam u on (0, length).

    Entry [i][k][j] is the orders[i]-th derivative at x[k] of basis member
    j, e^(a (x - shift)) times cos(b x), sin(b x) or 1.  shift is length for
    growing members and 0 otherwise, so the exponential factor stays at
    most 1 on [0, length].
    """
    members = _basis_members(check_order(m))
    if not (isinstance(lam, Real) and lam > 0.0):
        raise InvalidArgumentError(f"solutions need lam > 0, got {lam!r}")
    orders = [int(p) for p in orders]
    x = [float(v) for v in x]
    beta = lam ** (1.0 / (2 * m))
    out = [[[] for _ in x] for _ in orders]
    for z1, pair in members:
        z = beta * z1
        shift = length if z1.real > 0.0 else 0.0
        powers = [z ** p for p in orders]
        for k, xk in enumerate(x):
            w = cexp(complex(z.real * (xk - shift), z.imag * xk))
            for rows, zp in zip(out, powers):
                d = zp * w
                rows[k] += (d.real, d.imag) if pair else (d.real,)
    return out


def boundary_matrix(m: int, lam: float, bc: str, length: float = 1.0) -> list:
    """2m x 2m matrix of boundary conditions applied to the solution basis.

    Rows run over constrained derivative orders (0..m-1 clamped, m..2m-1
    free), each evaluated at x = 0 then x = length; columns over basis
    members.  lam is an eigenvalue iff this matrix is singular.
    """
    check_bc(bc)
    orders = range(m) if bc == BC_DIRICHLET else range(m, 2 * m)
    return [row for rows in solution_derivatives(m, lam, orders, (0.0, length), length)
            for row in rows]


def _sign_logdet(M: list) -> tuple[int, float]:
    """Sign and log|det| of a square matrix, by LU with partial pivoting.

    Each step swaps the row with the largest entry of the pivot column into
    place, as LAPACK's getrf does, and eliminates that column from the rows
    below.  M is overwritten.  A zero pivot column gives (0, -inf).
    """
    n = len(M)
    sign, logmag = 1, 0.0
    for c in range(n):
        below = range(c + 1, n)
        p, big = c, abs(M[c][c])
        for r in below:
            v = abs(M[r][c])
            if v > big:
                p, big = r, v
        if big == 0.0:
            return 0, -inf
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        top = M[c]
        pivot = top[c]
        if pivot < 0.0:
            sign = -sign
        logmag += log(big)
        for r in below:
            row = M[r]
            f = row[c] / pivot
            for k in below:
                row[k] -= f * top[k]
    return sign, logmag


def det_indicator(m: int, lam: float, bc: str, length: float = 1.0) -> tuple[int, float]:
    """Sign and log-magnitude of the boundary determinant at lam.

    Rows are scaled to unit max beforehand (a zero row stays); positive row
    scaling changes the determinant's magnitude but never its sign or zero
    set, and it keeps the LU factorization well scaled out to large lam.
    """
    return _sign_logdet([[v / s for v in row] for row in boundary_matrix(m, lam, bc, length)
                         for s in (max(map(abs, row)) or 1.0,)])


def positive_roots(m: int, bc: str, count: int, length: float = 1.0,
                   tol: ToleranceConfig = ToleranceConfig()) -> list[float]:
    """First `count` lam > 0 where the boundary determinant vanishes.

    The sign is scanned on the beta grid of spacing SCAN_STEP pi / length,
    one point at a time, until the count-th bracket closes; a grid point
    with sign 0 is a root, and each sign change between neighbours is a
    bracket.  Past beta_max the scan gives up.  Each bracket is then refined
    on its own until it meets tol_root.  A step takes three points inside
    the bracket, evaluates them in ascending order, and keeps the part
    between the first sign change:
      - the regula falsi estimate, the zero of the chord through the bracket
        ends on f = sign * exp(logmag);
      - a guard a quarter of tol_root (relative in lam) past the estimate
        toward the farther end, so that an estimate within tolerance of the
        root closes its bracket at once;
      - the midpoint, so that every step at least halves the bracket and no
        bracket takes more steps than bisection.
    A point with sign 0 is the root, and the rest of its step is skipped.
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
    step = SCAN_STEP * pi / length
    beta_max = (count + 4 * m + 8) * pi / length
    # the scan evaluates no beta past beta_max.  Every lam = beta^(2m) up to
    # 2 (beta_max + step) must be a normal double, a margin that keeps the
    # set of refused lengths what it has always been
    if not (log(sys.float_info.min) <= two_m * log(step)
            and two_m * log(2.0 * (beta_max + step)) < log(sys.float_info.max)):
        raise CapabilityError(
            f"interval length {length:g} is out of range for m={m}: the scanned "
            f"lam = beta^{two_m} would leave double precision"
        )

    def indicator(beta: float) -> tuple[int, float]:
        return det_indicator(m, beta ** two_m, bc, length)

    # the grid is the running sum of step
    brackets: list[tuple] = []
    b = step
    s_prev, g_prev = indicator(b)
    while len(brackets) < count:
        a, b = b, b + step
        if b > beta_max:
            raise NumericalError(
                f"found only {len(brackets)} of {count} roots below beta={beta_max:.3g}"
            )
        s, g = indicator(b)
        if s == 0 or (s != s_prev and s_prev != 0):
            brackets.append((a, b, s_prev, s, g_prev, g))
        s_prev, g_prev = s, g

    guard_rel = 0.25 * tol.tol_root / two_m

    def refine(lo: float, hi: float, s_lo: int, s_hi: int, g_lo: float, g_hi: float) -> float:
        if s_hi == 0:
            return hi ** two_m
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lam_mid = mid ** two_m
            if hi ** two_m - lo ** two_m <= tol.tol_root * lam_mid or mid <= lo or mid >= hi:
                return lam_mid
            # |f_lo| / (|f_lo| + |f_hi|), from the log-magnitudes
            try:
                x = lo + (hi - lo) / (1.0 + exp(g_hi - g_lo))
            except OverflowError:  # |f_hi| dwarfs |f_lo|: the estimate is lo
                x = lo
            guard = x + copysign(guard_rel * x, (hi - x) - (x - lo))
            pts = [lo, *sorted((x, min(max(guard, lo), hi), mid)), hi]
            sgn, lgm = [s_lo], [g_lo]
            for p in pts[1:4]:
                s, g = indicator(p)
                if s == 0:
                    return p ** two_m
                sgn.append(s)
                lgm.append(g)
            sgn.append(s_hi)
            lgm.append(g_hi)
            j = next(j for j in range(4) if sgn[j] != sgn[j + 1])
            lo, hi, s_lo, s_hi, g_lo, g_hi = (pts[j], pts[j + 1], sgn[j], sgn[j + 1],
                                              lgm[j], lgm[j + 1])
        raise NumericalError("root refinement exceeded 200 steps without meeting tol_root")

    return [refine(*bracket) for bracket in brackets]


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
    return make_spectrum(m, bc, Domain.interval(length), MethodInfo("Exact1D"), vals, tol=tol)
