"""Dense numerical kernels: quadrature, Legendre evaluation, eigensolves.

Everything here works on plain ndarrays.  Generalized Hermitian pencils,
real or complex, are solved by one LAPACK call after a diagonal rescale.
"""

from __future__ import annotations

import numpy as np

from .model import CapabilityError, InvalidArgumentError, NumericalError


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_n from the Chebyshev-like initial guess; exact for
    polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : int
        Number of nodes, within the supported range 1..256.

    Returns
    -------
    x, w : ndarray
        Nodes in ascending order and the matching positive weights.
    """
    if not 1 <= n <= 256:
        raise CapabilityError(f"quadrature size n={n} outside the supported range 1..256")
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        pn = p1 if n > 1 else x
        if n == 1:
            pn, dpn = x, np.ones_like(x)
        else:
            dpn = n * (x * p1 - p0) / (x * x - 1.0)
        dx = pn / dpn
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    else:
        raise NumericalError("Gauss-Legendre Newton iteration did not converge")
    # recompute P_n' at the converged nodes for the weights
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dpn = n * (x * p1 - p0) / (x * x - 1.0) if n > 1 else np.ones_like(x)
    w = 2.0 / ((1.0 - x * x) * dpn * dpn)
    order = np.argsort(x)
    return x[order], w[order]


def legendre_derivatives(num: int, t: np.ndarray, max_deriv: int) -> np.ndarray:
    """Evaluate P_0 .. P_{num-1} and their first max_deriv derivatives.

    Uses the differentiated three-term recurrence
        i P_i^(r) = (2i-1) (t P_{i-1}^(r) + r P_{i-1}^(r-1)) - (i-1) P_{i-2}^(r).

    Returns an array of shape (max_deriv + 1, num, len(t)).
    """
    t = np.asarray(t, dtype=float)
    if num < 1 or max_deriv < 0:
        raise InvalidArgumentError("need num >= 1 and max_deriv >= 0")
    out = np.zeros((max_deriv + 1, num, t.size))
    out[0, 0] = 1.0
    if num > 1:
        out[0, 1] = t
        if max_deriv >= 1:
            out[1, 1] = 1.0
    for i in range(2, num):
        for r in range(max_deriv + 1):
            low = out[r - 1, i - 1] if r >= 1 else 0.0
            out[r, i] = ((2 * i - 1) * (t * out[r, i - 1] + r * low)
                         - (i - 1) * out[r, i - 2]) / i
    return out


def legendre_eval(i: int, t: float, max_deriv: int) -> np.ndarray:
    """P_i(t) and its derivatives up to order max_deriv (<= 6), |t| <= 1."""
    if i < 0:
        raise InvalidArgumentError(f"polynomial index must be >= 0, got {i}")
    if not 0 <= max_deriv <= 6:
        raise InvalidArgumentError(f"max_deriv must be in 0..6, got {max_deriv}")
    if abs(t) > 1.0:
        raise InvalidArgumentError(f"evaluation point {t!r} outside [-1, 1]")
    table = legendre_derivatives(i + 1, np.array([t]), max_deriv)
    return table[:, i, 0]


def force_hermitian(M: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Hermitian part of M, after checking the deviation is roundoff-sized.

    Real input stays real (and comes back symmetric), complex input stays
    complex.
    """
    M = np.asarray(M)
    H = M.conj().T
    scale = np.max(np.abs(M), initial=0.0)
    asym = np.max(np.abs(M - H), initial=0.0)
    if scale > 0.0 and asym > rel_tol * scale:
        raise NumericalError(f"matrix deviation from Hermitian {asym:.3e} exceeds {rel_tol:.1e} * scale")
    return 0.5 * (M + H)


MAX_PENCIL_DIM = 2500


def check_pencil_dim(dim: int) -> None:
    """Raise CapabilityError for a dense pencil dimension above MAX_PENCIL_DIM."""
    if dim > MAX_PENCIL_DIM:
        raise CapabilityError(f"pencil dimension {dim} exceeds the supported cap {MAX_PENCIL_DIM}")


def min_singular_value(M: np.ndarray) -> float:
    return float(np.linalg.svd(np.asarray(M), compute_uv=False)[-1])


def solve_gen_eig(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve A v = w B v for Hermitian A and Hermitian positive definite B.

    Real symmetric input gives real eigenvectors and complex Hermitian input
    complex ones.  The pencil is first rescaled by the diagonal congruence
    d = diag(B)^(-1/2), which leaves eigenvalues unchanged and tames the
    condition number of mass matrices built from non-orthogonal shape
    functions.  The scaled pencil goes to one LAPACK divide-and-conquer
    generalized solve (xSYGVD / xHEGVD through scipy.linalg.eigh), which reads
    the lower triangle of each matrix; its failure, for instance when B is not
    positive definite, is raised as NumericalError.

    Returns
    -------
    w : ndarray
        Eigenvalues in ascending order.
    V : ndarray
        Columns are eigenvectors, B-orthonormal: V^H @ B @ V = I.
    """
    # scipy.linalg takes a large share of the package import; only pencils need it
    from scipy.linalg import LinAlgError, eigh

    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError("solve_gen_eig expects two square matrices of equal shape")
    check_pencil_dim(A.shape[0])
    db = np.diag(B).real
    if np.any(db <= 0.0) or not np.all(np.isfinite(db)):
        raise NumericalError("mass matrix has a nonpositive diagonal entry")
    d = 1.0 / np.sqrt(db)
    try:
        w, V = eigh(d[:, None] * A * d[None, :], d[:, None] * B * d[None, :])
    except LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    return w, d[:, None] * V
