"""Dense numerical kernels: quadrature, Legendre evaluation, eigensolves.

Everything here works on plain ndarrays and needs numpy only.  A symmetric
positive definite mass matrix is reduced to the identity by a whitener
(diagonal rescale, Cholesky factor, one solve), which turns a generalized
pencil into one standard symmetric eigenproblem.  phlab hands these kernels
real arrays only; the chain certificate passes the real embeddings of its
complex Hermitian forms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import CapabilityError, InvalidArgumentError, NumericalError

MAX_GAUSS_NODES = 256


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_n from the Chebyshev-like initial guess; exact for
    polynomials of degree <= 2n - 1.  Each rule is computed once per process
    and shared, so the returned arrays are read-only.

    Parameters
    ----------
    n : int
        Number of nodes, within the supported range 1..MAX_GAUSS_NODES.

    Returns
    -------
    x, w : ndarray
        Nodes in ascending order and the matching positive weights.
    """
    if not 1 <= n <= MAX_GAUSS_NODES:
        raise CapabilityError(f"quadrature size n={n} outside the supported range 1..{MAX_GAUSS_NODES}")
    return _gauss_legendre_rule(n)


@lru_cache(maxsize=None)
def _gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
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
    x, w = x[order], w[order]
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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


def mass_whitener(B: np.ndarray) -> np.ndarray:
    """T with T @ B @ T^H = I, for Hermitian positive definite B.

    B is first rescaled by the diagonal congruence d = diag(B)^(-1/2), which
    tames the condition number of mass matrices built from non-orthogonal
    shape functions; then T = L^(-1) diag(d) for the Cholesky factor
    L L^H = d B d.  Only the lower triangle of B is read.  A nonpositive
    diagonal or a failed factorization raises NumericalError.
    """
    B = np.asarray(B)
    db = np.diag(B).real
    if np.any(db <= 0.0) or not np.all(np.isfinite(db)):
        raise NumericalError("mass matrix has a nonpositive diagonal entry")
    d = 1.0 / np.sqrt(db)
    try:
        L = np.linalg.cholesky(d[:, None] * B * d[None, :])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("mass matrix is not positive definite") from exc
    return np.linalg.solve(L, np.diag(d))


def hermitian_eig(C: np.ndarray,
                  vectors: bool = True) -> tuple[np.ndarray, np.ndarray] | np.ndarray:
    """Ascending eigenvalues of Hermitian C, with or without its eigenvectors.

    With vectors, numpy's divide-and-conquer eigh returns the pair (w, Y) of
    eigenvalues and orthonormal eigenvectors.  Without, eigvalsh returns w
    alone: the same LAPACK driver then forms no eigenvector, so it needs
    neither the N x N eigenvector array nor its O(N^2) workspace.  Both read
    the lower triangle; a failure to converge is raised as NumericalError.
    """
    try:
        return np.linalg.eigh(C) if vectors else np.linalg.eigvalsh(C)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
