"""Plane-wave trial spaces and the certified Rayleigh chain bound.

For a direction vector omega and the m distinct m-th roots of unity xi_j,
V_omega is the span of the m waves e^(i xi_j omega.x).  Two identities hold
pointwise and in closed form for every member v:

    (-Lap)^m v = |omega|^(2m) v          (because xi_j^(2m) = 1)
    |D^m v|^2  = |omega|^(2m) |v|^2      (sum over ordered m-tuples of
                                          omega-component products telescopes
                                          to |omega|^(2m))

so V_omega sits inside the continuous eigen-equation at level |omega|^(2m)
without discretization error.  Adjoining V_omega to the span of the first k
discrete clamped eigenfunctions yields a (k+m)-dimensional space W on which
the largest Rayleigh quotient can be computed and certified against the k-th
clamped eigenvalue; together with the counting argument this is the
mechanism that separates the shifted free eigenvalues from the clamped ones
in two dimensions.  Any omega of length lambda_hat_k^(1/(2m)) serves; the
certificate points it along the rectangle's shorter side.

At that length the stiffness form S on W equals lambda_hat_k times the mass
form M outside the eigenvector block, by integration by parts and the two
identities, so the certificate records the largest Rayleigh quotient as
lambda_hat_k plus the top eigenvalue of the pencil of that block of
S - lambda_hat_k M against M.  The eigenvector blocks are Gram products on
the solver's rule; the wave parts of M are 1d sums over one wave rule per
eigensystem (Lynch, Rice & Thomas, 1964), with no array over the 2d grid.

All derivatives in this module are closed-form; numerical differentiation is
deliberately absent so identity residuals measure rounding, not truncation.
The wave parts are complex, and complex arithmetic stays inside this
module: linalg receives only their real symmetric embeddings, so the
certificate runs the same real Cholesky, solve and symmetric eigensolve as
the rectangle solver.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product as iter_product
from math import ceil, comb

import numpy as np

from .galerkin import Eigensystem2D, shape_table
from .linalg import gauss_legendre, hermitian_eig, mass_whitener
from .model import BC_DIRICHLET, CapabilityError, GramDegeneracyError, InvalidArgumentError

GRAM_SV_FLOOR = 1e-8  # a combined basis at or below this is not (k+m)-dimensional


def roots_of_unity(m: int) -> np.ndarray:
    """The m distinct complex m-th roots of unity e^(2 pi i j / m), j = 0..m-1."""
    if m < 1:
        raise InvalidArgumentError(f"need m >= 1, got {m}")
    return np.exp(2j * np.pi * np.arange(m) / m)


def wave_identity_residuals(m: int, omega: np.ndarray, alpha: np.ndarray,
                            points: np.ndarray) -> tuple[float, float]:
    """Pointwise residuals of both identities for v = sum_j alpha_j e^(i xi_j omega.x).

    pde  = max |(-Lap)^m v - |omega|^(2m) v| / (|omega|^(2m) max|v|)
    grad = max ||D^m v|^2 - |omega|^(2m) |v|^2| / (|omega|^(2m) max|v|^2)

    over the rows (x, y) of points.  |D^m v|^2 sums |partial|^2 over all 2^m
    ordered index tuples, one sequential component product per tuple, so it
    does not lean on the binomial regrouping the chain certificate uses.  A
    residual whose normalizer is zero (max|v|, resp. max|v|^2) is 0.0.
    """
    xi = roots_of_unity(m)
    level = float(np.hypot(omega[0], omega[1]) ** (2 * m))
    ph = np.exp(1j * np.outer(xi, points @ omega))  # wave j at each point
    values = alpha @ ph
    # written with the explicit xi^(2m) factor so the residual measures
    # rounding, not an algebraic shortcut
    polyharmonic = (alpha * xi ** (2 * m) * level) @ ph
    base = alpha * (1j * xi) ** m  # per-wave factor shared by all order-m partials
    grad2 = np.zeros(points.shape[0])
    for tup in iter_product((0, 1), repeat=m):
        factor = 1.0
        for axis in tup:
            factor = factor * omega[axis]
        grad2 += np.abs((base * factor) @ ph) ** 2
    vmax = float(np.max(np.abs(values)))
    vmax2 = float(np.max(np.abs(values) ** 2))
    pde = 0.0 if vmax == 0.0 else float(
        np.max(np.abs(polyharmonic - level * values)) / (level * vmax))
    grad = 0.0 if vmax2 == 0.0 else float(
        np.max(np.abs(grad2 - level * np.abs(values) ** 2)) / (level * vmax2))
    return pde, grad


def vandermonde_check(zetas) -> float:
    """|product over i < j of (zeta_j - zeta_i)|; positive iff all nodes distinct."""
    z = np.asarray(zetas, dtype=complex)
    if z.ndim != 1 or z.size < 1:
        raise InvalidArgumentError("need a nonempty 1d sequence of nodes")
    out = 1.0
    for i in range(z.size):
        for j in range(i + 1, z.size):
            out *= abs(z[j] - z[i])
    return float(out)


# ---------------------------------------------------------------------------
# combined space W = span(u_1..u_k) + V_omega on the rectangle


def _wave_forms(F0: np.ndarray, L: float, freq: float, xi: np.ndarray) -> tuple:
    """One axis's wave parts of the mass form for e_j(x) = e^(i xi_j freq x).

    F0 holds the shape values times the root weights of a Gauss rule on
    [-1, 1]; the rule is mapped to (0, L).  Returns the wave moments
    E[j, i] = integral of phi_i conj(e_j) and the wave Gram
    G[j, l] = integral of e_j conj(e_l).
    """
    t, w = gauss_legendre(F0.shape[-1])
    waves = np.exp(1j * np.outer(xi, freq * (0.5 * L * (t + 1.0))))
    E = (waves.conj() * (0.5 * L * np.sqrt(w))) @ F0.T
    return E, (waves * (0.5 * L * w)) @ waves.conj().T


def _eigen_grams(C: np.ndarray, F: np.ndarray, lx: float, ly: float) -> tuple:
    """Mass and order-m stiffness Grams of the eigenvectors C[i] on F's rule.

    F is a shape table on the Gauss rule of each axis.  D[i] holds a partial
    d_x^b d_y^c of eigenvector i at the tensor nodes times the root weights,
    so the mass D D^T (b = c = 0) and the stiffness, the sum over b of
    C(m,b) D D^T (c = m - b), are Gram products, symmetric by construction.
    One partial is held at a time.
    """
    m = F.shape[0] - 1
    a = np.arange(m + 1)
    # d/dx = (2 / L) d/dt, and the root weights on (0, L) carry sqrt(L / 2)
    Fx, Fy = (((2.0 / L) ** a * np.sqrt(0.5 * L))[:, None, None] * F for L in (lx, ly))

    def gram(b, c):
        D = (Fx[b].T @ C @ Fy[c]).reshape(len(C), -1)
        return D @ D.T

    return gram(0, 0), sum(comb(m, b) * gram(b, m - b) for b in a)


def _real_embedding(X: np.ndarray) -> np.ndarray:
    """The real symmetric [[Re X, -Im X], [Im X, Re X]] of a Hermitian X.

    Each eigenvalue of X appears twice among those of the embedding, and the
    embedding of a positive definite X is positive definite, so a Hermitian
    pencil and its embedding share their eigenvalues.
    """
    n = X.shape[0]
    out = np.empty((2 * n, 2 * n))
    out[:n, :n] = out[n:, n:] = X.real
    out[n:, :n] = X.imag
    out[:n, n:] = -out[n:, :n]
    return out


def _normalized_gram_min_sv(M: np.ndarray) -> float:
    """Smallest singular value of the Hermitian Gram M of the L2-normalized basis.

    The singular values of a Hermitian matrix are the moduli of its
    eigenvalues, so this is the smallest |eigenvalue| of the normalized
    Gram's real embedding: a value rounding leaves just below zero counts as
    a singular value, never as a negative one.
    """
    d = np.sqrt(np.abs(np.real(np.diag(M))))
    if np.any(d == 0.0):
        return 0.0
    w = hermitian_eig(_real_embedding(M / np.outer(d, d)), vectors=False)
    return float(np.min(np.abs(w)))


class ChainCertificate(namedtuple("ChainCertificate",
                                  "lambda_hat omega max_rayleigh gram_min_sv")):
    """Outcome of the discrete chain bound on W = span(u_1..u_k) + V_omega.

    max_rayleigh is the largest Rayleigh quotient of the order-m stiffness
    form on W, lambda_hat plus the top eigenvalue of (S - lambda_hat M, M)
    (see certified_chain_bound), to be compared with lambda_hat;
    gram_min_sv documents that W is genuinely (k+m)-dimensional.
    """

    __slots__ = ()


def certified_chain_bound(eigsys: Eigensystem2D) -> tuple[ChainCertificate, ...]:
    """Bound the Rayleigh quotient on W for every k = 1..count, in order.

    Per k, omega has length lambda_hat_k^(1/(2m)) and points along the
    shorter side, so a combination of waves depends on that coordinate
    alone.  The clamped eigenvectors vanish on the two sides parallel to
    omega, so such a combination in their span vanishes everywhere, and the
    combined basis is (k+m)-dimensional; a normalized Gram whose smallest
    singular value is at or below GRAM_SV_FLOOR means the discrete
    eigenvectors are suspect and is reported as a Gram degeneracy.

    S - lambda_hat_k M vanishes outside its eigenvector block.  For u in
    H^m_0 and a wave e, integration by parts without boundary terms and
    (-Lap)^m e = |omega|^(2m) e give a(u, e) = |omega|^(2m) <u, e>; the
    gradient identity gives a(e, e') = |omega|^(2m) <e, e'>.  So the largest
    Rayleigh quotient on W is exactly lambda_hat_k plus the top eigenvalue
    of ([[S_uu - lambda_hat_k M_uu, 0], [0, 0_m]], M), which is recorded.

    M_uu and S_uu of all count eigenvectors are Gram products on the
    solver's rule of n + 2m + 2 nodes per axis, exact for them, built once
    (see _eigen_grams).  Per k, only the wave parts of M are built, from
    per-axis wave moments and wave Grams on one rule of
    n + 2 ceil(|omega| s / pi) + 10 nodes per axis, s the shorter side and
    omega the largest level's; since lambda_hat_k(lx, ly) <= lambda_hat_k(s, s)
    by min-max, it is never larger than on a square.  Forms that overflow,
    as on a side near the largest double, are refused with CapabilityError.
    Every form is Hermitian by construction, a Gram product or a block
    beside its own conjugate transpose, so none is checked.  The pencil goes
    to linalg as real embeddings (see _real_embedding), which hold each of
    its eigenvalues twice, and the whitener of E(M) (see
    linalg.mass_whitener) makes it a standard symmetric problem.
    """
    spec = eigsys.spectrum
    if spec.bc != BC_DIRICHLET:
        raise InvalidArgumentError("chain bound needs the clamped eigensystem")
    m, dom, n = spec.m, spec.domain, spec.method.n_per_axis
    top = spec.values[-1] ** (1.0 / (2 * m))
    F0 = shape_table(spec.bc, m, n, n + 2 * ceil(top * min(dom.lx, dom.ly) / np.pi) + 10)[0][0]
    xi = roots_of_unity(m)
    C = eigsys.vectors.T.reshape(-1, n, n)  # coefficient matrix of each eigenvector
    with np.errstate(over="ignore", invalid="ignore"):
        M_uu, S_uu = _eigen_grams(C, shape_table(spec.bc, m, n, n + 2 * m + 2)[0],
                                  dom.lx, dom.ly)
    certs = []
    for k, lambda_hat in enumerate(spec.values, start=1):
        r = lambda_hat ** (1.0 / (2 * m))
        omega = np.array([r, 0.0]) if dom.lx <= dom.ly else np.array([0.0, r])
        with np.errstate(over="ignore", invalid="ignore"):
            Ex, Gx = _wave_forms(F0, dom.lx, omega[0], xi)
            Ey, Gy = _wave_forms(F0, dom.ly, omega[1], xi)
            uw = ((C[:k] @ Ey.T) * Ex.T).sum(axis=1)  # <u_i, e_j>
            M = np.block([[M_uu[:k, :k], uw], [uw.conj().T, Gx * Gy]])
            A = np.pad(S_uu[:k, :k] - lambda_hat * M_uu[:k, :k], (0, m))
        if not (np.isfinite(M).all() and np.isfinite(A).all()):
            raise CapabilityError(
                f"the chain certificate's forms for k={k} on the {dom.lx:g} x {dom.ly:g} "
                f"rectangle overflow double precision")
        gram_min_sv = _normalized_gram_min_sv(M)
        if gram_min_sv <= GRAM_SV_FLOOR:
            raise GramDegeneracyError(
                f"the combined basis Gram's smallest singular value {gram_min_sv:.3e} is not "
                f"above {GRAM_SV_FLOOR:g}; the discrete eigenvectors are suspect")
        T = mass_whitener(_real_embedding(M))
        w = hermitian_eig(T @ _real_embedding(A) @ T.T, vectors=False)
        certs.append(ChainCertificate(lambda_hat=lambda_hat, omega=omega,
                                      max_rayleigh=lambda_hat + float(w[-1]),
                                      gram_min_sv=gram_min_sv))
    return tuple(certs)
