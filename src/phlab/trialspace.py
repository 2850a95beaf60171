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

Every W basis function is a sum of products f(x) g(y), and the forms on W
are sums over the product of two 1d Gauss rules, so they are assembled from
1d sums (Lynch, Rice & Thomas, 1964): the same sums in exact arithmetic, with
no array over the 2d grid.  The 1d shape tables are those the rectangle
solver uses, galerkin.shape_table, taken on the certificate's own rule, one
per eigensystem and sized by its largest level; m, bc, n and the domain are
read from the eigensystem's spectrum.

All derivatives in this module are closed-form; numerical differentiation is
deliberately absent so identity residuals measure rounding, not truncation.
The forms are assembled in complex arithmetic, which stays inside this
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
from .model import (BC_DIRICHLET, CapabilityError, GramDegeneracyError, InvalidArgumentError,
                    NumericalError)

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


def _wave_forms(F: np.ndarray, axis: tuple, freq: float, xi: np.ndarray) -> tuple:
    """One axis's pieces of the forms on W for the 1d waves e_j(x) = e^(i xi_j freq x).

    axis holds the physical Grams K[a] = integral of phi^(a) phi^(a)^T on
    (0, length), the nodes x, weights wq and root weights of F's rule mapped
    there, and the derivative scales s[a] = (2 / length)^a.  Returns K, the
    wave moments E[a, j, i] = integral of phi_i^(a) conj(e_j) and the wave
    Gram G[j, l] = integral of e_j conj(e_l).
    """
    K, x, wq, root, s = axis
    waves = np.exp(1j * np.outer(xi, freq * x))
    E = s[:, None, None] * ((waves.conj() * root) @ F.transpose(0, 2, 1))
    return K, E, (waves * wq) @ waves.conj().T


def _chain_form(C: np.ndarray, x: tuple, y: tuple, beta: np.ndarray,
                c: np.ndarray) -> np.ndarray:
    """sum_t beta_t integral (D_t f) conj(D_t g) over the W basis, from 1d pieces.

    D_t = d_x^t d_y^(T-1-t), T = len(beta), multiplies wave j by c[t, j], and
    C[i] is the n x n coefficient matrix of eigenvector i.  Eigenvector blocks
    are C_i . (K^x_t C_l K^y_(T-1-t)), mixed blocks contract C_i with the wave
    moments E^x_t[j] (x) E^y_(T-1-t)[j], and wave blocks are G^x G^y.
    """
    (Kx, Ex, Gx), (Ky, Ey, Gy) = x, y
    T = beta.size
    Ky, Ey = Ky[T - 1::-1], Ey[T - 1::-1]
    Z = np.einsum("t,tlpq->lpq", beta, Kx[:T, None] @ C @ Ky[:, None])
    uu = C.reshape(len(C), -1) @ Z.reshape(len(C), -1).T
    uw = sum(b * ct.conj() * ((C @ ey.T) * ex.T).sum(axis=1)
             for b, ct, ex, ey in zip(beta, c, Ex, Ey))
    ww = ((beta[:, None] * c).T @ c.conj()) * Gx * Gy
    return np.block([[uu, uw], [uw.conj().T, ww]])


def _hermitian_part(M: np.ndarray) -> np.ndarray:
    """Hermitian part of a form, after checking its deviation is roundoff-sized."""
    H = M.conj().T
    scale = np.max(np.abs(M), initial=0.0)
    asym = np.max(np.abs(M - H), initial=0.0)
    if scale > 0.0 and asym > 1e-12 * scale:
        raise NumericalError(f"matrix deviation from Hermitian {asym:.3e} exceeds 1.0e-12 * scale")
    return 0.5 * (M + H)


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

    max_rayleigh is the largest generalized eigenvalue of the order-m
    stiffness/mass forms restricted to W, to be compared with lambda_hat;
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
    eigenvectors are suspect and is reported as a Gram degeneracy.  One Gauss
    rule of n + 2 ceil(|omega| s / pi) + 10 nodes per axis, s the shorter
    side and omega the largest level's, resolves every wave; it, its shape
    table and both axes' Grams are built once, before the loop over k.
    Since lambda_hat_k(lx, ly) <= lambda_hat_k(s, s) by min-max, the rule
    is never larger than on a square.

    The clamped eigenvectors are exact members of the essential-condition
    space, so all stiffness cross terms are plain integrals of order-m
    gradient contractions; no boundary terms arise.  Both forms are sums over
    a tensor Gauss rule and are assembled by axis (see _chain_form), which
    equals the sum over the 2d grid in exact arithmetic.  Forms that overflow,
    as on a side near the largest double, are refused with CapabilityError.
    Both are checked Hermitian to rounding and replaced by their Hermitian
    parts, from which the Gram record is taken.  The pencil then goes to
    linalg as the real embeddings E(S), E(M) (see _real_embedding), which
    hold each eigenvalue of (S, M) twice: the whitener T of E(M) (see
    linalg.mass_whitener) turns it into the standard problem T E(S) T^T,
    whose largest eigenvalue the certificate records with the combined basis
    conditioning.
    """
    spec = eigsys.spectrum
    if spec.bc != BC_DIRICHLET:
        raise InvalidArgumentError("chain bound needs the clamped eigensystem")
    m, dom, n = spec.m, spec.domain, spec.method.n_per_axis
    top = spec.values[-1] ** (1.0 / (2 * m))
    F, G = shape_table(spec.bc, m, n, n + 2 * ceil(top * min(dom.lx, dom.ly) / np.pi) + 10)
    xi = roots_of_unity(m)
    a = np.arange(m + 1)
    beta = np.array([comb(m, b) for b in a], dtype=float)
    C = eigsys.vectors.T.reshape(-1, n, n)  # coefficient matrix of each eigenvector
    t, w = gauss_legendre(F.shape[-1])
    axes, certs = [], []
    for L in (dom.lx, dom.ly):
        with np.errstate(over="ignore", invalid="ignore"):
            s = (2.0 / L) ** a  # d/dx = (2 / L) d/dt
            axes.append(((0.5 * L * s * s)[:, None, None] * G, 0.5 * L * (t + 1.0),
                         0.5 * L * w, 0.5 * L * np.sqrt(w), s))
    for k, lambda_hat in enumerate(spec.values, start=1):
        r = lambda_hat ** (1.0 / (2 * m))
        omega = np.array([r, 0.0]) if dom.lx <= dom.ly else np.array([0.0, r])
        # d_x^a d_y^(m-a) multiplies wave j by (i xi_j)^m omega_x^a omega_y^(m-a)
        c = (omega[0] ** a * omega[1] ** (m - a))[:, None] * (1j * xi) ** m
        with np.errstate(over="ignore", invalid="ignore"):
            x = _wave_forms(F, axes[0], omega[0], xi)
            y = _wave_forms(F, axes[1], omega[1], xi)
            M = _chain_form(C[:k], x, y, np.ones(1), np.ones((1, m)))
            S = _chain_form(C[:k], x, y, beta, c)
        if not (np.isfinite(M).all() and np.isfinite(S).all()):
            raise CapabilityError(
                f"the chain certificate's forms for k={k} on the {dom.lx:g} x {dom.ly:g} "
                f"rectangle overflow double precision")
        S, M = _hermitian_part(S), _hermitian_part(M)
        gram_min_sv = _normalized_gram_min_sv(M)
        if gram_min_sv <= GRAM_SV_FLOOR:
            raise GramDegeneracyError(
                f"the combined basis Gram's smallest singular value {gram_min_sv:.3e} is not "
                f"above {GRAM_SV_FLOOR:g}; the discrete eigenvectors are suspect")
        T = mass_whitener(_real_embedding(M))
        w = hermitian_eig(T @ _real_embedding(S) @ T.T, vectors=False)
        certs.append(ChainCertificate(lambda_hat=lambda_hat, omega=omega,
                                      max_rayleigh=float(w[-1]), gram_min_sv=gram_min_sv))
    return tuple(certs)
