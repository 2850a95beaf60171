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
in two dimensions.

Every W basis function is a sum of products f(x) g(y), and the forms on W
are sums over the product of two 1d Gauss rules, so they are assembled from
1d sums (Lynch, Rice & Thomas, 1964): the same sums in exact arithmetic, with
no array over the 2d grid.  The 1d shape tables are those the rectangle
solver uses, galerkin.shape_table, taken on the certificate's own rule; m,
bc, n and the domain are read from the eigensystem's spectrum.

All derivatives in this module are closed-form; numerical differentiation is
deliberately absent so identity residuals measure rounding, not truncation.
Complex arithmetic stays inside this module and the Hermitian pencil solver.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product as iter_product
from math import ceil, comb

import numpy as np

from .galerkin import Eigensystem2D, shape_table
from .linalg import MAX_GAUSS_NODES, force_hermitian, gauss_legendre, solve_gen_eig
from .model import (BC_DIRICHLET, CapabilityError, GramDegeneracyError, InvalidArgumentError,
                    NumericalError)

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
GRAM_SV_FLOOR = 1e-8  # a combined basis at or below this is not (k+m)-dimensional
MAX_DIRECTIONS = 64


def roots_of_unity(m: int) -> np.ndarray:
    """The m distinct complex m-th roots of unity e^(2 pi i j / m), j = 0..m-1."""
    if m < 1:
        raise InvalidArgumentError(f"need m >= 1, got {m}")
    xi = np.exp(2j * np.pi * np.arange(m) / m)
    if abs(np.prod([xi[i] - xi[j] for i in range(m) for j in range(i)] or [1.0])) == 0.0:
        raise NumericalError("roots of unity degenerated")
    return xi


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


def _chain_quad_floor(n: int, radius: float, lmax: float) -> int:
    """Per-axis node floor n + 2 ceil(|omega| L / pi) + 10: resolves the wave."""
    return n + 2 * ceil(radius * lmax / np.pi) + 10


def _axis_forms(F: np.ndarray, Gref: np.ndarray, length: float, freq: float,
                xi: np.ndarray) -> tuple:
    """One axis, from the shape table (F, Gref) of its Gauss rule mapped to
    (0, length), in physical derivatives: K[a] = integral of phi^(a) phi^(a)^T,
    wave moments E[a, j, i] = integral of phi_i^(a) conj(e_j) and the wave
    Gram G[j, l] = integral of e_j conj(e_l), for the 1d waves
    e_j(x) = e^(i xi_j freq x)."""
    t, w = gauss_legendre(F.shape[-1])
    x, wq = 0.5 * length * (t + 1.0), 0.5 * length * w
    s = (2.0 / length) ** np.arange(F.shape[0])  # d/dx = (2 / length) d/dt
    waves = np.exp(1j * np.outer(xi, freq * x))
    K = (0.5 * length * s * s)[:, None, None] * Gref
    E = s[:, None, None] * ((waves.conj() * (0.5 * length * np.sqrt(w))) @ F.transpose(0, 2, 1))
    G = (waves * wq) @ waves.conj().T
    return K, E, G


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


def _normalized_gram_min_sv(M: np.ndarray) -> float:
    """Smallest singular value of the Gram M of the L2-normalized basis."""
    d = np.sqrt(np.abs(np.real(np.diag(M))))
    if np.any(d == 0.0):
        return 0.0
    return float(np.linalg.svd(M / np.outer(d, d), compute_uv=False)[-1])


class ChainCertificate(namedtuple("ChainCertificate",
                                  "lambda_hat omega max_rayleigh gram_min_sv")):
    """Outcome of the discrete chain bound on W = span(u_1..u_k) + V_omega.

    max_rayleigh is the largest generalized eigenvalue of the order-m
    stiffness/mass forms restricted to W, to be compared with lambda_hat;
    gram_min_sv documents that W is genuinely (k+m)-dimensional.
    """

    __slots__ = ()


def certified_chain_bound(k: int, eigsys: Eigensystem2D) -> ChainCertificate:
    """Assemble the (k+m) x (k+m) forms on W and bound its Rayleigh quotient.

    The direction walks theta_t = t * pi (3 - sqrt(5)) at radius
    lambda_hat_k^(1/(2m)), and the first omega whose normalized combined
    basis keeps its Gram's smallest singular value above GRAM_SV_FLOOR is
    certified.  Failing MAX_DIRECTIONS well-spread angles would contradict
    the genericity of the construction, so that is reported as a Gram
    degeneracy, not retried.

    The clamped eigenvectors are exact members of the essential-condition
    space, so all stiffness cross terms are plain integrals of order-m
    gradient contractions; no boundary terms arise.  Both forms are sums over
    a tensor Gauss rule and are assembled by axis (see _chain_form), which
    equals the sum over the 2d grid in exact arithmetic.  They are Hermitian
    and solved with the dense Hermitian pencil solver; the certificate
    records the largest eigenvalue and the combined basis conditioning.
    A rule past MAX_GAUSS_NODES, which a long thin rectangle needs at large
    lambda_hat_k, is refused with CapabilityError before any table is built.
    """
    spec = eigsys.spectrum
    if spec.bc != BC_DIRICHLET:
        raise InvalidArgumentError("chain bound needs the clamped eigensystem")
    m, dom, n = spec.m, spec.domain, spec.method.n_per_axis
    lambda_hat = spec.value(k)  # refuses k outside 1..count
    r = lambda_hat ** (1.0 / (2 * m))
    nq = _chain_quad_floor(n, r, max(dom.lx, dom.ly))
    if nq > MAX_GAUSS_NODES:
        raise CapabilityError(
            f"the chain certificate for k={k} on the {dom.lx:g} x {dom.ly:g} rectangle "
            f"needs {nq} Gauss nodes per axis, over the {MAX_GAUSS_NODES}-node limit")
    F, G = shape_table(spec.bc, m, n, nq)
    xi = roots_of_unity(m)
    C = eigsys.vectors[:, :k].T.reshape(k, n, n)
    for t in range(MAX_DIRECTIONS):
        theta = t * GOLDEN_ANGLE
        omega = np.array([r * np.cos(theta), r * np.sin(theta)])
        x = _axis_forms(F, G, dom.lx, omega[0], xi)
        y = _axis_forms(F, G, dom.ly, omega[1], xi)
        M = _chain_form(C, x, y, np.ones(1), np.ones((1, m)))
        gram_min_sv = _normalized_gram_min_sv(M)
        if gram_min_sv > GRAM_SV_FLOOR:
            break
    else:
        raise GramDegeneracyError(
            f"no direction out of {MAX_DIRECTIONS} golden-angle candidates gave a combined "
            f"basis Gram smallest singular value above {GRAM_SV_FLOOR:g}; the discrete "
            f"eigenvectors are suspect"
        )
    a = np.arange(m + 1)
    # d_x^a d_y^(m-a) multiplies wave j by (i xi_j)^m omega_x^a omega_y^(m-a)
    c = (omega[0] ** a * omega[1] ** (m - a))[:, None] * (1j * xi) ** m
    beta = np.array([comb(m, b) for b in a], dtype=float)
    S = _chain_form(C, x, y, beta, c)
    w, _ = solve_gen_eig(force_hermitian(S), force_hermitian(M))
    return ChainCertificate(lambda_hat=lambda_hat, omega=omega, max_rayleigh=float(w[-1]),
                            gram_min_sv=gram_min_sv)
