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

All derivatives in this module are closed-form; numerical differentiation is
deliberately absent so identity residuals measure rounding, not truncation.
Complex arithmetic stays inside this module and the Hermitian pencil solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import ceil, comb

import numpy as np

from .galerkin import Eigensystem2D, axis_rule, shape_derivatives
from .linalg import force_hermitian, min_singular_value, solve_gen_eig
from .model import (BC_DIRICHLET, GramDegeneracyError, InvalidArgumentError, NumericalError,
                    ToleranceConfig, check_order)

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


@dataclass(frozen=True)
class TrialSpace:
    """A member v = sum_j alpha_j e^(i xi_j omega.x) of V_omega."""

    m: int
    omega: np.ndarray  # real 2-vector, nonzero
    alpha: np.ndarray  # complex coefficients, length m

    def __post_init__(self):
        check_order(self.m)
        omega = np.asarray(self.omega, dtype=float)
        alpha = np.asarray(self.alpha, dtype=complex)
        if omega.shape != (2,) or not np.all(np.isfinite(omega)):
            raise InvalidArgumentError("omega must be a finite real 2-vector")
        if np.hypot(omega[0], omega[1]) == 0.0:
            raise InvalidArgumentError("omega must be nonzero")
        if alpha.shape != (self.m,):
            raise InvalidArgumentError(f"alpha must have length m={self.m}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alpha", alpha)

    @property
    def xi(self) -> np.ndarray:
        return roots_of_unity(self.m)

    @property
    def level(self) -> float:
        """|omega|^(2m), the eigen-level every member of V_omega sits at."""
        return float(np.hypot(self.omega[0], self.omega[1]) ** (2 * self.m))


@dataclass(frozen=True)
class TrialEvaluation:
    """Closed-form values of v, its order-m mixed partials, and (-Lap)^m v.

    mixed[a] holds d_x^a d_y^(m-a) v, a = 0..m; all other order-m partials
    are permutations of these.
    """

    values: np.ndarray       # complex (npts,)
    mixed: np.ndarray        # complex (m+1, npts)
    polyharmonic: np.ndarray  # complex (npts,)


def _phases(ts: TrialSpace, points: np.ndarray) -> np.ndarray:
    """e^(i xi_j omega.x) for each wave j and point, shape (m, npts)."""
    dot = points @ ts.omega
    return np.exp(1j * np.outer(ts.xi, dot))


def trial_eval(ts: TrialSpace, points: np.ndarray) -> TrialEvaluation:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != 2 or not np.all(np.isfinite(points)):
        raise InvalidArgumentError("points must be finite rows of (x, y)")
    m = ts.m
    ph = _phases(ts, points)
    values = ts.alpha @ ph
    wx, wy = ts.omega
    base = ts.alpha * (1j * ts.xi) ** m  # per-wave factor shared by all order-m partials
    mixed = np.empty((m + 1, points.shape[0]), dtype=complex)
    for a in range(m + 1):
        mixed[a] = (base * wx ** a * wy ** (m - a)) @ ph
    level = np.hypot(wx, wy) ** (2 * m)
    # written with the explicit xi^(2m) factor so the identity test measures
    # rounding, not an algebraic shortcut
    polyharmonic = (ts.alpha * ts.xi ** (2 * m) * level) @ ph
    return TrialEvaluation(values=values, mixed=mixed, polyharmonic=polyharmonic)


def verify_pde_identity(ts: TrialSpace, points: np.ndarray) -> float:
    """max over points of |(-Lap)^m v - |omega|^(2m) v| / (|omega|^(2m) max|v|)."""
    ev = trial_eval(ts, points)
    vmax = float(np.max(np.abs(ev.values)))
    if vmax == 0.0:
        return 0.0
    return float(np.max(np.abs(ev.polyharmonic - ts.level * ev.values)) / (ts.level * vmax))


def mth_gradient_square(ts: TrialSpace, points: np.ndarray, grouped: bool = False) -> np.ndarray:
    """|D^m v|^2 at each point.

    grouped=False sums |partial|^2 over all 2^m ordered index tuples, one
    sequential component product per tuple; grouped=True uses the binomial
    regrouping sum_a C(m, a) |d_x^a d_y^(m-a) v|^2.  The two must agree to
    rounding; keeping both routes makes that a checkable fact.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = ts.m
    if grouped:
        ev = trial_eval(ts, points)
        return np.einsum("a,ap->p", np.array([comb(m, a) for a in range(m + 1)], dtype=float),
                         np.abs(ev.mixed) ** 2)
    ph = _phases(ts, points)
    base = ts.alpha * (1j * ts.xi) ** m
    total = np.zeros(points.shape[0])
    for tup in iter_product((0, 1), repeat=m):
        factor = 1.0
        for axis in tup:
            factor = factor * ts.omega[axis]
        partial = (base * factor) @ ph
        total += np.abs(partial) ** 2
    return total


def verify_mth_gradient_identity(ts: TrialSpace, points: np.ndarray) -> float:
    """max over points of ||D^m v|^2 - |omega|^(2m)|v|^2| / (|omega|^(2m) max|v|^2)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    values = ts.alpha @ _phases(ts, points)
    vmax2 = float(np.max(np.abs(values) ** 2))
    if vmax2 == 0.0:
        return 0.0
    lhs = mth_gradient_square(ts, points, grouped=False)
    return float(np.max(np.abs(lhs - ts.level * np.abs(values) ** 2)) / (ts.level * vmax2))


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


def _chain_quad_floor(n: int, omega: np.ndarray, lmax: float) -> int:
    """Per-axis node floor n + 2 ceil(|omega| L / pi) + 10: resolves the wave."""
    return n + 2 * ceil(float(np.hypot(omega[0], omega[1])) * lmax / np.pi) + 10


def _w_basis_grids(eigsys: Eigensystem2D, k: int, omega: np.ndarray,
                   nq: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature weights, values, and order-m mixed partials of the W basis.

    Returns (w2d, vals, mixed): w2d has one weight per tensor node, vals is
    (k+m, P) complex, mixed is (m+1, k+m, P) with mixed[a] = d_x^a d_y^(m-a).
    Basis order: the k mass-orthonormal clamped eigenvectors, then the m waves.
    """
    pen = eigsys.pencil
    m, n = pen.m, pen.n
    lx, ly = pen.domain.lx, pen.domain.ly
    xq, wxq = axis_rule(lx, nq)
    yq, wyq = axis_rule(ly, nq)
    sx, sy = 2.0 / lx, 2.0 / ly
    Fx = shape_derivatives(pen.bc, m, n, 2.0 * xq / lx - 1.0, max_deriv=m)
    Fy = shape_derivatives(pen.bc, m, n, 2.0 * yq / ly - 1.0, max_deriv=m)
    w2d = np.kron(wxq, wyq)

    dim = k + m
    P = nq * nq
    vals = np.empty((dim, P), dtype=complex)
    mixed = np.empty((m + 1, dim, P), dtype=complex)
    for i in range(k):
        C = eigsys.vectors[:, i].reshape(n, n)
        vals[i] = (Fx[0].T @ C @ Fy[0]).ravel()
        for a in range(m + 1):
            grid = Fx[a].T @ C @ Fy[m - a]
            mixed[a, i] = (sx ** a * sy ** (m - a)) * grid.ravel()
    xi = roots_of_unity(m)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    dot = (omega[0] * X + omega[1] * Y).ravel()
    for j in range(m):
        wave = np.exp(1j * xi[j] * dot)
        vals[k + j] = wave
        for a in range(m + 1):
            mixed[a, k + j] = (1j * xi[j]) ** m * omega[0] ** a * omega[1] ** (m - a) * wave
    return w2d, vals, mixed


def _normalized_gram_min_sv(w2d: np.ndarray, vals: np.ndarray) -> float:
    """Smallest singular value of the Gram of the L2-normalized basis."""
    M = (vals * w2d) @ vals.conj().T
    d = np.sqrt(np.abs(np.real(np.diag(M))))
    if np.any(d == 0.0):
        return 0.0
    return min_singular_value(M / np.outer(d, d))


@dataclass(frozen=True)
class ChainCertificate:
    """Outcome of the discrete chain bound on W = span(u_1..u_k) + V_omega.

    max_rayleigh is the largest generalized eigenvalue of the order-m
    stiffness/mass forms restricted to W; the certificate holds when it does
    not exceed lambda_hat (1 + tol_identity).  gram_min_sv documents that W
    is genuinely (k+m)-dimensional.
    """

    m: int
    k: int
    lambda_hat: float
    omega: np.ndarray
    max_rayleigh: float
    gram_min_sv: float
    dim_w: int
    tol_identity: float

    @property
    def bound_ok(self) -> bool:
        return self.max_rayleigh <= self.lambda_hat * (1.0 + self.tol_identity)


def certified_chain_bound(m: int, k: int, eigsys: Eigensystem2D,
                          tol: ToleranceConfig = ToleranceConfig()) -> ChainCertificate:
    """Assemble the (k+m) x (k+m) forms on W and bound its Rayleigh quotient.

    The direction walks theta_t = t * pi (3 - sqrt(5)) at radius
    lambda_hat_k^(1/(2m)), and the first omega whose normalized combined
    basis keeps its Gram's smallest singular value above GRAM_SV_FLOOR is
    certified.  Failing MAX_DIRECTIONS well-spread angles would contradict
    the genericity of the construction, so that is reported as a Gram
    degeneracy, not retried.

    The clamped eigenvectors are exact members of the essential-condition
    space, so all stiffness cross terms are plain integrals of order-m
    gradient contractions; no boundary terms arise.  Forms are Hermitian by
    construction and solved with the dense Hermitian pencil solver; the
    certificate records the largest eigenvalue and the combined basis
    conditioning.
    """
    m = check_order(m)
    pen = eigsys.pencil
    if pen.bc != BC_DIRICHLET:
        raise InvalidArgumentError("chain bound needs the clamped eigensystem")
    if pen.m != m:
        raise InvalidArgumentError("order mismatch between m and the eigensystem")
    if not 1 <= k <= eigsys.spectrum.trusted_count:
        raise InvalidArgumentError(f"k={k} outside the trusted range")
    lambda_hat = eigsys.spectrum.value(k)
    r = lambda_hat ** (1.0 / (2 * m))
    lmax = max(pen.domain.lx, pen.domain.ly)
    for t in range(MAX_DIRECTIONS):
        theta = t * GOLDEN_ANGLE
        omega = np.array([r * np.cos(theta), r * np.sin(theta)])
        w2d, vals, mixed = _w_basis_grids(eigsys, k, omega, _chain_quad_floor(pen.n, omega, lmax))
        gram_min_sv = _normalized_gram_min_sv(w2d, vals)
        if gram_min_sv > GRAM_SV_FLOOR:
            break
    else:
        raise GramDegeneracyError(
            f"no direction out of {MAX_DIRECTIONS} golden-angle candidates gave a combined "
            f"basis Gram smallest singular value above {GRAM_SV_FLOOR:g}; the discrete "
            f"eigenvectors are suspect"
        )
    S = np.zeros((k + m, k + m), dtype=complex)
    for a in range(m + 1):
        S += comb(m, a) * (mixed[a] * w2d) @ mixed[a].conj().T
    M = (vals * w2d) @ vals.conj().T
    w, _ = solve_gen_eig(force_hermitian(S), force_hermitian(M))
    return ChainCertificate(m=m, k=k, lambda_hat=lambda_hat, omega=omega,
                            max_rayleigh=float(w[-1]), gram_min_sv=float(gram_min_sv),
                            dim_w=k + m, tol_identity=tol.tol_identity)
