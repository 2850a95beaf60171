from itertools import product
from math import ceil, comb

import numpy as np
import numpy.testing as npt
import pytest

from phlab import galerkin, trialspace
from phlab.galerkin import (Eigensystem2D, shape_derivatives, solve_2d_eigensystem,
                            solve_2d_spectrum, trusted_capacity)
from phlab.linalg import MAX_GAUSS_NODES, gauss_legendre
from phlab.model import BC_NEUMANN, Domain, GramDegeneracyError, InvalidArgumentError
from phlab.trialspace import (certified_chain_bound, roots_of_unity, vandermonde_check,
                              wave_identity_residuals)

SQUARE = Domain.rectangle(1.0, 1.0)


def pencil_eigenvalues(A, B):
    """Ascending eigenvalues of A v = w B v for Hermitian A and B = L L^H > 0."""
    L = np.linalg.cholesky(B)
    return np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, A).conj().T))


def _random_wave(m, rng, scale=5.0):
    """(omega, alpha) of a seeded member of V_omega."""
    theta = rng.uniform(0.0, 2 * np.pi)
    r = rng.uniform(1.0, scale)
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.array([r * np.cos(theta), r * np.sin(theta)]), alpha


def test_roots_of_unity_basic():
    for m in (1, 2, 3, 7):
        xi = roots_of_unity(m)
        npt.assert_allclose(xi ** m, np.ones(m), atol=1e-14)
        assert len({complex(round(z.real, 9), round(z.imag, 9)) for z in xi}) == m


def test_vandermonde_hand_values():
    assert abs(vandermonde_check(roots_of_unity(1)) - 1.0) < 1e-15
    assert abs(vandermonde_check(roots_of_unity(2)) - 2.0) < 1e-14
    assert abs(vandermonde_check(roots_of_unity(4)) - 16.0) < 1e-12


def test_eigen_equation_identity_seeded():
    rng = np.random.default_rng(2024)
    for m in (1, 2, 3):
        for _ in range(5):
            omega, alpha = _random_wave(m, rng)
            pts = rng.uniform(-1.0, 1.0, size=(100, 2))
            pde, grad = wave_identity_residuals(m, omega, alpha, pts)
            assert pde <= 1e-12
            assert grad <= 1e-12


def test_identity_residual_zero_for_zero_member():
    pts = np.array([[0.1, 0.2], [0.5, 0.5]])
    omega = np.array([3.0, 4.0])
    assert wave_identity_residuals(2, omega, np.zeros(2, dtype=complex), pts) == (0.0, 0.0)
    # |v| ~ 1e-170 is normal but |v|^2 underflows to 0: only the gradient
    # residual, normalized by max|v|^2, falls back to 0.0
    with np.errstate(divide="raise", invalid="raise"):
        pde, grad = wave_identity_residuals(1, omega, np.array([1e-170 + 0j]), pts)
    assert 0.0 <= pde <= 1e-14 and grad == 0.0


def test_single_wave_closed_forms():
    # m=1: v = e^(i omega.x), |grad v|^2 = |omega|^2, (-Lap) v = |omega|^2 v;
    # at one point with |v| = 1 each residual is the pointwise relative error
    pde, grad = wave_identity_residuals(1, np.array([2.0, -1.0]), np.array([1.0 + 0j]),
                                        np.array([[0.3, 0.7]]))
    assert pde <= 1e-14
    assert grad <= 1e-13


def test_grouped_and_ungrouped_gradient_agree():
    # the chain certificate sums |D^m v|^2 as sum_a C(m, a) |d_x^a d_y^(m-a) v|^2;
    # on plane waves that regrouping equals the ordered-tuple sum to rounding
    rng = np.random.default_rng(99)
    for m in (1, 2, 3):
        omega, alpha = _random_wave(m, rng)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        xi = roots_of_unity(m)
        ph = np.exp(1j * np.outer(xi, pts @ omega))
        base = alpha * (1j * xi) ** m
        ungrouped = sum(np.abs((base * np.prod(omega[list(tup)])) @ ph) ** 2
                        for tup in product((0, 1), repeat=m))
        grouped = sum(comb(m, a) * np.abs((base * omega[0] ** a * omega[1] ** (m - a)) @ ph) ** 2
                      for a in range(m + 1))
        scale = max(float(np.abs(ungrouped).max()), 1e-300)
        assert np.abs(ungrouped - grouped).max() / scale < 1e-13
        level = np.hypot(*omega) ** (2 * m)
        values = np.abs(alpha @ ph) ** 2
        assert np.abs(grouped - level * values).max() <= 1e-12 * level * values.max()


def test_chain_certificate_omega_hits_target_level():
    sysd = solve_2d_eigensystem(2, "dirichlet", 10, SQUARE, count=3)
    certs = certified_chain_bound(sysd)
    assert len(certs) == 3
    for cert, lam in zip(certs, sysd.spectrum.values):
        npt.assert_allclose(np.hypot(*cert.omega) ** 4, lam, rtol=1e-12)


def test_chain_certificate_builds_one_rule_per_eigensystem(monkeypatch):
    # nothing caches the shape tables: each of two identical solves builds its
    # assembly rule's, and one certificate pass builds two more, the wave rule
    # sized by the largest level lambda_hat_5 and the solver's rule for the
    # eigenvector Grams
    calls = []
    build = galerkin.shape_derivatives

    def counted(bc, m, n, t, max_deriv):
        calls.append((bc, m, n, len(t)))
        return build(bc, m, n, t, max_deriv)

    monkeypatch.setattr(galerkin, "shape_derivatives", counted)
    for _ in range(2):
        sysd = solve_2d_eigensystem(2, "dirichlet", 12, SQUARE, count=5)
    certified_chain_bound(sysd)
    # n + 2m + 2 = 18 nodes, and n + 2 ceil(lambda_hat_5^(1/4) / pi) + 10 = 30
    assert 12 + 2 * ceil(sysd.spectrum.values[4] ** 0.25 / np.pi) + 10 == 30
    solver = ("dirichlet", 2, 12, 18)
    assert calls == [solver] * 2 + [("dirichlet", 2, 12, 30), solver]


@pytest.mark.parametrize("lx, ly", [(1.0, 1.0), (1.0, 0.5)])
@pytest.mark.parametrize("m, n, K", [(1, 24, 30), (2, 24, 30), (3, 16, 12)])
def test_chain_certificates_do_not_depend_on_count(m, n, K, lx, ly):
    # the rule is sized by the largest level of the eigensystem, so a larger
    # count certifies the leading k on a finer rule; that changes the records
    # by rounding alone
    dom = Domain.rectangle(lx, ly)
    few = certified_chain_bound(solve_2d_eigensystem(m, "dirichlet", n, dom, count=5))
    many = certified_chain_bound(solve_2d_eigensystem(m, "dirichlet", n, dom, count=K))
    assert len(few) == 5 and len(many) == K
    for a, b in zip(few, many):
        assert a.lambda_hat == b.lambda_hat
        npt.assert_array_equal(a.omega, b.omega)
        npt.assert_allclose(a.max_rayleigh, b.max_rayleigh, rtol=1e-13, atol=0)
        npt.assert_allclose(a.gram_min_sv, b.gram_min_sv, rtol=1e-13, atol=0)


@pytest.mark.parametrize("ly", [1.0, 0.5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_chain_rule_fits_the_node_limit_at_full_capacity(m, ly, monkeypatch):
    # the rule is sized by the shorter side, on which lambda_hat_k is at most
    # the square's, so even the largest trusted value needs no more than
    # MAX_GAUSS_NODES nodes per axis; the rule is read where the certificate
    # builds its table, before any eigenvector is touched
    spec = solve_2d_spectrum(m, "dirichlet", 50, Domain.rectangle(1.0, ly),
                             count=trusted_capacity(50))
    rules = []

    class RuleRead(Exception):
        pass

    def read_rule(bc, m, n, nq):
        rules.append(nq)
        raise RuleRead

    monkeypatch.setattr(trialspace, "shape_table", read_rule)
    with pytest.raises(RuleRead):
        certified_chain_bound(Eigensystem2D(spectrum=spec, vectors=None))
    assert rules[0] <= MAX_GAUSS_NODES


def _grid_reference_forms(eigsys, k, omega):
    """S and M of the chain certificate from full tensor grids of the W basis.

    Every basis function and each of its order-m mixed partials is evaluated
    on the nq x nq tensor Gauss rule and the 2d sums are taken directly.  The
    rule is sized by the longer side, so on a rectangle it is finer than the
    certificate's and a match also shows that the shorter-side rule suffices.
    """
    spec = eigsys.spectrum
    m, n = spec.m, spec.method.n_per_axis
    lx, ly = spec.domain.lx, spec.domain.ly
    nq = n + 2 * ceil(np.hypot(*omega) * max(lx, ly) / np.pi) + 10
    t, w = gauss_legendre(nq)
    xq, wxq = 0.5 * lx * (t + 1.0), 0.5 * lx * w
    yq, wyq = 0.5 * ly * (t + 1.0), 0.5 * ly * w
    sx, sy = 2.0 / lx, 2.0 / ly
    Fx = shape_derivatives(spec.bc, m, n, 2.0 * xq / lx - 1.0, max_deriv=m)
    Fy = shape_derivatives(spec.bc, m, n, 2.0 * yq / ly - 1.0, max_deriv=m)
    w2d = np.kron(wxq, wyq)
    dim = k + m
    vals = np.empty((dim, nq * nq), dtype=complex)
    mixed = np.empty((m + 1, dim, nq * nq), dtype=complex)
    for i in range(k):
        C = eigsys.vectors[:, i].reshape(n, n)
        vals[i] = (Fx[0].T @ C @ Fy[0]).ravel()
        for a in range(m + 1):
            mixed[a, i] = (sx ** a * sy ** (m - a)) * (Fx[a].T @ C @ Fy[m - a]).ravel()
    xi = roots_of_unity(m)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    dot = (omega[0] * X + omega[1] * Y).ravel()
    for j in range(m):
        wave = np.exp(1j * xi[j] * dot)
        vals[k + j] = wave
        for a in range(m + 1):
            mixed[a, k + j] = (1j * xi[j]) ** m * omega[0] ** a * omega[1] ** (m - a) * wave
    S = sum(comb(m, a) * (mixed[a] * w2d) @ mixed[a].conj().T for a in range(m + 1))
    M = (vals * w2d) @ vals.conj().T
    return S, M


@pytest.mark.parametrize("lx, ly", [(1.0, 1.0), (1.0, 0.5)])
@pytest.mark.parametrize("m, n", [(1, 12), (2, 12), (3, 10)])
def test_separable_chain_forms_match_grid_reference(m, n, lx, ly, monkeypatch):
    # the certificate builds only the mass form on W and the eigenvector
    # stiffness block, because S - lambda_hat_k M vanishes outside that block;
    # the full reference forms show the identity, and the records match the
    # reference pencil on W
    sysd = solve_2d_eigensystem(m, "dirichlet", n, Domain.rectangle(lx, ly), count=8)
    grams, masses = [], []
    eigen_grams, gram_min_sv = trialspace._eigen_grams, trialspace._normalized_gram_min_sv

    def recorded_grams(*args):
        grams.append(eigen_grams(*args))
        return grams[-1]

    def recorded_mass(M):  # the mass form on W, once per k
        masses.append(M)
        return gram_min_sv(M)

    monkeypatch.setattr(trialspace, "_eigen_grams", recorded_grams)
    monkeypatch.setattr(trialspace, "_normalized_gram_min_sv", recorded_mass)
    certs = certified_chain_bound(sysd)
    assert len(grams) == 1 and len(masses) == len(certs) == 8
    S_uu = grams[0][1]
    for k, (cert, M) in enumerate(zip(certs, masses), start=1):
        S_ref, M_ref = _grid_reference_forms(sysd, k, cert.omega)
        assert np.abs(M - M_ref).max() <= 1e-12 * np.abs(M_ref).max()
        ref_uu = S_ref[:k, :k]
        assert np.abs(S_uu[:k, :k] - ref_uu).max() <= 1e-12 * np.abs(ref_uu).max()
        for block in (np.s_[:k, k:], np.s_[k:, k:]):
            residual = S_ref[block] - cert.lambda_hat * M_ref[block]
            assert np.abs(residual).max() <= 1e-13 * np.abs(S_ref[block]).max()
        w = pencil_eigenvalues(S_ref, M_ref)
        assert abs(cert.max_rayleigh - w[-1]) <= 1e-12 * abs(w[-1])
        d = np.sqrt(np.real(np.diag(M_ref)))
        ref_sv = np.linalg.svd(M_ref / np.outer(d, d), compute_uv=False)[-1]
        assert abs(cert.gram_min_sv - ref_sv) <= 1e-12


def test_chain_certificate_contents():
    for m, count, n in ((1, 3, 10), (2, 2, 10)):
        sysd = solve_2d_eigensystem(m, "dirichlet", n, SQUARE, count=count)
        certs = certified_chain_bound(sysd)
        assert len(certs) == count
        for cert, lam in zip(certs, sysd.spectrum.values):
            assert cert.lambda_hat == lam
            assert cert.gram_min_sv > 1e-8
            assert cert.max_rayleigh <= lam * (1.0 + 1e-8)


def test_chain_certificate_preconditions():
    sysn = solve_2d_eigensystem(2, BC_NEUMANN, 8, SQUARE, count=4)
    with pytest.raises(InvalidArgumentError):
        certified_chain_bound(sysn)


def test_chain_gram_degeneracy_detected():
    # duplicating an eigenvector in the basis must trip the conditioning gate
    sysd = solve_2d_eigensystem(1, "dirichlet", 8, SQUARE, count=2)
    V = sysd.vectors.copy()
    V[:, 1] = V[:, 0]
    broken = type(sysd)(spectrum=sysd.spectrum, vectors=V)
    with pytest.raises(GramDegeneracyError):
        certified_chain_bound(broken)


def test_normalized_gram_min_sv_known():
    # normalizing diag(3, 0.25) gives the identity; [[4, 2], [2, 4]] gives
    # [[1, 0.5], [0.5, 1]] with singular values 1.5 and 0.5; a basis function
    # with no mass gives 0
    assert abs(trialspace._normalized_gram_min_sv(np.diag([3.0, 0.25])) - 1.0) < 1e-14
    M = np.array([[4.0, 2.0], [2.0, 4.0]])
    assert abs(trialspace._normalized_gram_min_sv(M) - 0.5) < 1e-14
    assert trialspace._normalized_gram_min_sv(np.diag([1.0, 0.0])) == 0.0
    # a complex Hermitian Gram with singular values 3 and 1 normalizes to
    # [[1, 0.5i], [-0.5i, 1]], with singular values 1.5 and 0.5
    M = np.array([[2.0, 1j], [-1j, 2.0]])
    assert abs(trialspace._normalized_gram_min_sv(M) - 0.5) < 1e-14
    # a singular Gram gives a singular value near 0, never a negative eigenvalue
    assert 0.0 <= trialspace._normalized_gram_min_sv(np.ones((2, 2))) <= 1e-15


def test_chain_certificate_hands_linalg_real_arrays(monkeypatch):
    # the certificate assembles its forms in complex arithmetic but passes
    # LAPACK only their real embeddings, so every call runs a real kernel
    systems = [solve_2d_eigensystem(m, "dirichlet", n, Domain.rectangle(1.0, ly), count=8)
               for m, n in ((1, 12), (2, 12), (3, 10)) for ly in (1.0, 0.5)]
    seen = []
    for name in ("cholesky", "solve", "eigh", "eigvalsh", "svd"):
        kernel = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _kernel=kernel, **kwargs):
            seen.append((_name, np.iscomplexobj(a)))
            return _kernel(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    for sysd in systems:
        certified_chain_bound(sysd)
    assert not [call for call in seen if call[1]]
    assert {name for name, _ in seen} == {"cholesky", "solve", "eigvalsh"}
