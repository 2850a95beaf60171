from math import comb

import numpy as np
import numpy.testing as npt
import pytest

from phlab import galerkin, trialspace
from phlab.galerkin import shape_derivatives, solve_2d_eigensystem
from phlab.linalg import force_hermitian, gauss_legendre, min_singular_value, solve_gen_eig
from phlab.model import (BC_NEUMANN, CapabilityError, Domain, GramDegeneracyError,
                         InvalidArgumentError)
from phlab.trialspace import (TrialSpace, certified_chain_bound, mth_gradient_square,
                              roots_of_unity, trial_eval, vandermonde_check,
                              verify_mth_gradient_identity, verify_pde_identity)

SQUARE = Domain.rectangle(1.0, 1.0)


def _random_space(m, rng, scale=5.0):
    theta = rng.uniform(0.0, 2 * np.pi)
    r = rng.uniform(1.0, scale)
    alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return TrialSpace(m=m, omega=np.array([r * np.cos(theta), r * np.sin(theta)]),
                      alpha=alpha)


def test_roots_of_unity_basic():
    for m in (1, 2, 3, 7):
        xi = roots_of_unity(m)
        npt.assert_allclose(xi ** m, np.ones(m), atol=1e-14)
        assert len({complex(round(z.real, 9), round(z.imag, 9)) for z in xi}) == m


def test_vandermonde_hand_values():
    assert abs(vandermonde_check(roots_of_unity(1)) - 1.0) < 1e-15
    assert abs(vandermonde_check(roots_of_unity(2)) - 2.0) < 1e-14
    assert abs(vandermonde_check(roots_of_unity(4)) - 16.0) < 1e-12


def test_trial_space_validation():
    with pytest.raises(InvalidArgumentError):
        TrialSpace(m=1, omega=np.array([0.0, 0.0]), alpha=np.array([1.0 + 0j]))
    with pytest.raises(InvalidArgumentError):
        TrialSpace(m=2, omega=np.array([1.0, 0.0]), alpha=np.array([1.0 + 0j]))
    with pytest.raises(CapabilityError):
        TrialSpace(m=4, omega=np.array([1.0, 0.0]), alpha=np.ones(4, dtype=complex))


def test_eigen_equation_identity_seeded():
    rng = np.random.default_rng(2024)
    for m in (1, 2, 3):
        for _ in range(5):
            ts = _random_space(m, rng)
            pts = rng.uniform(-1.0, 1.0, size=(100, 2))
            assert verify_pde_identity(ts, pts) <= 1e-12
            assert verify_mth_gradient_identity(ts, pts) <= 1e-12


def test_identity_residual_zero_for_zero_member():
    ts = TrialSpace(m=2, omega=np.array([3.0, 4.0]), alpha=np.zeros(2, dtype=complex))
    pts = np.array([[0.1, 0.2], [0.5, 0.5]])
    assert verify_pde_identity(ts, pts) == 0.0


def test_single_wave_closed_forms():
    # m=1: v = e^(i omega.x), |grad v|^2 = |omega|^2, (-Lap) v = |omega|^2 v
    ts = TrialSpace(m=1, omega=np.array([2.0, -1.0]), alpha=np.array([1.0 + 0j]))
    pts = np.array([[0.3, 0.7]])
    ev = trial_eval(ts, pts)
    level = 5.0
    npt.assert_allclose(ev.polyharmonic, level * ev.values, rtol=1e-14)
    g = mth_gradient_square(ts, pts)
    npt.assert_allclose(g, level * np.abs(ev.values) ** 2, rtol=1e-13)


def test_grouped_and_ungrouped_gradient_agree():
    rng = np.random.default_rng(99)
    for m in (1, 2, 3):
        ts = _random_space(m, rng)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        a = mth_gradient_square(ts, pts, grouped=False)
        b = mth_gradient_square(ts, pts, grouped=True)
        scale = max(float(np.abs(a).max()), 1e-300)
        assert np.abs(a - b).max() / scale < 1e-13


def test_chain_certificate_omega_hits_target_level():
    sysd = solve_2d_eigensystem(2, "dirichlet", 10, SQUARE, count=3)
    for k in (1, 2, 3):
        cert = certified_chain_bound(2, k, sysd)
        npt.assert_allclose(np.hypot(*cert.omega) ** 4, sysd.spectrum.value(k), rtol=1e-12)


def test_chain_certificate_builds_shape_factors_once_per_rule(monkeypatch):
    # two identical solves and the certificates on them evaluate the shape
    # derivatives once per distinct (bc, m, n, nq): the assembly rule once,
    # each certificate rule once
    calls = []
    build = galerkin.shape_derivatives

    def counted(bc, m, n, t, max_deriv):
        calls.append((bc, m, n, len(t)))
        return build(bc, m, n, t, max_deriv)

    monkeypatch.setattr(galerkin, "shape_derivatives", counted)
    galerkin.shape_table.cache_clear()
    galerkin._solved_blocks.cache_clear()
    for _ in range(2):
        sysd = solve_2d_eigensystem(2, "dirichlet", 12, SQUARE, count=5)
    rules = {("dirichlet", 2, 12, 12 + 2 * 2 + 2)}
    for k in range(1, 6):
        cert = certified_chain_bound(2, k, sysd)
        rules.add(("dirichlet", 2, 12,
                   trialspace._chain_quad_floor(12, np.hypot(*cert.omega), 1.0)))
    assert sorted(calls) == sorted(rules)


def _grid_reference_forms(eigsys, k, omega):
    """S and M of the chain certificate from full tensor grids of the W basis.

    Every basis function and each of its order-m mixed partials is evaluated
    on the nq x nq tensor Gauss rule and the 2d sums are taken directly.
    """
    spec = eigsys.spectrum
    m, n = spec.m, spec.method.n_per_axis
    lx, ly = spec.domain.lx, spec.domain.ly
    nq = trialspace._chain_quad_floor(n, float(np.hypot(*omega)), max(lx, ly))
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
    sysd = solve_2d_eigensystem(m, "dirichlet", n, Domain.rectangle(lx, ly), count=8)
    forms = []
    build = trialspace._chain_form

    def recorded(*args):
        forms.append(build(*args))
        return forms[-1]

    monkeypatch.setattr(trialspace, "_chain_form", recorded)
    for k in range(1, 9):
        forms.clear()
        cert = certified_chain_bound(m, k, sysd)
        M, S = forms[-2], forms[-1]  # the mass of the certified direction, then S
        S_ref, M_ref = _grid_reference_forms(sysd, k, cert.omega)
        for got, ref in ((S, S_ref), (M, M_ref)):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        w, _ = solve_gen_eig(force_hermitian(S_ref), force_hermitian(M_ref))
        assert abs(cert.max_rayleigh - w[-1]) <= 1e-12 * abs(w[-1])
        d = np.sqrt(np.real(np.diag(M_ref)))
        gram_min_sv = min_singular_value(M_ref / np.outer(d, d))
        assert abs(cert.gram_min_sv - gram_min_sv) <= 1e-12


def test_chain_certificate_contents():
    for m, k, n in ((1, 3, 10), (2, 2, 10)):
        sysd = solve_2d_eigensystem(m, "dirichlet", n, SQUARE, count=k)
        lam = sysd.spectrum.value(k)
        cert = certified_chain_bound(m, k, sysd)
        assert cert.dim_w == k + m
        assert cert.gram_min_sv > 1e-8
        assert cert.max_rayleigh <= lam * (1.0 + 1e-8)
        assert cert.bound_ok


def test_chain_certificate_preconditions():
    sysd = solve_2d_eigensystem(2, "dirichlet", 8, SQUARE, count=2)
    sysn = solve_2d_eigensystem(2, BC_NEUMANN, 8, SQUARE, count=4)
    with pytest.raises(InvalidArgumentError):
        certified_chain_bound(2, 1, sysn)
    for k in (0, 3, 9):
        with pytest.raises(InvalidArgumentError):
            certified_chain_bound(2, k, sysd)
    with pytest.raises(InvalidArgumentError):
        certified_chain_bound(1, 1, sysd)


def test_chain_gram_degeneracy_detected():
    # duplicating an eigenvector in the basis must trip the conditioning gate
    # in every direction tried
    sysd = solve_2d_eigensystem(1, "dirichlet", 8, SQUARE, count=2)
    V = sysd.vectors.copy()
    V[:, 1] = V[:, 0]
    broken = type(sysd)(spectrum=sysd.spectrum, vectors=V)
    with pytest.raises(GramDegeneracyError):
        certified_chain_bound(1, 2, broken)

