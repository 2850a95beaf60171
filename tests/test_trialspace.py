import numpy as np
import numpy.testing as npt
import pytest

from phlab import trialspace
from phlab.galerkin import solve_2d_eigensystem
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


def test_chain_certificate_builds_grids_once(monkeypatch):
    calls = []
    build = trialspace._w_basis_grids

    def counted(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(trialspace, "_w_basis_grids", counted)
    sysd = solve_2d_eigensystem(2, "dirichlet", 12, SQUARE, count=5)
    for k in range(1, 6):
        certified_chain_bound(2, k, sysd)
    assert calls == [1, 2, 3, 4, 5]


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
    broken = type(sysd)(pencil=sysd.pencil, spectrum=sysd.spectrum, vectors=V)
    with pytest.raises(GramDegeneracyError):
        certified_chain_bound(1, 2, broken)

