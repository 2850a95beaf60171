import numpy as np
import numpy.testing as npt
import pytest

from phlab.linalg import gauss_legendre, hermitian_eig, legendre_derivatives, mass_whitener
from phlab.model import CapabilityError, InvalidArgumentError, NumericalError


def test_gauss_legendre_weights_sum():
    for n in (1, 2, 5, 16, 40, 64):
        t, w = gauss_legendre(n)
        assert t.shape == w.shape == (n,)
        assert np.all(np.diff(t) > 0)
        assert abs(np.sum(w) - 2.0) < 1e-13


def test_gauss_legendre_polynomial_exactness():
    # an n-point rule integrates monomials up to degree 2n-1 exactly
    for n in (3, 7, 12):
        t, w = gauss_legendre(n)
        for p in range(2 * n):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert abs(np.dot(w, t ** p) - exact) < 1e-13


def test_gauss_legendre_capability_bounds():
    with pytest.raises(CapabilityError):
        gauss_legendre(0)
    with pytest.raises(CapabilityError):
        gauss_legendre(257)


def test_legendre_recurrence_values():
    t = np.array([-1.0, -0.3, 0.0, 0.7, 1.0])
    table = legendre_derivatives(5, t, 2)
    npt.assert_allclose(table[0, 0], 1.0)
    npt.assert_allclose(table[0, 1], t)
    npt.assert_allclose(table[0, 2], 0.5 * (3 * t ** 2 - 1), atol=1e-15)
    npt.assert_allclose(table[1, 2], 3 * t, atol=1e-15)
    npt.assert_allclose(table[2, 4], 7.5 * (7 * t ** 2 - 1), rtol=1e-14)


def test_legendre_endpoint_value():
    # P_i(1) = 1 and P_i'(1) = i(i+1)/2 for every order
    table = legendre_derivatives(10, np.array([1.0]), 1)
    for i in (0, 1, 4, 9):
        vals = table[:, i, 0]
        assert abs(vals[0] - 1.0) < 1e-14
        assert abs(vals[1] - i * (i + 1) / 2.0) < 1e-11 * max(1.0, i * (i + 1) / 2.0)


def test_mass_whitener_rejects_indefinite():
    with pytest.raises(NumericalError, match="not positive definite"):
        mass_whitener(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_eigensolve_failure_is_numerical_error(monkeypatch):
    def no_convergence(C):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericalError, match="eigensolve failed"):
        hermitian_eig(np.eye(2))


def test_values_eigensolve_failure_is_numerical_error(monkeypatch):
    def no_convergence(C):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NumericalError, match="eigensolve failed"):
        hermitian_eig(np.eye(2), vectors=False)


def test_mass_whitener_hand_case():
    T = mass_whitener(np.diag([2.0, 1.0]))
    npt.assert_allclose(T, np.diag([2.0 ** -0.5, 1.0]), rtol=1e-15)


def test_mass_whitener_random_hpd():
    # T B T^H = I on seeded real SPD masses up to n=200 and on a complex HPD
    # one, whose whitener must stay complex; the whitened pencil keeps the
    # eigenvalues of A v = w B v
    rng = np.random.default_rng(42)
    for n, cplx in ((5, False), (40, False), (200, False), (24, True)):
        X, Y = (rng.standard_normal((n, n))
                + (1j * rng.standard_normal((n, n)) if cplx else 0.0) for _ in range(2))
        A, B = X + X.conj().T, Y @ Y.conj().T + n * np.eye(n)
        T = mass_whitener(B)
        assert T.dtype == B.dtype
        npt.assert_allclose(T @ B @ T.conj().T, np.eye(n), atol=1e-10)
        w, Y = hermitian_eig(T @ A @ T.conj().T)
        V = T.conj().T @ Y
        assert w.dtype == float
        res = np.abs(A @ V - B @ V @ np.diag(w)).max() / np.abs(A).max()
        assert res < 1e-10


def test_whitened_pencil_congruence_invariance():
    # a congruence by a positive diagonal leaves pencil eigenvalues unchanged;
    # the whitener's diagonal rescale absorbs it
    rng = np.random.default_rng(3)
    n = 30
    X = rng.standard_normal((n, n))
    A = X + X.T
    Y = rng.standard_normal((n, n))
    B = Y @ Y.T + n * np.eye(n)

    def pencil_eigenvalues(A, B):
        T = mass_whitener(B)
        return hermitian_eig(T @ A @ T.T)[0]

    w0 = pencil_eigenvalues(A, B)
    D = np.diag(np.exp(rng.uniform(-6, 6, size=n)))
    w1 = pencil_eigenvalues(D @ A @ D, D @ B @ D)
    npt.assert_allclose(w1, w0, rtol=1e-9, atol=1e-11)
