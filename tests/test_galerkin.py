import numpy as np
import numpy.testing as npt
import pytest

from phlab import galerkin
from phlab.galerkin import (assemble_pencil, convergence_study, derivative_grams,
                            shape_derivatives, solve_2d_eigensystem, solve_2d_spectrum,
                            trusted_capacity)
from phlab.harness import square_laplacian_eigs
from phlab.model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, Domain,
                         InvalidArgumentError, n_poly_dim)

SQUARE = Domain.rectangle(1.0, 1.0)


def test_clamped_shapes_vanish_to_order_m():
    t = np.array([-1.0, 1.0])
    for m in (1, 2, 3):
        tab = shape_derivatives(BC_DIRICHLET, m, 5, t, m)
        # all derivatives below order m are zero at both endpoints
        assert np.abs(tab[:m]).max() < 1e-12
        # the order-m derivative is not identically zero there
        assert np.abs(tab[m]).max() > 1e-8


def test_neumann_mass_gram_is_legendre_diagonal():
    G = derivative_grams(BC_NEUMANN, 1, 6, quad_nodes=12)
    i = np.arange(6)
    npt.assert_allclose(G[0, 0], np.diag(2.0 / (2 * i + 1)), atol=1e-14)


def test_clamped_mass_gram_hand_value():
    # first clamped shape at m=1 is (1-t^2); its squared L2 norm is 16/15
    G = derivative_grams(BC_DIRICHLET, 1, 3, quad_nodes=12)
    npt.assert_allclose(G[0, 0][0, 0], 16.0 / 15.0, rtol=1e-14)


def test_derivative_grams_quadrature_floor():
    with pytest.raises(InvalidArgumentError):
        derivative_grams(BC_NEUMANN, 2, 8, quad_nodes=8)


def test_pencil_shapes_and_definiteness():
    for m, bc in ((1, BC_DIRICHLET), (2, BC_NEUMANN)):
        pen = assemble_pencil(m, bc, 6, SQUARE)
        assert pen.stiffness.shape == pen.mass.shape == (36, 36)
        npt.assert_allclose(pen.stiffness, pen.stiffness.T)
        assert np.linalg.eigvalsh(pen.mass).min() > 0.0
        wA = np.linalg.eigvalsh(pen.stiffness)
        if bc == BC_DIRICHLET:
            assert wA.min() > 0.0
        else:
            # PSD with a kernel of polynomial dimension
            assert wA.min() > -1e-8 * wA.max()
            assert np.sum(np.abs(wA) < 1e-8 * wA.max()) == n_poly_dim(2, m)


def test_oversized_pencil_refused_before_assembly(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly started")

    monkeypatch.setattr(galerkin, "derivative_grams", no_assembly)
    with pytest.raises(CapabilityError, match="pencil dimension 2601 exceeds the supported cap 2500"):
        solve_2d_eigensystem(1, BC_DIRICHLET, 51, SQUARE, count=1)


def test_min_basis_size_enforced():
    with pytest.raises(InvalidArgumentError):
        assemble_pencil(3, BC_DIRICHLET, 3, SQUARE)


def test_trusted_capacity_rule():
    assert trusted_capacity(10) == 70
    assert trusted_capacity(16) == 179


def test_capacity_gate_on_requested_count():
    with pytest.raises(CapabilityError):
        solve_2d_spectrum(1, BC_DIRICHLET, 6, SQUARE, count=26)


def test_square_laplacian_converges_to_enumeration():
    exact = square_laplacian_eigs(BC_DIRICHLET, 10)
    spec = solve_2d_spectrum(1, BC_DIRICHLET, 12, SQUARE, count=10)
    npt.assert_allclose(spec.values, exact, rtol=1e-6)
    # conforming method always sits above the true values
    assert np.all(spec.values >= exact - 1e-9 * exact)


def test_square_laplacian_multiplicity_cluster():
    # 5 pi^2 is a double eigenvalue of the clamped unit square
    spec = solve_2d_spectrum(1, BC_DIRICHLET, 12, SQUARE, count=3)
    npt.assert_allclose(spec.values[1], spec.values[2], rtol=1e-9)
    npt.assert_allclose(spec.values[1], 5 * np.pi ** 2, rtol=1e-8)


def test_free_zero_mode_counts():
    for m in (1, 2, 3):
        spec = solve_2d_spectrum(m, BC_NEUMANN, 12, SQUARE, count=n_poly_dim(2, m) + 2)
        assert spec.zero_count == n_poly_dim(2, m)
        assert np.sum(spec.values == 0.0) == n_poly_dim(2, m)
        assert spec.values[spec.zero_count] > 0.0


def test_domain_scaling_quarters_eigenvalues():
    unit = solve_2d_spectrum(1, BC_DIRICHLET, 10, SQUARE, count=5)
    big = solve_2d_spectrum(1, BC_DIRICHLET, 10, Domain.rectangle(2.0, 2.0), count=5)
    npt.assert_allclose(big.values, unit.values / 4.0, rtol=1e-10)


def test_anisotropic_rectangle_ground_state():
    spec = solve_2d_spectrum(1, BC_DIRICHLET, 12, Domain.rectangle(1.0, 2.0), count=1)
    npt.assert_allclose(spec.values[0], np.pi ** 2 * 1.25, rtol=1e-8)


def test_eigensystem_residual_and_mass_orthonormality():
    sys = solve_2d_eigensystem(2, BC_DIRICHLET, 8, SQUARE, count=6)
    A, B, V = sys.pencil.stiffness, sys.pencil.mass, sys.vectors
    w = sys.spectrum.values
    res = np.abs(A @ V - B @ V @ np.diag(w)).max() / np.abs(A).max()
    assert res < 1e-10
    npt.assert_allclose(V.T @ B @ V, np.eye(V.shape[1]), atol=1e-10)


def test_subspace_inclusion_gives_ordered_spectra():
    # clamped shapes at size n are polynomials the free basis of size n + 2m
    # contains, so each raw discrete free eigenvalue is bounded by the
    # clamped one of the same rank, accuracy aside
    from phlab.linalg import solve_gen_eig

    for m, n in ((1, 8), (2, 8)):
        pd = assemble_pencil(m, BC_DIRICHLET, n, SQUARE)
        pn = assemble_pencil(m, BC_NEUMANN, n + 2 * m, SQUARE)
        lam, _ = solve_gen_eig(pd.stiffness, pd.mass)
        mu, _ = solve_gen_eig(pn.stiffness, pn.mass)
        assert np.all(mu[: lam.size] <= lam * (1.0 + 1e-9) + 1e-9)


def test_per_k_values_nonincreasing_in_n():
    tab = convergence_study(1, BC_DIRICHLET, SQUARE, [8, 10, 12], count=6)
    diffs = np.diff(tab.values, axis=0)
    assert diffs.max() <= 1e-8
    assert tab.error_estimates.shape == (6,)
    npt.assert_allclose(tab.error_estimates,
                        np.abs(tab.values[-1] - tab.values[-2]))


def test_convergence_study_rejects_bad_grid_list():
    with pytest.raises(InvalidArgumentError):
        convergence_study(1, BC_DIRICHLET, SQUARE, [12, 8], count=4)
    with pytest.raises(InvalidArgumentError):
        convergence_study(1, BC_DIRICHLET, SQUARE, [12], count=4)
