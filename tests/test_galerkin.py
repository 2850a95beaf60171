from math import comb

import numpy as np
import numpy.testing as npt
import pytest

from phlab import galerkin
from phlab.galerkin import (_solved_blocks, shape_derivatives, shape_table, solve_2d_eigensystem,
                            solve_2d_spectrum, trusted_capacity)
from phlab.harness import square_laplacian_eigs
from phlab.model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, Domain,
                         InvalidArgumentError, n_poly_dim)

SQUARE = Domain.rectangle(1.0, 1.0)


def pencil_eigenvalues(A, B):
    """Ascending eigenvalues of A v = w B v for Hermitian A and B = L L^H > 0."""
    L = np.linalg.cholesky(B)
    return np.linalg.eigvalsh(np.linalg.solve(L, np.linalg.solve(L, A).conj().T))


def full_pencil(m, bc, n, domain):
    """The whole n^2 x n^2 Kronecker pencil, flat index i1 * n + i2, off-block
    entries included: the reference the parity blocks are checked against."""
    _, G = shape_table(bc, m, n, n + 2 * m + 2)
    sx, sy = 2.0 / domain.lx, 2.0 / domain.ly
    jac = 0.25 * domain.lx * domain.ly
    A = jac * sum(comb(m, a) * sx ** (2 * a) * sy ** (2 * (m - a))
                  * np.kron(G[a], G[m - a]) for a in range(m + 1))
    B = jac * np.kron(G[0], G[0])
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def test_clamped_shapes_vanish_to_order_m():
    # family order 4 serves the interpolation samples of H^4_0 at m=3
    t = np.array([-1.0, 1.0])
    for m in (1, 2, 3, 4):
        tab = shape_derivatives(BC_DIRICHLET, m, 5, t, m)
        # all derivatives below order m are zero at both endpoints
        assert np.abs(tab[:m]).max() < 1e-12
        # the order-m derivative is not identically zero there
        assert np.abs(tab[m]).max() > 1e-8


def test_neumann_mass_gram_is_legendre_diagonal():
    _, G = shape_table(BC_NEUMANN, 1, 6, 10)
    i = np.arange(6)
    npt.assert_allclose(G[0], np.diag(2.0 / (2 * i + 1)), atol=1e-14)


def test_clamped_mass_gram_hand_value():
    # first clamped shape at m=1 is (1-t^2); its squared L2 norm is 16/15
    _, G = shape_table(BC_DIRICHLET, 1, 3, 7)
    npt.assert_allclose(G[0, 0, 0], 16.0 / 15.0, rtol=1e-14)



def test_shape_table_grams_are_exactly_symmetric():
    # the rectangle solver and the chain certificate take the Grams as
    # symmetric with no runtime check: the einsum forms G[a, i, j] and
    # G[a, j, i] from the same products in the same order.  Covers both
    # families, orders 1..4 and n = 1..50, at the solver's rule and at a
    # finer one
    for bc in (BC_DIRICHLET, BC_NEUMANN):
        for m in (1, 2, 3, 4):
            for n in range(1, 51):
                for nq in (n + 2 * m + 2, min(256, n + 40)):
                    _, G = shape_table(bc, m, n, nq)
                    assert np.array_equal(G, G.transpose(0, 2, 1)), (bc, m, n, nq)

def test_pencil_shapes_and_definiteness():
    for m, bc in ((1, BC_DIRICHLET), (2, BC_NEUMANN)):
        blocks = _solved_blocks(m, bc, 6, SQUARE, 1, True)
        assert len(blocks) == 4
        npt.assert_array_equal(np.sort(np.concatenate([b.index for b in blocks])),
                               np.arange(36))
        kernel = 0
        for blk in blocks:
            assert blk.back_x.shape == blk.back_y.shape == (3, 3)
            assert blk.w.shape == (9,) and blk.Y.shape == (9, 9)
            if bc == BC_DIRICHLET:
                assert blk.w.min() > 0.0
            else:
                # PSD; the kernels of the blocks add up to the polynomial dimension
                assert blk.w.min() > -1e-8 * blk.w.max()
                kernel += np.sum(np.abs(blk.w) < 1e-8 * blk.w.max())
        if bc == BC_NEUMANN:
            assert kernel == n_poly_dim(2, m)


def test_parity_blocks_match_full_pencil():
    n = 8
    cap = trusted_capacity(n)
    for dom in (SQUARE, Domain.rectangle(1.0, 0.7)):
        for m in (1, 2, 3):
            for bc in (BC_DIRICHLET, BC_NEUMANN):
                A, B = full_pencil(m, bc, n, dom)
                # the back-transform of each block takes the full stiffness on
                # its index set to a matrix the block's eigenpairs solve (to the
                # rounding of the check's own products, measured 2.5e-12); what
                # the blocks drop is quadrature rounding of entries that vanish
                # exactly
                kept = np.zeros_like(A, dtype=bool)
                for blk in _solved_blocks(m, bc, n, dom, 1, True):
                    ix = np.ix_(blk.index, blk.index)
                    W = np.kron(blk.back_x, blk.back_y)
                    npt.assert_allclose(W.T @ A[ix] @ W @ blk.Y, blk.Y * blk.w,
                                        atol=1e-10 * np.abs(blk.w).max())
                    kept[ix] = True
                assert np.abs(A[~kept]).max() < 1e-13 * np.abs(A).max()
                assert np.abs(B[~kept]).max() < 1e-13 * np.abs(B).max()

                sys = solve_2d_eigensystem(m, bc, n, dom, count=cap)
                # the values are an immutable tuple; the vectors are the caller's own array
                assert isinstance(sys.spectrum.values, tuple)
                assert sys.vectors.flags.writeable
                # a smaller count returns the leading pairs of the same solve
                small = solve_2d_eigensystem(m, bc, n, dom, count=5)
                npt.assert_array_equal(small.spectrum.values, sys.spectrum.values[:5])
                npt.assert_array_equal(small.vectors, sys.vectors[:, :5])
                w_full = pencil_eigenvalues(A, B)
                ref = sys.spectrum.values[n_poly_dim(2, m) if bc == BC_NEUMANN else 0]
                npt.assert_allclose(sys.spectrum.values, w_full[:cap], rtol=1e-9, atol=1e-9 * ref)
                # the back-transformed vectors are B-orthonormal against the
                # full mass: to 1e-12 over the first 20, to 1e-10 over the
                # trusted range
                V = sys.vectors
                npt.assert_allclose(V[:, :20].T @ B @ V[:, :20], np.eye(20), atol=1e-12)
                npt.assert_allclose(V.T @ B @ V, np.eye(cap), atol=1e-10)


def test_block_matrix_is_the_kronecker_sum_of_whitened_grams():
    # reference: the Python sum of C(m,a) kron(R^x_a, R^y_(m-a)) of each block,
    # against Y diag(w) Y^T of its eigenpairs: to the rounding of m + 1
    # products summed in another order plus the eigensolve's backward error
    # (measured at most 12.8 eps max|C|)
    n, dom = 9, Domain.rectangle(1.0, 0.6)
    for m in (1, 2, 3):
        for bc in (BC_DIRICHLET, BC_NEUMANN):
            F, G = shape_table(bc, m, n, n + 2 * m + 2)
            parity = [np.arange(p, n, 2) for p in (0, 1)]
            for (px, py), blk in zip(galerkin.PARITY_BLOCKS,
                                     _solved_blocks(m, bc, n, dom, 1, True)):
                Rx, _ = galerkin._reduced_axis(G[0], F, parity[px], 2.0 / dom.lx)
                Ry, _ = galerkin._reduced_axis(G[0], F, parity[py], 2.0 / dom.ly)
                ref = sum(comb(m, a) * np.kron(Rx[a], Ry[m - a]) for a in range(m + 1))
                npt.assert_allclose((blk.Y * blk.w) @ blk.Y.T, ref, rtol=0,
                                    atol=64 * np.finfo(float).eps * np.abs(ref).max())


@pytest.mark.parametrize("ly", [1.0, 0.7])
@pytest.mark.parametrize("n", [6, 10, 16])
@pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
def test_m1_kronecker_sum_solve_matches_dense_pencil(bc, n, ly):
    # at m=1 each block is solved as a Kronecker sum of two 1d eigensolves;
    # the reference is the dense generalized solve of the whole pencil (the
    # worst relative gaps measured: values 2.2e-13, per-column residual
    # 1.5e-13, mass-orthonormality defect 3.0e-14)
    dom = Domain.rectangle(1.0, ly)
    A, B = full_pencil(1, bc, n, dom)
    cap = trusted_capacity(n)
    z = n_poly_dim(2, 1) if bc == BC_NEUMANN else 0
    ref = pencil_eigenvalues(A, B)[:cap]
    spec = solve_2d_spectrum(1, bc, n, dom, count=cap)
    values = np.asarray(spec.values)
    npt.assert_allclose(values[z:], ref[z:], rtol=1e-12, atol=0)
    # swapping the sides swaps the two 1d solves, and mu_i + nu_j == nu_j + mu_i
    assert solve_2d_spectrum(1, bc, n, Domain.rectangle(ly, 1.0), count=cap).values == spec.values
    sys = solve_2d_eigensystem(1, bc, n, dom, count=cap)
    V, w = sys.vectors, np.asarray(sys.spectrum.values)
    npt.assert_allclose(V.T @ B @ V, np.eye(cap), rtol=0, atol=1e-12)
    BV = B @ V
    residual = np.abs(A @ V - BV * w).max(axis=0)
    # the zero mode is held to the first positive value
    assert np.all(residual <= 1e-12 * np.maximum(w, w[z]) * np.abs(BV).max(axis=0))


@pytest.mark.parametrize("n", [16, 36])
@pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
def test_m1_square_degenerate_pair_is_exact(bc, n):
    # the square's first pair, lambda_2 = lambda_3 clamped and mu_2 = mu_3
    # free, is mu_0 + mu_1 in one block and mu_1 + mu_0 in its transpose, the
    # same two 1d values summed in either order: equal bit for bit
    v = solve_2d_spectrum(1, bc, n, SQUARE, count=3).values
    pairs = solve_2d_eigensystem(1, bc, n, SQUARE, count=3).spectrum.values
    assert v[1] == v[2] and pairs[1] == pairs[2]


def test_oversized_pencil_refused_before_assembly(monkeypatch):
    # the cap is n^2 <= 2500: n=51 is refused up front, n=50 reaches assembly
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly started")

    monkeypatch.setattr(galerkin, "shape_table", no_assembly)
    with pytest.raises(CapabilityError, match="pencil dimension 2601 exceeds the supported cap 2500"):
        solve_2d_eigensystem(1, BC_DIRICHLET, 51, SQUARE, count=1)
    with pytest.raises(AssertionError, match="assembly started"):
        solve_2d_eigensystem(1, BC_DIRICHLET, 50, SQUARE, count=1)


def test_spectrum_solve_forms_no_eigenvector(monkeypatch):
    # solve_2d_spectrum runs one values-only solve per block and no eigh, and
    # each block comes back as its values alone
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def no_vectors(C):
        raise AssertionError("eigenvector solve")

    def counted(C):
        solved.append(C.shape)
        return eigvalsh(C)

    monkeypatch.setattr(np.linalg, "eigh", no_vectors)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    dom = Domain.rectangle(1.0, 0.7)
    spec = solve_2d_spectrum(2, BC_NEUMANN, 10, dom, count=12)
    assert solved == [(25, 25)] * 4
    assert len(spec.values) == 12
    blocks = galerkin._solved_blocks(2, BC_NEUMANN, 10, dom, 12, False)
    assert [w.shape for w in blocks] == [(25,)] * 4
    with pytest.raises(AssertionError, match="eigenvector solve"):
        solve_2d_eigensystem(2, BC_NEUMANN, 10, dom, count=12)


def test_spectrum_values_match_eigensystem():
    # the two paths solve the same block matrices with eigvalsh and eigh, each
    # backward stable, so their values differ by a small multiple of
    # eps ||C|| = eps max|w| (measured at most 3.3 eps max|w|); relative to a
    # value lambda that is eps ||C|| / lambda, 1.9e-9 at m=3 free on 1 x 0.7
    eps = np.finfo(float).eps
    for dom in (SQUARE, Domain.rectangle(1.0, 0.7)):
        for m in (1, 2, 3):
            for bc in (BC_DIRICHLET, BC_NEUMANN):
                for n in (6, 10, 14, 16):
                    cap = trusted_capacity(n)
                    values = solve_2d_spectrum(m, bc, n, dom, count=cap)
                    pairs = solve_2d_eigensystem(m, bc, n, dom, count=cap).spectrum
                    assert values.values.count(0.0) == pairs.values.count(0.0)
                    w_max = max(np.abs(w).max() for w in _solved_blocks(m, bc, n, dom, 1, False))
                    npt.assert_allclose(values.values, pairs.values, rtol=0,
                                        atol=16 * eps * w_max, err_msg=str((dom, m, bc, n)))


def test_operator_order_4_refused():
    # the shape tables reach family order 4, the operator does not
    with pytest.raises(CapabilityError, match="supported orders are 1..3"):
        solve_2d_spectrum(4, BC_DIRICHLET, 8, SQUARE, count=3)
    with pytest.raises(CapabilityError, match="supported orders are 1..3"):
        solve_2d_spectrum(4, BC_NEUMANN, 8, SQUARE, count=3)


def test_min_basis_size_enforced():
    with pytest.raises(InvalidArgumentError, match="need n >= m \\+ 1 = 4"):
        solve_2d_spectrum(3, BC_DIRICHLET, 3, SQUARE, count=1)


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


def test_square_degenerate_pair_split_is_rounding():
    # lambda_2 = lambda_3 of the clamped square fall in the (even, odd) and
    # (odd, even) blocks, which are transposes of each other
    for m, n in ((1, 16), (2, 24), (3, 24)):
        v = solve_2d_spectrum(m, BC_DIRICHLET, n, SQUARE, count=3).values
        assert abs(v[1] - v[2]) <= 1e-11 * v[1]


def test_free_zero_mode_counts():
    for m in (1, 2, 3):
        spec = solve_2d_spectrum(m, BC_NEUMANN, 12, SQUARE, count=n_poly_dim(2, m) + 2)
        zeros = n_poly_dim(spec.domain.dimension, spec.m)
        assert np.sum(np.asarray(spec.values) == 0.0) == zeros
        assert spec.values[zeros] > 0.0


def test_domain_scaling_quarters_eigenvalues():
    unit = solve_2d_spectrum(1, BC_DIRICHLET, 10, SQUARE, count=5)
    big = solve_2d_spectrum(1, BC_DIRICHLET, 10, Domain.rectangle(2.0, 2.0), count=5)
    npt.assert_allclose(big.values, np.asarray(unit.values) / 4.0, rtol=1e-10)


def test_anisotropic_rectangle_ground_state():
    spec = solve_2d_spectrum(1, BC_DIRICHLET, 12, Domain.rectangle(1.0, 2.0), count=1)
    npt.assert_allclose(spec.values[0], np.pi ** 2 * 1.25, rtol=1e-8)


def test_eigensystem_residual_and_mass_orthonormality():
    sys = solve_2d_eigensystem(2, BC_DIRICHLET, 8, SQUARE, count=6)
    A, B = full_pencil(2, BC_DIRICHLET, 8, SQUARE)
    V = sys.vectors
    w = sys.spectrum.values
    res = np.abs(A @ V - B @ V @ np.diag(w)).max() / np.abs(A).max()
    assert res < 1e-10
    npt.assert_allclose(V.T @ B @ V, np.eye(V.shape[1]), atol=1e-10)


def test_subspace_inclusion_gives_ordered_spectra():
    # clamped shapes at size n are polynomials the free basis of size n + 2m
    # contains, so each raw discrete free eigenvalue is bounded by the
    # clamped one of the same rank, accuracy aside
    for m, n in ((1, 8), (2, 8)):
        lam = pencil_eigenvalues(*full_pencil(m, BC_DIRICHLET, n, SQUARE))
        mu = pencil_eigenvalues(*full_pencil(m, BC_NEUMANN, n + 2 * m, SQUARE))
        assert np.all(mu[: lam.size] <= lam * (1.0 + 1e-9) + 1e-9)


def clamped_rise(m, n_list, count):
    """Largest rise of any of the first count clamped values from one grid to the next."""
    values = np.vstack([solve_2d_spectrum(m, BC_DIRICHLET, n, SQUARE, count).values
                        for n in n_list])
    return np.diff(values, axis=0).max()


def test_per_k_values_nonincreasing_in_n():
    # nested conforming spaces make each lambda_hat_k nonincreasing in n; the
    # 1e-8 slack covers rounding on these grids, which include those the
    # root-monotonicity claim of the suite solves on
    for m, n_list, count in ((1, (8, 10, 12), 6), (1, (12, 16), 8), (2, (12, 16), 8),
                             (3, (10, 14), 8)):
        assert clamped_rise(m, n_list, count) <= 1e-8, (m, n_list)
