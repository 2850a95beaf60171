"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Each test pins its tolerances as literals and derives its reference values
either in closed form or from an oracle computed independently of the
package (plain bisection, explicit enumeration, hand integration).
"""

import json
from math import cos, cosh, pi, sqrt

import numpy as np
import numpy.testing as npt

from phlab import cli
from phlab.galerkin import shape_table, solve_2d_eigensystem, solve_2d_spectrum
from phlab.harness import (gradient_energy, h0_sample_coeffs, laplacian_power_energy,
                           oned_counterexample, square_laplacian_eigs)
from phlab.model import BC_DIRICHLET, BC_NEUMANN, Domain
from phlab.oned import positive_roots, solve_1d_spectrum
from phlab.trialspace import (certified_chain_bound, roots_of_unity, vandermonde_check,
                              wave_identity_residuals)

SQUARE = Domain.rectangle(1.0, 1.0)


def _beam_beta_oracle(count):
    """Roots of cos(b) cosh(b) = 1 by plain bisection, nothing shared with
    the package solver."""
    roots = []
    for j in range(1, count + 1):
        lo, hi = (2 * j + 1) * pi / 2 - 0.6, (2 * j + 1) * pi / 2 + 0.6
        f = lambda b: cos(b) * cosh(b) - 1.0
        assert f(lo) * f(hi) < 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        roots.append(0.5 * (lo + hi))
    return np.asarray(roots)


def test_01_interval_laplacian_exactness():
    k = np.arange(1, 11)
    lam = solve_1d_spectrum(1, BC_DIRICHLET, 10)
    npt.assert_allclose(lam.values, (k * pi) ** 2, rtol=1e-10)

    mu = solve_1d_spectrum(1, BC_NEUMANN, 10)
    expect = np.concatenate([[0.0], (np.arange(1, 10) * pi) ** 2])
    assert mu.values[0] == 0.0
    npt.assert_allclose(mu.values[1:], expect[1:], rtol=1e-10)

    # shifted equality: the free eigenvalue one rank up equals the clamped one
    for kk in range(1, 10):
        assert abs(mu.value(kk + 1) - lam.value(kk)) <= 1e-8 * lam.value(kk)


def test_02_interval_beam_and_higher_order_roots():
    beta = _beam_beta_oracle(8)
    lam = positive_roots(2, BC_DIRICHLET, 8)
    assert abs(lam[0] - beta[0] ** 4) <= 1e-9 * beta[0] ** 4
    npt.assert_allclose(lam, beta ** 4, rtol=1e-9)

    mu = positive_roots(2, BC_NEUMANN, 8)
    npt.assert_allclose(mu, lam, rtol=1e-8)

    lam3 = positive_roots(3, BC_DIRICHLET, 5)
    mu3 = positive_roots(3, BC_NEUMANN, 5)
    npt.assert_allclose(mu3, lam3, rtol=1e-8)


def test_03_square_laplacian_reference():
    exact_d = square_laplacian_eigs(BC_DIRICHLET, 10)
    exact_n = square_laplacian_eigs(BC_NEUMANN, 10)
    lam = solve_2d_spectrum(1, BC_DIRICHLET, 16, SQUARE, count=10)
    mu = solve_2d_spectrum(1, BC_NEUMANN, 16, SQUARE, count=10)
    npt.assert_allclose(lam.values, exact_d, rtol=1e-3)
    npt.assert_allclose(mu.values, exact_n, rtol=1e-3, atol=1e-8)

    for k in range(1, 10):
        gap = lam.value(k) - mu.value(k + 1)
        assert gap >= 0.5 * pi ** 2


def test_04_square_plate_zero_modes_and_strict_gap():
    specs = {n: solve_2d_spectrum(2, BC_NEUMANN, n, SQUARE, count=12)
             for n in (12, 16, 20)}
    for n, s in specs.items():
        assert int(np.sum(np.asarray(s.values) == 0.0)) == 3
    # refinement can only lower each eigenvalue; 1e-8 relative headroom
    # covers the dense-solver roundoff floor at these matrix sizes
    for n_lo, n_hi in ((12, 16), (16, 20)):
        assert np.all(np.asarray(specs[n_hi].values)
                      <= np.asarray(specs[n_lo].values) * (1.0 + 1e-8))

    lam16 = solve_2d_spectrum(2, BC_DIRICHLET, 16, SQUARE, count=8)
    lam20 = solve_2d_spectrum(2, BC_DIRICHLET, 20, SQUARE, count=8)
    mu20 = specs[20]
    for k in range(1, 9):
        conv_diff = abs(lam16.value(k) - lam20.value(k))
        gap = lam20.value(k) - mu20.value(k + 2)
        assert gap > 5.0 * conv_diff
        assert gap > 0.0


def test_05_wave_identities_pointwise():
    rng = np.random.default_rng(515)
    for m in (1, 2, 3):
        theta, r = rng.uniform(0.0, 2 * pi), rng.uniform(2.0, 9.0)
        omega = np.array([r * np.cos(theta), r * np.sin(theta)])
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pts = rng.uniform(-1.0, 1.0, size=(100, 2))
        pde, grad = wave_identity_residuals(m, omega, alpha, pts)
        assert pde <= 1e-12
        assert grad <= 1e-12


def test_06_certified_chain_bound_on_square_plate():
    sysd = solve_2d_eigensystem(2, BC_DIRICHLET, 16, SQUARE, count=5)
    for k in range(1, 6):
        lam = sysd.spectrum.value(k)
        cert = certified_chain_bound(k, sysd)
        npt.assert_allclose(np.hypot(*cert.omega) ** 4, lam, rtol=1e-12)
        assert cert.max_rayleigh <= lam * (1.0 + 1e-8)
        assert cert.gram_min_sv > 1e-8


def test_07_vandermonde_independence():
    for m in range(1, 13):
        assert vandermonde_check(roots_of_unity(m)) > 0.0
    assert abs(vandermonde_check(roots_of_unity(2)) - 2.0) <= 1e-12
    assert abs(vandermonde_check(roots_of_unity(4)) - 16.0) <= 1e-12


def test_08_gradient_energy_interpolation_suite():
    # hand case first: u = (1-x^2)(1-y^2) = outer(c, c) over Legendre P_0..P_2
    F, _ = shape_table(BC_NEUMANN, 2, 3, 6)
    c = np.array([2.0, 0.0, -2.0]) / 3.0
    A = np.outer(c, c)
    assert abs(gradient_energy(A, F, 0) - 256.0 / 225.0) <= 1e-12 * (256.0 / 225.0)
    assert abs(gradient_energy(A, F, 1) - 256.0 / 45.0) <= 1e-12 * (256.0 / 45.0)
    assert abs(gradient_energy(A, F, 2) - 1408.0 / 45.0) <= 1e-12 * (1408.0 / 45.0)

    for m in (1, 2):
        F, _ = shape_table(BC_DIRICHLET, m + 1, 3, 2 * m + 5)
        for A in h0_sample_coeffs(50, seed=1729):
            mid = gradient_energy(A, F, m)
            bound = sqrt(gradient_energy(A, F, m + 1) * gradient_energy(A, F, m - 1))
            assert mid <= bound * (1.0 + 1e-12)
            assert abs(laplacian_power_energy(A, F, m) - mid) <= 1e-11 * mid


def test_09_eigenvalue_root_monotonicity_in_order():
    roots = {}
    for m in (1, 2, 3):
        spec = solve_2d_spectrum(m, BC_DIRICHLET, 16, SQUARE, count=5)
        roots[m] = np.asarray(spec.values) ** (1.0 / m)
    for m in (1, 2):
        assert np.all(roots[m + 1] >= roots[m] * (1.0 - 0.01))


def test_10_convex_square_certificate():
    mu2 = solve_2d_spectrum(2, BC_NEUMANN, 20, SQUARE, count=10)
    mu1_exact = square_laplacian_eigs(BC_NEUMANN, 10)
    # the computed side is an upper bound, so <= certifies the true statement
    for k in range(1, 11):
        assert mu2.value(k) <= mu1_exact[k - 1] ** 2


def test_11_interval_equality_witness():
    for k in (1, 2, 3):
        rep = oned_counterexample(k)
        trace, membership = rep.details
        assert abs(trace.lhs) <= 1e-14
        assert abs(membership.lhs) <= 1e-14
        assert rep.passed


def test_12_cli_determinism_and_exit_codes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["all", "--stable-output", "--out", str(p1)]) == 0
    assert cli.main(["all", "--stable-output", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    doc = json.loads(p1.read_text())
    assert doc["passed"] is True and "runtime_ms" not in doc

    assert cli.main(["all", "--bogus-flag"]) == 2
    assert cli.main(["verify", "remark12", "--m", "1", "--count", "4",
                     "--perturb", "1e-6", "--out", str(tmp_path / "c.json")]) == 1
    capsys.readouterr()
