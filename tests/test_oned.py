import numpy as np
import numpy.testing as npt
import pytest

from phlab import oned
from phlab.harness import run_claim
from phlab.model import (BC_DIRICHLET, BC_NEUMANN, InvalidArgumentError,
                         ToleranceConfig, n_poly_dim, validate_config)
from phlab.oned import (boundary_matrix, characteristic_roots, det_indicator,
                        positive_roots, solution_derivatives, solve_1d_spectrum)

# first positive roots of cos(b) cosh(b) = 1, frozen from a plain bisection
BEAM_BETAS = np.array([
    4.7300407448627038, 7.8532046240958380, 10.995607838001671,
    14.137165491257463, 17.278759657399483, 20.420352245626063,
    23.561944902040452, 26.703537555508184,
])
# first five clamped eigenvalues at m=3 on (0, 1), frozen from the numpy
# implementation that scanned a grid of spacing 0.02 pi
M3_CLAMPED = [61528.90838881926, 701869.5528344786, 3937850.1368849403,
              15021649.405508067, 44854574.21545508]


def test_characteristic_roots_power_identity():
    # every root r satisfies r^(2m) = (-1)^m lam
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        for lam in rng.uniform(1.0, 1e4, size=4):
            roots = np.asarray(characteristic_roots(m, lam))
            assert roots.shape == (2 * m,)
            npt.assert_allclose(roots ** (2 * m), (-1.0) ** m * lam,
                                rtol=1e-10, atol=1e-10 * lam)
            # roots are pairwise distinct
            diffs = np.abs(roots[:, None] - roots[None, :])[~np.eye(2 * m, dtype=bool)]
            assert diffs.min() > 1e-8 * lam ** (1.0 / (2 * m))


def test_characteristic_roots_hand_case_m2():
    roots = sorted(characteristic_roots(2, 16.0), key=lambda z: (round(z.real, 9), z.imag))
    npt.assert_allclose(roots, [-2.0, 0.0 - 2.0j, 0.0 + 2.0j, 2.0], atol=1e-12)


def test_characteristic_roots_real_count_by_parity():
    # odd m: no purely real root; even m: exactly two
    for m, expect in ((1, 0), (2, 2), (3, 0)):
        roots = np.asarray(characteristic_roots(m, 123.456))
        n_real = int(np.sum(np.abs(roots.imag) < 1e-9 * np.abs(roots).max()))
        assert n_real == expect


def test_real_solution_basis_solves_ode():
    # every member satisfies u^(2m) = (-1)^m lam u at an interior point, and
    # each derivative order matches a central difference of the one below
    h = 1e-5
    for m, lam in ((1, 30.0), (2, 700.0), (3, 5e4)):
        D = np.asarray(solution_derivatives(m, lam, np.arange(2 * m + 1),
                                            [0.37 - h, 0.37, 0.37 + h]))
        assert D.shape == (2 * m + 1, 3, 2 * m)
        npt.assert_allclose(D[2 * m, 1], (-1.0) ** m * lam * D[0, 1], rtol=1e-12, atol=1e-12)
        scale = np.abs(D[:, 1]).max(axis=1, keepdims=True)
        npt.assert_allclose((D[:-1, 2] - D[:-1, 0]) / (2 * h) / scale[1:],
                            D[1:, 1] / scale[1:], atol=1e-7)


def test_boundary_matrix_laplace_dirichlet():
    lam = 7.3
    M = boundary_matrix(1, lam, BC_DIRICHLET)
    b = np.sqrt(lam)
    npt.assert_allclose(M, [[1.0, 0.0], [np.cos(b), np.sin(b)]], atol=1e-15)


def test_det_indicator_sign_change_at_root():
    lam_root = np.pi ** 2
    s_lo, _ = det_indicator(1, lam_root * 0.9, BC_DIRICHLET)
    s_hi, _ = det_indicator(1, lam_root * 1.1, BC_DIRICHLET)
    assert s_lo * s_hi == -1


def test_positive_roots_laplace_exact():
    k = np.arange(1, 11)
    lam_d = positive_roots(1, BC_DIRICHLET, 10)
    npt.assert_allclose(lam_d, (k * np.pi) ** 2, rtol=1e-11)
    lam_n = positive_roots(1, BC_NEUMANN, 10)
    npt.assert_allclose(lam_n, (k * np.pi) ** 2, rtol=1e-11)


def test_positive_roots_beam_oracle():
    lam = positive_roots(2, BC_DIRICHLET, 8)
    npt.assert_allclose(lam, BEAM_BETAS ** 4, rtol=1e-11)


def test_three_hundred_roots_coincide_and_follow_asymptote():
    # beta_k length / pi -> k + (m-1)/2, exponentially fast for m >= 2.  The
    # scan brackets each root between grid points SCAN_STEP pi / length apart,
    # so no root is lost while consecutive roots sit 3.9 steps apart or more.
    assert 0.99 >= 3.9 * oned.SCAN_STEP
    k = np.arange(1, 301)
    for length in (1.0, 1e3):
        for m in (1, 2, 3):
            lam_d = np.asarray(positive_roots(m, BC_DIRICHLET, 300, length))
            lam_n = np.asarray(positive_roots(m, BC_NEUMANN, 300, length))
            npt.assert_allclose(lam_n, lam_d, rtol=1e-9)
            for lam in (lam_d, lam_n):
                beta = lam ** (1.0 / (2 * m)) * length / np.pi
                assert np.diff(beta).min() >= 0.99
                dev = np.abs(beta - (k + 0.5 * (m - 1)))
                assert dev.max() < 1e-2
                assert dev[9:].max() < 1e-10
    npt.assert_allclose(positive_roots(3, BC_DIRICHLET, 5), M3_CLAMPED, rtol=1e-12)


def _record_evaluations(monkeypatch) -> list:
    """The beta of every determinant evaluation positive_roots makes, in order."""
    betas = []
    indicator = oned.det_indicator

    def recorded(m, lam, *args):
        betas.append(lam ** (1.0 / (2 * m)))
        return indicator(m, lam, *args)

    monkeypatch.setattr(oned, "det_indicator", recorded)
    return betas


def test_scan_stops_at_the_last_bracket(monkeypatch):
    # the grid point that closes the count-th bracket is the last one
    # evaluated: nothing past it, at most one step past the count-th root.
    # At m=3, count 2, that is grid point 13; a scan of a fixed
    # int((count + m) / SCAN_STEP) + 2 points would go on to point 22
    betas = _record_evaluations(monkeypatch)
    for length in (1.0, 1e-3):
        step = oned.SCAN_STEP * np.pi / length
        for m, bc, count in ((3, BC_DIRICHLET, 2), (3, BC_NEUMANN, 2), (1, BC_DIRICHLET, 1),
                             (2, BC_NEUMANN, 10), (2, BC_DIRICHLET, 60)):
            betas.clear()
            root = positive_roots(m, bc, count, length)[-1] ** (1.0 / (2 * m))
            assert max(betas) <= root + step * (1 + 1e-9)


@pytest.mark.parametrize("length", [1.0, 1e-3, 1e3])
def test_root_refinement_takes_few_stacked_steps(monkeypatch, length):
    # the scan ends at the grid point past the count-th root, within
    # (count + m) pi / length.  Each refinement step evaluates at most three
    # points in one bracket, and a bisection of a bracket (width one scan
    # step) halves until the lam-width meets tol_root at the first root,
    # about log2(2m step / (tol_root beta_1)) times, 40 here.  Every
    # refinement point lies in the bracket of its root, one step wide,
    # and roots sit about four steps apart, so the nearest root names it
    betas = _record_evaluations(monkeypatch)
    tol_root = ToleranceConfig().tol_root
    step = oned.SCAN_STEP * np.pi / length
    for m in (1, 2, 3):
        for bc in (BC_DIRICHLET, BC_NEUMANN):
            for count in (2, 10, 60):
                betas.clear()
                lam = positive_roots(m, bc, count, length)
                scanned = round(max(betas) / step)
                assert scanned <= int((count + m) / oned.SCAN_STEP) + 2
                beta_1 = lam[0] ** (1.0 / (2 * m))
                bisection = 1 + np.ceil(np.log2(2 * m * step / (tol_root * beta_1)))
                roots = np.asarray(lam) ** (1.0 / (2 * m))
                refined = np.asarray(betas[scanned:])
                nearest = np.abs(refined[:, None] - roots[None, :]).argmin(axis=1)
                per_bracket = np.bincount(nearest, minlength=count)
                assert per_bracket.max() <= 3 * bisection
                if length == 1.0:
                    assert per_bracket.max() <= 3 * 16


def test_roots_are_simple():
    # sign of the indicator flips across every reported root
    for m, bc in ((2, BC_DIRICHLET), (3, BC_NEUMANN)):
        roots = positive_roots(m, bc, 4)
        for lam in roots:
            lo, _ = det_indicator(m, lam * (1 - 1e-6), bc)
            hi, _ = det_indicator(m, lam * (1 + 1e-6), bc)
            assert lo * hi == -1


def test_interval_scaling_law():
    # lam(L) = lam(1) / L^(2m)
    for m in (1, 2):
        base = positive_roots(m, BC_DIRICHLET, 3, length=1.0)
        for L in (0.5, 2.0):
            scaled = positive_roots(m, BC_DIRICHLET, 3, length=L)
            npt.assert_allclose(scaled, np.asarray(base) / L ** (2 * m), rtol=1e-9)


def test_spectrum_zero_modes_free():
    s = solve_1d_spectrum(3, BC_NEUMANN, 5)
    assert list(s.values[:3]) == [0.0, 0.0, 0.0]
    assert n_poly_dim(s.domain.dimension, s.m) == 3
    assert np.all(np.asarray(s.values[3:]) > 0.0)
    assert s.trusted_count == 5
    # clamped spectrum has no zero block
    d = solve_1d_spectrum(3, BC_DIRICHLET, 2)
    assert np.all(np.asarray(d.values) > 0.0)


def test_spectrum_count_shorter_than_zero_block():
    s = solve_1d_spectrum(2, BC_NEUMANN, 1)
    assert np.asarray(s.values).shape == (1,) and s.values[0] == 0.0


def _cfg(**kv):
    return validate_config(kv)


def test_root_coincidence_claim():
    rep = run_claim("remark12", _cfg(m=2, count=6))
    assert rep.passed and rep.claim_id == "oned-coincidence"
    assert len(rep.details) == 6
    assert rep.margin > 0.0


def test_root_coincidence_failure_injection():
    rep = run_claim("remark12", _cfg(m=1, count=4, perturb=1e-6))
    assert not rep.passed
    assert rep.config_echo["perturb"] == 1e-6


def test_tight_root_tolerance_respected():
    tol = ToleranceConfig(tol_root=1e-13)
    lam = positive_roots(1, BC_DIRICHLET, 2, tol=tol)
    npt.assert_allclose(lam, [np.pi ** 2, 4 * np.pi ** 2], rtol=1e-12)


def test_invalid_arguments():
    with pytest.raises(InvalidArgumentError):
        positive_roots(1, "periodic", 3)
    with pytest.raises(InvalidArgumentError):
        solve_1d_spectrum(1, BC_DIRICHLET, 0)
