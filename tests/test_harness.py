import numpy as np
import numpy.testing as npt
import pytest

from phlab import galerkin
from phlab.harness import (ALIASES, CLAIMS, SUITE_JOBS, gradient_energy, h0_sample_coeffs,
                           laplacian_power_energy, merge_reports, oned_counterexample,
                           resolve_claim_id, run_claim, run_suite, square_laplacian_eigs,
                           suite_passed)
from phlab.model import (BC_DIRICHLET, BC_NEUMANN, Domain, InvalidArgumentError,
                         merge_config, n_poly_dim, validate_config)


def _cfg(**kv):
    return validate_config(merge_config(kv))


def test_square_enumeration_values():
    d = square_laplacian_eigs(BC_DIRICHLET, 6)
    npt.assert_allclose(d / np.pi ** 2, [2, 5, 5, 8, 10, 10], rtol=1e-14)
    n = square_laplacian_eigs(BC_NEUMANN, 6)
    npt.assert_allclose(n / np.pi ** 2, [0, 1, 1, 2, 4, 4], rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("lx, ly", [(1.0, 1.0), (1.0, 0.5), (0.2, 1.0), (1.0, 0.2)])
@pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_NEUMANN])
def test_rectangle_enumeration_matches_brute_force(bc, lx, ly):
    lo = 1 if bc == BC_DIRICHLET else 0
    brute = sorted(np.pi ** 2 * (p * p / lx ** 2 + q * q / ly ** 2)
                   for p in range(lo, 60) for q in range(lo, 60))
    npt.assert_allclose(square_laplacian_eigs(bc, 40, lx, ly), brute[:40], rtol=1e-14)


def test_polynomial_energy_hand_case():
    # u = (1-x^2)(1-y^2) on the reference square; 1 - t^2 = (2/3) P_0 - (2/3) P_2
    F, _ = galerkin.shape_table(BC_NEUMANN, 2, 3, 6)
    c = np.array([2.0, 0.0, -2.0]) / 3.0
    A = np.outer(c, c)
    npt.assert_allclose(gradient_energy(A, F, 0), 256.0 / 225.0, rtol=4e-16)
    npt.assert_allclose(gradient_energy(A, F, 1), 256.0 / 45.0, rtol=4e-16)
    npt.assert_allclose(gradient_energy(A, F, 2), 1408.0 / 45.0, rtol=4e-16)


def _sample_table(m):
    F, _ = galerkin.shape_table(BC_DIRICHLET, m + 1, 3, 2 * m + 5)
    return F


def test_laplacian_power_identity_on_samples():
    for m in (1, 2, 3):
        F = _sample_table(m)
        for A in h0_sample_coeffs(m, 5, seed=7):
            a = gradient_energy(A, F, m)
            b = laplacian_power_energy(A, F, m)
            npt.assert_allclose(b, a, rtol=1e-11)


def test_energies_accept_coefficient_stacks():
    for m in (1, 2, 3):
        F = _sample_table(m)
        stack = h0_sample_coeffs(m, 5, seed=11)
        assert stack.shape == (5, 3, 3)
        for j in (m - 1, m, m + 1):
            npt.assert_allclose(gradient_energy(stack, F, j),
                                [gradient_energy(A, F, j) for A in stack], rtol=1e-14)
        npt.assert_allclose(laplacian_power_energy(stack, F, m),
                            [laplacian_power_energy(A, F, m) for A in stack], rtol=1e-14)


def test_interpolation_claim_records():
    rep = run_claim("interpolation", _cfg(m=2, count=12, seed=3))
    assert rep.passed
    assert len(rep.details) == 24  # two records per sample
    assert rep.margin >= 0.0


def test_theorem_claim_square_m1():
    rep = run_claim("theorem", _cfg(m=1, n=12, k_max=4))
    assert rep.passed
    # the m=1 square gap mu_{k+1} -> lam_k is at least pi^2
    assert rep.margin > 0.9 * np.pi ** 2


@pytest.mark.parametrize("claim", ["theorem", "weak", "conjecture"])
def test_theorem_claim_rhs_is_exact_power_on_rectangle(claim):
    # each claim compares the free value k + shift with the exact nu_k^m
    dom = Domain.rectangle(1.0, 0.5)
    for m, n, k_max in ((1, 16, 9), (2, 20, 8)):
        shift = {"theorem": m, "weak": 0, "conjecture": n_poly_dim(2, m)}[claim]
        cfg = _cfg(m=m, n=n, k_max=k_max, ly=0.5)
        rep = run_claim(claim, cfg)
        nu = square_laplacian_eigs(BC_DIRICHLET, k_max, 1.0, 0.5)
        mu = galerkin.solve_2d_spectrum(m, BC_NEUMANN, n, dom, k_max + shift).values
        assert [r.rhs for r in rep.details] == [float(v) ** m for v in nu]
        assert [r.lhs for r in rep.details] == mu[shift:].tolist()
        assert rep.passed and rep.config_echo["tol_zero"] == cfg.tol.tol_zero


def test_weak_minmax_matched_size():
    rep = run_claim("weak", _cfg(m=2, n=10, k_max=6))
    assert rep.passed and len(rep.details) == 6


def test_zero_mode_claim():
    rep = run_claim("zero-modes", _cfg(n=10))
    assert rep.passed
    # one (d, m) part per dimension 1, 2 and order 1..3, two records each
    assert [(j["d"], j["m"]) for j in rep.config_echo["jobs"]] == [
        (d, m) for d in (1, 2) for m in (1, 2, 3)]
    assert [r.lhs for r in rep.details[::2]] == [1.0, 2.0, 3.0, 1.0, 3.0, 6.0]


def test_conjecture_probe_never_fails():
    rep = run_claim("conjecture", _cfg(m=2, n=10, k_max=2))
    assert rep.passed
    assert "not asserted" in rep.notes


def test_conjecture_probe_keeps_passing_below_nu():
    # at m=3 the shift z = 6 overshoots at k=1: mu_hat_7 ~ 20,760 against
    # nu_1^3 = (2 pi^2)^3 ~ 7,691, so that record is not certified
    rep = run_claim("conjecture", _cfg(m=3, n=14))
    assert rep.passed
    first = rep.details[0]
    assert first.slack < 0.0 and 20_700.0 < first.lhs < 20_800.0
    npt.assert_allclose(first.rhs, (2 * np.pi ** 2) ** 3, rtol=1e-14)
    assert all(r.slack > 0.0 for r in rep.details[1:])


def test_counterexample_identities():
    for k in (1, 2, 3):
        rep = oned_counterexample(k)
        assert rep.passed
        assert all(abs(r.lhs) <= 1e-14 for r in rep.details)


def test_claim_aliases_resolve():
    assert resolve_claim_id("remark12") == "oned-coincidence"
    assert resolve_claim_id("theorem") == "theorem-strict"
    assert resolve_claim_id("weak-minmax") == "weak-minmax"
    for alias, target in ALIASES.items():
        assert target in CLAIMS
    with pytest.raises(InvalidArgumentError, match="unknown claim"):
        resolve_claim_id("no-such-claim")


def test_merge_reports_combines_parts():
    r1 = run_claim("remark12", _cfg(m=1, count=3))
    r2 = run_claim("remark12", _cfg(m=2, count=3))
    merged = merge_reports("oned-coincidence", [r1, r2])
    assert merged.passed
    assert len(merged.details) == 6
    assert merged.margin == min(r1.margin, r2.margin)
    assert merged.config_echo["jobs"] == [r1.config_echo, r2.config_echo]
    with pytest.raises(InvalidArgumentError):
        merge_reports("oned-coincidence", [])


def test_suite_jobs_cover_every_claim():
    assert {cid for cid, _ in SUITE_JOBS} == set(CLAIMS)


def test_suite_deterministic_across_worker_counts():
    cfg = _cfg()
    first = run_suite(cfg)
    again = run_suite(cfg)
    assert suite_passed(first)
    assert [r.claim_id for r in first] == sorted(CLAIMS)
    assert [r.as_json() for r in first] == [r.as_json() for r in again]


def test_suite_assembles_each_distinct_pencil_once(monkeypatch):
    # the suite's 16 rectangle solves cover 11 distinct pencils
    assembled = []
    assemble = galerkin.assemble_pencil

    def counted(*args):
        assembled.append(args)
        return assemble(*args)

    monkeypatch.setattr(galerkin, "assemble_pencil", counted)
    galerkin._solved_blocks.cache_clear()
    run_suite(_cfg())
    info = galerkin._solved_blocks.cache_info()
    assert info.hits + info.misses == 16
    assert len(assembled) == len(set(assembled)) == 11
