"""Verification claims over computed spectra, and the suite that runs them.

Every claim produces a VerificationReport whose records carry
(k, lhs, rhs, slack); a claim passes when every slack is nonnegative
(strict claims demand positive slack).  Claims embed the configuration that
produced them, so a report is reproducible bit for bit.

Claim ids are stable strings; the registry at the bottom maps them (and a
few short aliases accepted by the command line) to builder functions that
take a RunConfig.  The canonical suite is a fixed list of (claim_id,
config-override) jobs; jobs of the same claim merge into a single report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb, pi, sqrt
from typing import Callable

import numpy as np

from .galerkin import ConvergenceTable, convergence_study, solve_2d_eigensystem, solve_2d_spectrum
from .linalg import gauss_legendre
from .model import (BC_DIRICHLET, BC_NEUMANN, CheckRecord, Domain, InvalidArgumentError,
                    RunConfig, Spectrum, VerificationReport, n_poly_dim)
from .oned import check_root_coincidence, solve_1d_spectrum
from .trialspace import (GRAM_SV_FLOOR, TrialSpace, certified_chain_bound, roots_of_unity,
                         vandermonde_check, verify_mth_gradient_identity, verify_pde_identity)


def square_laplacian_eigs(bc: str, count: int, lx: float = 1.0, ly: float = 1.0) -> np.ndarray:
    """Exact m=1 eigenvalues of the lx x ly rectangle by enumeration.

    Dirichlet: pi^2 (p^2 / lx^2 + q^2 / ly^2) over p, q >= 1; the free
    problem admits p, q >= 0.  The first `count` values along either axis
    bound the count-th value from above, and every (p, q) at or below that
    bound is enumerated, so the result is complete at any aspect ratio.
    Sorted ascending; the reference every m=1 result is judged against.
    """
    lo = 1 if bc == BC_DIRICHLET else 0
    top = pi ** 2 * min((lo + count - 1) ** 2 / lx ** 2 + lo * lo / ly ** 2,
                        lo * lo / lx ** 2 + (lo + count - 1) ** 2 / ly ** 2)
    p = np.arange(lo, lo + 2 + int(lx * sqrt(top) / pi))
    q = np.arange(lo, lo + 2 + int(ly * sqrt(top) / pi))
    vals = pi ** 2 * (p[:, None] ** 2 / lx ** 2 + q[None, :] ** 2 / ly ** 2)
    return np.sort(vals, axis=None)[:count]


def _require_matched(spec_D: Spectrum, spec_N: Spectrum) -> None:
    if spec_D.bc != BC_DIRICHLET or spec_N.bc != BC_NEUMANN:
        raise InvalidArgumentError("expected a clamped spectrum first and a free one second")
    if spec_D.m != spec_N.m or spec_D.domain != spec_N.domain:
        raise InvalidArgumentError("spectra must share operator order and domain")


def _scaled_positive(spec: Spectrum, factor: float) -> Spectrum:
    """Scale the positive entries of a spectrum; zero modes stay exact zeros."""
    if factor == 1.0:
        return spec
    vals = spec.values.copy()
    vals[vals > 0.0] *= factor
    return replace(spec, values=vals)


# ---------------------------------------------------------------------------
# individual claims


def verify_theorem_main(spec_N: Spectrum, k_max: int) -> VerificationReport:
    """Certificate of the strict shifted comparison mu_{k+m} < lambda_k.

    On H^m_0 the clamped form equals ||(-Lap_D)^(m/2) u||^2, so min-max gives
    lambda_k >= nu_k^m with nu_k the exact Dirichlet Laplacian eigenvalues of
    the rectangle.  The computed mu_hat_{k+m} is an upper bound of the true
    free eigenvalue, so mu_hat_{k+m} < nu_k^m certifies the inequality for the
    true spectra.  The gap must also beat margin_factor times the rounding
    tol_zero * mu_hat_{z+1}, z = n_poly_dim(2, m), that the spectrum already
    accepts in its zero block.
    """
    if spec_N.bc != BC_NEUMANN:
        raise InvalidArgumentError("the comparison needs the free spectrum")
    if spec_N.domain.dimension != 2:
        raise InvalidArgumentError(
            "interval domains are excluded: there the free eigenvalue with index "
            "k+m equals the clamped k-th eigenvalue exactly, so no strict gap exists"
        )
    m, dom = spec_N.m, spec_N.domain
    z = n_poly_dim(2, m)
    if k_max < 1 or max(k_max + m, z + 1) > spec_N.trusted_count:
        raise InvalidArgumentError(f"k_max={k_max} outside the trusted range")
    nu = square_laplacian_eigs(BC_DIRICHLET, k_max, dom.lx, dom.ly)
    tol, mf = spec_N.tol.tol_zero, spec_N.tol.margin_factor
    rounding = mf * tol * spec_N.value(z + 1)
    records = []
    for k in range(1, k_max + 1):
        lhs = spec_N.value(k + m)
        rhs = float(nu[k - 1]) ** m
        records.append(CheckRecord(k=k, lhs=lhs, rhs=rhs, slack=(rhs - lhs) - rounding))
    return VerificationReport(
        claim_id="theorem-strict",
        passed=all(r.slack > 0.0 for r in records),
        details=tuple(records),
        notes=(f"computed free eigenvalue k+{m} (an upper bound) against nu_k^{m}, the "
               f"power {m} of the exact Dirichlet Laplacian eigenvalue k, a lower bound "
               f"of the clamped eigenvalue k (lambda_k >= nu_k^{m}); each gap must beat "
               f"{mf:g} * tol_zero * mu_hat_{z + 1} = {rounding:.3e}, the rounding the "
               f"free spectrum accepts in its zero block"),
        config_echo={"m": m, "domain": dom.as_json(), "n": spec_N.method.n_per_axis,
                     "k_max": k_max, "margin_factor": mf, "tol_zero": tol},
    )


def verify_weak_minmax(spec_D: Spectrum, spec_N: Spectrum, k_max: int) -> VerificationReport:
    """Unshifted comparison mu_hat_k <= lambda_hat_k (1 + 1e-9) for k <= k_max."""
    _require_matched(spec_D, spec_N)
    if k_max < 1 or k_max > min(spec_D.trusted_count, spec_N.trusted_count):
        raise InvalidArgumentError(f"k_max={k_max} outside the trusted ranges")
    records = []
    for k in range(1, k_max + 1):
        lhs, rhs = spec_N.value(k), spec_D.value(k)
        records.append(CheckRecord(k=k, lhs=lhs, rhs=rhs,
                                   slack=(rhs * (1.0 + 1e-9) - lhs) / rhs))
    return VerificationReport(
        claim_id="weak-minmax",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes="every trial space admissible for the clamped problem is admissible "
              "for the free one, so free eigenvalues sit below clamped ones at "
              "equal rank",
        config_echo={"m": spec_D.m, "domain": spec_D.domain.as_json(),
                     "method": spec_D.method.as_json(), "k_max": k_max},
    )


def verify_zero_modes(spec_N: Spectrum, d: int, m: int) -> VerificationReport:
    """The free spectrum opens with exactly n_poly_dim(d, m) zeros, then positives."""
    if spec_N.bc != BC_NEUMANN:
        raise InvalidArgumentError("zero modes are a property of the free spectrum")
    if spec_N.domain.dimension != d or spec_N.m != m:
        raise InvalidArgumentError("spectrum does not match the requested (d, m)")
    expected = n_poly_dim(d, m)
    found = int(np.sum(spec_N.values == 0.0))
    if expected >= spec_N.values.size:
        raise InvalidArgumentError("spectrum too short to see past the zero block")
    first_pos = float(spec_N.values[expected])
    records = (
        CheckRecord(k=1, lhs=float(found), rhs=float(expected),
                    slack=0.0 if found == expected else -abs(found - expected)),
        CheckRecord(k=2, lhs=first_pos, rhs=0.0, slack=first_pos),
    )
    return VerificationReport(
        claim_id="zero-modes",
        passed=found == expected and first_pos > 0.0,
        details=records,
        notes=(f"d={d}, m={m}: the kernel of the free problem is the space of "
               f"polynomials of degree <= {m - 1}, dimension {expected}; "
               f"record 1 counts clamped-to-zero eigenvalues, record 2 shows the "
               f"first positive one"),
        config_echo={"d": d, "m": m, "method": spec_N.method.as_json(),
                     "tol_zero": spec_N.tol.tol_zero},
    )


# --- polynomial sample machinery for the interpolation claim ----------------
# coefficient convention: C[..., i, j] multiplies x^i y^j on the reference
# square, one d x d matrix or a stack.  d/dx is the d x d matrix D with
# (D c)[i] = (i + 1) c[i + 1], applied from the left (d/dy from the right), so
# sizes stay d.  Values on the tensor Gauss rule of d + 2 nodes per axis, exact
# for squares of such polynomials, are A_a @ C @ A_b.T with A_a = V D^a for the
# rule's monomial Vandermonde V: a stack of samples takes a few array products.

def dm_norm_sq(C: np.ndarray, j: int) -> float | np.ndarray:
    """Integral over (-1,1)^2 of |D^j u|^2 for the polynomial with coefficients C.

    Grouped by the count of x-derivatives: sum_a C(j, a) (d_x^a d_y^(j-a) u)^2
    covers all j-th order ordered index tuples.  j = 0 gives the plain L2 mass.
    C may be one d x d matrix (a float comes back) or a (..., d, d) stack.
    """
    C = np.asarray(C, dtype=float)
    d = C.shape[-1]
    if C.ndim < 2 or C.shape[-2] != d:
        raise InvalidArgumentError("coefficients must be square d x d matrices")
    t, w = gauss_legendre(d + 2)
    D = np.diag(np.arange(1.0, d), k=1)
    A = [np.vander(t, d, increasing=True) @ np.linalg.matrix_power(D, a) for a in range(j + 1)]
    vals = [A[a] @ C @ A[j - a].T for a in range(j + 1)]
    total = sum(comb(j, a) * np.einsum("...pq,p,q->...", v * v, w, w) for a, v in enumerate(vals))
    return float(total) if C.ndim == 2 else total


def laplacian_power_norm(C: np.ndarray, m: int) -> float | np.ndarray:
    """The pure-Laplacian form of the m-th gradient energy.

    Equals dm_norm_sq(C, m) for polynomials vanishing to order m at the
    boundary: integral of (Lap^(m/2) u)^2 for even m, of |grad Lap^((m-1)/2) u|^2
    for odd m.  Takes a d x d matrix or a (..., d, d) stack, as dm_norm_sq.
    """
    half, rem = divmod(m, 2)
    D = np.asarray(C, dtype=float)
    r = np.arange(1.0, D.shape[-1] - 1)
    D2 = np.diag(r * (r + 1), k=2)  # d^2/dt^2: (D2 c)[i] = (i + 1)(i + 2) c[i + 2]
    for _ in range(half):
        D = D2 @ D + D @ D2.T
    return dm_norm_sq(D, rem)


def h0_sample_coeffs(m: int, count: int, seed: int, degree: int = 2) -> np.ndarray:
    """Seeded random polynomials times ((1-x^2)(1-y^2))^(m+1), stacked (count, d, d).

    The boundary factor vanishes to order m+1 on all four edges, so every
    sample lies in H^(m+1)_0 of the reference square.
    """
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((count, degree + 1, degree + 1))
    w = np.zeros(2 * m + 3)
    w[::2] = [comb(m + 1, q) * (-1) ** q for q in range(m + 2)]  # (1 - t^2)^(m+1)
    # convolution matrix: (W @ c) holds the coefficients of w(t) times c(t)
    W = np.stack([np.convolve(w, e) for e in np.eye(degree + 1)], axis=1)
    return W @ p @ W.T


def verify_interpolation(m: int, sample_count: int, seed: int) -> VerificationReport:
    """Log-convexity of gradient energies, and the Laplacian-power identity.

    For each sample u in H^(m+1)_0 of the reference square:
      record a: integral |D^m u|^2 <= sqrt(integral |D^(m+1) u|^2 *
                integral |D^(m-1) u|^2), with 1e-12 relative slack;
      record b: the grouped m-th gradient energy agrees with its pure
                Laplacian form to 1e-11 relative.
    """
    if m < 1 or sample_count < 1:
        raise InvalidArgumentError("need m >= 1 and sample_count >= 1")
    samples = h0_sample_coeffs(m, sample_count, seed)
    energies = zip(dm_norm_sq(samples, m).tolist(), dm_norm_sq(samples, m + 1).tolist(),
                   dm_norm_sq(samples, m - 1).tolist(),
                   laplacian_power_norm(samples, m).tolist())
    records = []
    for s, (mid, hi, lo, alt) in enumerate(energies, start=1):
        rhs = sqrt(hi * lo)
        slack_a = 0.0 if rhs == 0.0 else (rhs * (1.0 + 1e-12) - mid) / rhs
        records.append(CheckRecord(k=s, lhs=mid, rhs=rhs, slack=slack_a))
        rel = 0.0 if mid == 0.0 else abs(mid - alt) / mid
        records.append(CheckRecord(k=s, lhs=mid, rhs=alt, slack=1e-11 - rel))
    return VerificationReport(
        claim_id="interpolation",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes=(f"{sample_count} seeded samples at m={m}; per sample, the first "
               f"record is the geometric-mean bound between energies of orders "
               f"{m - 1}, {m}, {m + 1}; the second checks the Laplacian-power "
               f"rewrite of the order-{m} energy"),
        config_echo={"m": m, "sample_count": sample_count, "seed": seed},
    )


def verify_root_monotonicity(conv_by_m: dict[int, ConvergenceTable],
                             k_max: int) -> VerificationReport:
    """(lambda_hat_k^m)^(1/m) grows with m, checked pairwise with 1% slack."""
    orders = sorted(conv_by_m)
    if len(orders) < 2:
        raise InvalidArgumentError("need at least two consecutive orders")
    dom = conv_by_m[orders[0]].domain
    for m in orders:
        t = conv_by_m[m]
        if t.bc != BC_DIRICHLET or t.domain != dom:
            raise InvalidArgumentError("all tables must be clamped spectra on one domain")
        if t.values.shape[1] < k_max:
            raise InvalidArgumentError("table too short for k_max")
    records = []
    for m_lo, m_hi in zip(orders, orders[1:]):
        if m_hi != m_lo + 1:
            raise InvalidArgumentError("orders must be consecutive")
        v_lo = conv_by_m[m_lo].values[-1]
        v_hi = conv_by_m[m_hi].values[-1]
        for k in range(1, k_max + 1):
            lhs = float(v_lo[k - 1]) ** (1.0 / m_lo)
            rhs = float(v_hi[k - 1]) ** (1.0 / m_hi)
            records.append(CheckRecord(k=k, lhs=lhs, rhs=rhs,
                                       slack=(rhs * 1.01 - lhs) / rhs))
    return VerificationReport(
        claim_id="root-monotonicity",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes=(f"2m-th roots of clamped eigenvalues compared across orders "
               f"{orders}; both sides are converged upper bounds and the 1% "
               f"slack absorbs their discretization error; per-order "
               f"convergence differences: "
               + "; ".join(f"m={m}: {conv_by_m[m].error_estimates[:k_max].max():.3e}"
                           for m in orders)),
        config_echo={"orders": orders, "k_max": k_max,
                     "n_lists": {str(m): list(conv_by_m[m].n_list) for m in orders},
                     "domain": dom.as_json()},
    )


def verify_convex_square(spec_N2: Spectrum, k_max: int) -> VerificationReport:
    """Certificate that the order-2 free eigenvalues sit below the squared
    order-1 ones on the unit square.

    The right side is exact (closed-form enumeration) and the left side is an
    upper bound of the true value, so nonnegative slack certifies the
    inequality for the true spectra, not just the computed ones.
    """
    if spec_N2.bc != BC_NEUMANN or spec_N2.m != 2:
        raise InvalidArgumentError("needs the order-2 free spectrum")
    dom = spec_N2.domain
    if dom.dimension != 2 or dom.lx != 1.0 or dom.ly != 1.0:
        raise InvalidArgumentError("the exact comparison side is enumerated on the unit square")
    if k_max < 1 or k_max > spec_N2.trusted_count:
        raise InvalidArgumentError(f"k_max={k_max} outside the trusted range")
    mu1 = square_laplacian_eigs(BC_NEUMANN, k_max)
    records = []
    for k in range(1, k_max + 1):
        lhs = spec_N2.value(k)
        rhs = float(mu1[k - 1]) ** 2
        records.append(CheckRecord(k=k, lhs=lhs, rhs=rhs,
                                   slack=(rhs - lhs) / max(rhs, 1.0)))
    return VerificationReport(
        claim_id="convex-square",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes="computed order-2 free values (upper bounds) against the squares "
              "of exact order-1 free values of the unit square",
        config_echo={"n": spec_N2.method.n_per_axis, "k_max": k_max},
    )


def conjecture_probe(spec_D: Spectrum, spec_N: Spectrum, d: int, m: int,
                     k_max: int) -> VerificationReport:
    """Margins of lambda_hat_k - mu_hat_{n(d,m)+k}: recorded, never asserted."""
    _require_matched(spec_D, spec_N)
    if spec_D.domain.dimension != d or spec_D.m != m:
        raise InvalidArgumentError("spectra do not match the requested (d, m)")
    z = n_poly_dim(d, m)
    if k_max < 1 or z + k_max > spec_N.trusted_count or k_max > spec_D.trusted_count:
        raise InvalidArgumentError(f"k_max={k_max} outside the trusted ranges")
    records = []
    for k in range(1, k_max + 1):
        lhs = spec_N.value(z + k)
        rhs = spec_D.value(k)
        records.append(CheckRecord(k=k, lhs=lhs, rhs=rhs, slack=rhs - lhs))
    return VerificationReport(
        claim_id="conjecture-probe",
        passed=True,
        details=tuple(records),
        notes=(f"conjecture - not asserted: free index shifted by the zero-mode "
               f"count {z} instead of m; margins are informational and this "
               f"claim never fails a suite"),
        config_echo={"d": d, "m": m, "k_max": k_max, "offset": z,
                     "n": spec_D.method.n_per_axis},
    )


def oned_counterexample(k: int, npts: int = 100) -> VerificationReport:
    """Why no strict gap exists on an interval, shown concretely at m=1.

    v = cos(k pi x) on (0,1) satisfies the free boundary conditions
    (v'(0) = v'(1) = 0) and splits as e^(i k pi x) - i sin(k pi x): a wave of
    the order-1 trial family plus the k-th clamped eigenfunction.  The
    combined space of the chain argument therefore contains an exact free
    eigenfunction at the clamped level, and the inequality collapses to
    equality.
    """
    if k < 1:
        raise InvalidArgumentError(f"need k >= 1, got {k}")
    w = k * pi
    trace = max(abs(-w * np.sin(0.0)), abs(-w * np.sin(w * 1.0))) / w
    x = np.linspace(0.0, 1.0, npts)
    resid = float(np.max(np.abs(np.cos(w * x) - (np.exp(1j * w * x) - 1j * np.sin(w * x)))))
    records = (
        CheckRecord(k=k, lhs=float(trace), rhs=1e-14, slack=1e-14 - float(trace)),
        CheckRecord(k=k, lhs=resid, rhs=1e-14, slack=1e-14 - resid),
    )
    return VerificationReport(
        claim_id="oned-counterexample",
        passed=all(r.slack >= 0.0 for r in records),
        details=records,
        notes="record 1: free-condition trace residual of cos(k pi x) at both "
              "endpoints, relative to k pi; record 2: pointwise residual of the "
              "wave-plus-eigenfunction split at equispaced points",
        config_echo={"k": k, "points": npts},
    )


# ---------------------------------------------------------------------------
# claim registry and suite


def _square(cfg: RunConfig) -> Domain:
    return Domain.rectangle(cfg.lx, cfg.ly)


def _default_n_list(n: int, m: int) -> list[int]:
    """The two grids of a convergence table that ends at n."""
    if n - 4 >= m + 2:
        return [n - 4, n]
    return sorted({max(m + 2, n - 2), n})


def _build_oned_coincidence(cfg: RunConfig) -> VerificationReport:
    return check_root_coincidence(cfg.m, cfg.count, cfg.length, rel_tol=1e-8,
                                  tol=cfg.tol, perturb=cfg.perturb)


def _build_zero_modes(cfg: RunConfig) -> VerificationReport:
    parts = []
    for m in (1, 2, 3):
        spec1 = solve_1d_spectrum(m, BC_NEUMANN, count=m + 2, length=cfg.length, tol=cfg.tol)
        parts.append(verify_zero_modes(spec1, 1, m))
    for m in (1, 2, 3):
        z = n_poly_dim(2, m)
        spec2 = solve_2d_spectrum(m, BC_NEUMANN, cfg.n, _square(cfg),
                                  count=z + 3, tol=cfg.tol)
        parts.append(verify_zero_modes(spec2, 2, m))
    return merge_reports("zero-modes", parts)


def _build_theorem(cfg: RunConfig) -> VerificationReport:
    count = max(cfg.k_max + cfg.m, n_poly_dim(2, cfg.m) + 1)
    spec_N = solve_2d_spectrum(cfg.m, BC_NEUMANN, cfg.n, _square(cfg), count=count, tol=cfg.tol)
    return verify_theorem_main(_scaled_positive(spec_N, 1.0 + cfg.perturb), cfg.k_max)


def _build_weak(cfg: RunConfig) -> VerificationReport:
    dom = _square(cfg)
    spec_D = solve_2d_spectrum(cfg.m, BC_DIRICHLET, cfg.n, dom, count=cfg.k_max, tol=cfg.tol)
    spec_N = solve_2d_spectrum(cfg.m, BC_NEUMANN, cfg.n, dom, count=cfg.k_max, tol=cfg.tol)
    spec_N = _scaled_positive(spec_N, 1.0 + cfg.perturb)
    return verify_weak_minmax(spec_D, spec_N, cfg.k_max)


def _build_interpolation(cfg: RunConfig) -> VerificationReport:
    return verify_interpolation(cfg.m, cfg.count, cfg.seed)


def _build_monotonicity(cfg: RunConfig) -> VerificationReport:
    dom = _square(cfg)
    tables = {}
    for m in (1, 2, 3):
        n = min(cfg.n, 14) if m == 3 else cfg.n
        tables[m] = convergence_study(m, BC_DIRICHLET, dom, _default_n_list(n, m),
                                      count=cfg.k_max, tol=cfg.tol)
    return verify_root_monotonicity(tables, cfg.k_max)


def _build_convex(cfg: RunConfig) -> VerificationReport:
    spec = solve_2d_spectrum(2, BC_NEUMANN, cfg.n, Domain.rectangle(1.0, 1.0),
                             count=max(cfg.k_max, 1), tol=cfg.tol)
    spec = _scaled_positive(spec, 1.0 + cfg.perturb)
    return verify_convex_square(spec, cfg.k_max)


def _build_conjecture(cfg: RunConfig) -> VerificationReport:
    dom = _square(cfg)
    z = n_poly_dim(2, cfg.m)
    spec_D = solve_2d_spectrum(cfg.m, BC_DIRICHLET, cfg.n, dom, count=cfg.k_max, tol=cfg.tol)
    spec_N = solve_2d_spectrum(cfg.m, BC_NEUMANN, cfg.n, dom, count=z + cfg.k_max, tol=cfg.tol)
    return conjecture_probe(spec_D, spec_N, 2, cfg.m, cfg.k_max)


def _build_trial_identities(cfg: RunConfig) -> VerificationReport:
    rng = np.random.default_rng(cfg.seed)
    records = []
    for m in (1, 2, 3):
        theta = rng.uniform(0.0, 2.0 * pi)
        r = rng.uniform(2.0, 8.0)
        omega = np.array([r * np.cos(theta), r * np.sin(theta)])
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        points = rng.uniform(0.0, 1.0, size=(100, 2))
        ts = TrialSpace(m=m, omega=omega, alpha=alpha)
        res_pde = verify_pde_identity(ts, points)
        res_grad = verify_mth_gradient_identity(ts, points)
        records.append(CheckRecord(k=m, lhs=res_pde, rhs=1e-12, slack=1e-12 - res_pde))
        records.append(CheckRecord(k=m, lhs=res_grad, rhs=1e-12, slack=1e-12 - res_grad))
    return VerificationReport(
        claim_id="trial-identities",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes="per order m: pointwise residuals of the eigen-equation identity "
              "and of the m-th gradient magnitude identity for a seeded random "
              "wave combination at 100 random points",
        config_echo={"seed": cfg.seed, "orders": [1, 2, 3], "points": 100},
    )


def _build_chain(cfg: RunConfig) -> VerificationReport:
    dom = _square(cfg)
    eigsys = solve_2d_eigensystem(cfg.m, BC_DIRICHLET, cfg.n, dom,
                                  count=cfg.k_max, tol=cfg.tol)
    records = []
    for k in range(1, cfg.k_max + 1):
        cert = certified_chain_bound(cfg.m, k, eigsys, tol=cfg.tol)
        lam = cert.lambda_hat
        rhs = lam * (1.0 + cfg.tol.tol_identity)
        records.append(CheckRecord(k=k, lhs=cert.max_rayleigh, rhs=rhs,
                                   slack=(rhs - cert.max_rayleigh) / lam))
        records.append(CheckRecord(k=k, lhs=cert.gram_min_sv, rhs=GRAM_SV_FLOOR,
                                   slack=cert.gram_min_sv - GRAM_SV_FLOOR))
    return VerificationReport(
        claim_id="chain-certificate",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes=(f"per k: largest Rayleigh quotient over the span of the first k "
               f"clamped eigenvectors plus the {cfg.m}-wave family at level "
               f"lambda_hat_k (must not exceed lambda_hat_k up to tol_identity), "
               f"and the combined-basis smallest singular value"),
        config_echo={"m": cfg.m, "n": cfg.n, "k_max": cfg.k_max,
                     "domain": dom.as_json(), "tol_identity": cfg.tol.tol_identity},
    )


def _build_vandermonde(cfg: RunConfig) -> VerificationReport:
    records = []
    for m in range(1, 13):
        val = vandermonde_check(roots_of_unity(m))
        records.append(CheckRecord(k=m, lhs=val, rhs=0.0, slack=val))
    for m, exact in ((2, 2.0), (4, 16.0)):
        val = vandermonde_check(roots_of_unity(m))
        records.append(CheckRecord(k=m, lhs=val, rhs=exact,
                                   slack=1e-12 - abs(val - exact) / exact))
    return VerificationReport(
        claim_id="vandermonde",
        passed=all(r.slack > 0.0 for r in records[:12]) and all(
            r.slack >= 0.0 for r in records[12:]),
        details=tuple(records),
        notes="pairwise-difference products of the m-th roots of unity for "
              "m=1..12 (all strictly positive: the wave family is independent), "
              "plus exact values at m=2 and m=4",
        config_echo={"orders": list(range(1, 13))},
    )


def _build_counterexample(cfg: RunConfig) -> VerificationReport:
    return merge_reports("oned-counterexample",
                         [oned_counterexample(k) for k in (1, 2, 3)])


def merge_reports(claim_id: str, parts: list[VerificationReport]) -> VerificationReport:
    """Combine several runs of one claim into a single report, in run order."""
    if not parts:
        raise InvalidArgumentError("nothing to merge")
    records = tuple(r for p in parts for r in p.details)
    notes = " | ".join(dict.fromkeys(p.notes for p in parts if p.notes))
    return VerificationReport(
        claim_id=claim_id,
        passed=all(p.passed for p in parts),
        details=records,
        notes=notes,
        config_echo={"jobs": [p.config_echo for p in parts]},
    )


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    statement: str
    build: Callable[[RunConfig], VerificationReport]


CLAIMS: dict[str, ClaimSpec] = {
    c.claim_id: c for c in (
        ClaimSpec("chain-certificate",
                  "the combined eigenvector/wave space keeps its Rayleigh quotient "
                  "at or below the clamped target level", _build_chain),
        ClaimSpec("conjecture-probe",
                  "margins for the zero-mode-shifted comparison (informational)",
                  _build_conjecture),
        ClaimSpec("convex-square",
                  "order-2 free eigenvalues below squared order-1 free eigenvalues "
                  "on the unit square", _build_convex),
        ClaimSpec("interpolation",
                  "geometric-mean bound between consecutive gradient energies, and "
                  "the Laplacian-power rewrite", _build_interpolation),
        ClaimSpec("oned-coincidence",
                  "clamped and free boundary determinants on an interval share "
                  "their positive roots", _build_oned_coincidence),
        ClaimSpec("oned-counterexample",
                  "on an interval the shifted comparison is an equality, shown by "
                  "an explicit free eigenfunction", _build_counterexample),
        ClaimSpec("root-monotonicity",
                  "2m-th roots of clamped eigenvalues increase with the order m",
                  _build_monotonicity),
        ClaimSpec("theorem-strict",
                  "free eigenvalues shifted by m sit strictly below clamped ones "
                  "on rectangles, certified against the exact lower bound nu_k^m "
                  "of the clamped ones",
                  _build_theorem),
        ClaimSpec("trial-identities",
                  "closed-form wave identities hold at rounding level",
                  _build_trial_identities),
        ClaimSpec("vandermonde",
                  "wave families are linearly independent: root-of-unity "
                  "Vandermonde determinants are nonzero", _build_vandermonde),
        ClaimSpec("weak-minmax",
                  "free eigenvalues never exceed clamped ones at equal rank",
                  _build_weak),
        ClaimSpec("zero-modes",
                  "the free spectrum starts with exactly as many zeros as there "
                  "are low-degree polynomials", _build_zero_modes),
    )
}

ALIASES = {
    "remark12": "oned-coincidence",
    "theorem": "theorem-strict",
    "weak": "weak-minmax",
    "monotonicity": "root-monotonicity",
    "convex": "convex-square",
    "conjecture": "conjecture-probe",
    "counterexample": "oned-counterexample",
    "identities": "trial-identities",
    "chain": "chain-certificate",
}


def resolve_claim_id(token: str) -> str:
    cid = ALIASES.get(token, token)
    if cid not in CLAIMS:
        known = ", ".join(sorted(CLAIMS) + sorted(ALIASES))
        raise InvalidArgumentError(f"unknown claim {token!r}; known claims: {known}")
    return cid


def run_claim(token: str, cfg: RunConfig) -> VerificationReport:
    return CLAIMS[resolve_claim_id(token)].build(cfg)


# canonical suite: fixed configurations chosen to finish in seconds while
# covering every claim at the orders it is stated for
SUITE_JOBS: tuple[tuple[str, dict], ...] = (
    ("oned-coincidence", {"m": 1, "count": 10}),
    ("oned-coincidence", {"m": 2, "count": 8}),
    ("oned-coincidence", {"m": 3, "count": 5}),
    ("oned-counterexample", {}),
    ("zero-modes", {"n": 12}),
    ("theorem-strict", {"m": 1, "n": 16, "k_max": 9}),
    ("theorem-strict", {"m": 2, "n": 20, "k_max": 8}),
    ("weak-minmax", {"m": 1, "n": 16, "k_max": 10}),
    ("weak-minmax", {"m": 2, "n": 16, "k_max": 10}),
    ("weak-minmax", {"m": 3, "n": 14, "k_max": 8}),
    ("interpolation", {"m": 1, "count": 50}),
    ("interpolation", {"m": 2, "count": 50}),
    ("interpolation", {"m": 3, "count": 20}),
    ("root-monotonicity", {"n": 16, "k_max": 5}),
    ("convex-square", {"n": 20, "k_max": 10}),
    ("conjecture-probe", {"m": 2, "n": 16, "k_max": 5}),
    ("trial-identities", {}),
    ("chain-certificate", {"m": 1, "n": 16, "k_max": 1}),
    ("chain-certificate", {"m": 2, "n": 16, "k_max": 5}),
    ("chain-certificate", {"m": 3, "n": 12, "k_max": 2}),
    ("vandermonde", {}),
)


def run_suite(cfg: RunConfig) -> list[VerificationReport]:
    """Run the canonical suite and return one merged report per claim id.

    Jobs run one after another in the fixed job order, results are merged in
    that order and reports sorted by claim id.
    """
    by_id: dict[str, list[VerificationReport]] = {}
    for cid, ov in SUITE_JOBS:
        by_id.setdefault(cid, []).append(CLAIMS[cid].build(cfg.with_overrides(**ov)))
    merged = []
    for cid in sorted(by_id):
        parts = by_id[cid]
        merged.append(parts[0] if len(parts) == 1 else merge_reports(cid, parts))
    return merged


def suite_passed(reports: list[VerificationReport]) -> bool:
    return all(r.passed for r in reports)
