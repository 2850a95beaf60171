"""Verification claims over computed spectra, and the suite that runs them.

Every claim produces a VerificationReport whose records carry
(k, lhs, rhs, slack); a claim passes when every slack is nonnegative
(strict claims demand positive slack).  Claims embed the configuration that
produced them, so a report is reproducible bit for bit.

Each claim is one function claim_<id>(cfg: RunConfig) that computes the
spectra it needs and compares them; theorem-strict, weak-minmax and
conjecture-probe share one comparison with the exact nu_k^m.  cfg.perturb
scales the computed free eigenvalues of those three, oned-coincidence and
convex-square by (1 + perturb) in _perturbed, a failure-injection hook for
exit-code testing.  The registry at the bottom maps claim ids (and a few short
aliases accepted by the command line) to these functions.  The canonical suite is a
fixed list of (claim_id, config-override) jobs; jobs of the same claim merge
into a single report.
"""

from __future__ import annotations

from math import comb, cos, isfinite, pi, sin, sqrt
from random import Random

import numpy as np

from .galerkin import shape_table, solve_2d_eigensystem, solve_2d_spectrum
from .model import (BC_DIRICHLET, BC_NEUMANN, CapabilityError, CheckRecord, Domain,
                    InvalidArgumentError, RunConfig, Spectrum, VerificationReport, n_poly_dim)
from .oned import positive_roots, solve_1d_spectrum
from .trialspace import (GRAM_SV_FLOOR, certified_chain_bound, roots_of_unity,
                         vandermonde_check, wave_identity_residuals)


def square_laplacian_eigs(bc: str, count: int, lx: float = 1.0, ly: float = 1.0) -> np.ndarray:
    """Exact m=1 eigenvalues of the lx x ly rectangle by enumeration.

    Dirichlet: pi^2 (p^2 / lx^2 + q^2 / ly^2) over p, q >= 1; the free
    problem admits p, q >= 0.  The first `count` values along either axis
    bound the count-th value from above, and every (p, q) at or below that
    bound is enumerated, so the result is complete at any aspect ratio.  No
    axis needs more than count entries: for p > lo + count - 1, the count
    values at the same q and p = lo..lo + count - 1 are all smaller.
    Sorted ascending; the reference every m=1 result is judged against.
    """
    lo = 1 if bc == BC_DIRICHLET else 0
    top = pi ** 2 * min((lo + count - 1) ** 2 / lx ** 2 + lo * lo / ly ** 2,
                        lo * lo / lx ** 2 + (lo + count - 1) ** 2 / ly ** 2)
    # capped while still a float: a long side would ask for billions of p
    p = np.arange(lo, lo + int(min(count, 2 + lx * sqrt(top) / pi)))
    q = np.arange(lo, lo + int(min(count, 2 + ly * sqrt(top) / pi)))
    vals = pi ** 2 * (p[:, None] ** 2 / lx ** 2 + q[None, :] ** 2 / ly ** 2)
    return np.sort(vals, axis=None)[:count]


def _perturbed(values, perturb: float) -> np.ndarray:
    """Computed free eigenvalues scaled by (1 + perturb); an overflow is refused."""
    with np.errstate(over="ignore"):
        out = np.asarray(values, dtype=float) * (1.0 + perturb)
    if not np.all(np.isfinite(out)):
        raise CapabilityError(f"perturb={perturb:g} overflows a computed eigenvalue")
    return out


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


# ---------------------------------------------------------------------------
# individual claims


def claim_oned_coincidence(cfg: RunConfig) -> VerificationReport:
    """On an interval the two boundary determinants share every positive root.

    Compares the first `count` positive eigenvalues of the clamped and the
    free problem pairwise, to 1e-8 relative; with the free problem's m zero
    modes this means the free eigenvalue with index k+m equals the clamped
    one with index k.
    """
    m, count, length, rel_tol = cfg.m, cfg.count, cfg.length, 1e-8
    lam_d = positive_roots(m, BC_DIRICHLET, count, length, cfg.tol)
    lam_n = _perturbed(positive_roots(m, BC_NEUMANN, count, length, cfg.tol), cfg.perturb)
    records = tuple(CheckRecord(k=k, lhs=lhs, rhs=rhs, slack=rel_tol - abs(lhs - rhs) / rhs)
                    for k, (lhs, rhs) in enumerate(zip(lam_n.tolist(), lam_d), start=1))
    return VerificationReport(
        claim_id="oned-coincidence",
        passed=all(r.slack >= 0.0 for r in records),
        details=records,
        notes=(f"first {count} positive roots of the clamped and free boundary "
               f"determinants on (0, {length:g}) at m={m}, compared to "
               f"relative tolerance {rel_tol:g}"),
        config_echo={"m": m, "count": count, "length": length, "rel_tol": rel_tol,
                     "perturb": cfg.perturb},
    )


def _zero_modes(spec: Spectrum) -> VerificationReport:
    """One (d, m) part of zero-modes: exactly n_poly_dim(d, m) zeros, then a positive value."""
    d, m = spec.domain.dimension, spec.m
    expected = n_poly_dim(d, m)
    found = spec.values.count(0.0)
    first_pos = spec.values[expected]
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
        config_echo={"d": d, "m": m, "method": spec.method.as_json(),
                     "tol_zero": spec.tol.tol_zero},
    )


def claim_zero_modes(cfg: RunConfig) -> VerificationReport:
    """The free spectrum opens with exactly n_poly_dim(d, m) zeros, for d = 1, 2 and m = 1..3."""
    dom = Domain.rectangle(cfg.lx, cfg.ly)
    specs = [solve_1d_spectrum(m, BC_NEUMANN, m + 2, cfg.length, cfg.tol) for m in (1, 2, 3)]
    specs += [solve_2d_spectrum(m, BC_NEUMANN, cfg.n, dom, n_poly_dim(2, m) + 3, cfg.tol)
              for m in (1, 2, 3)]
    return merge_reports("zero-modes", [_zero_modes(s) for s in specs])


def _free_below_dirichlet(cfg: RunConfig, shift: int) -> tuple[tuple[CheckRecord, ...], str, dict]:
    """Records of the computed free eigenvalue k+shift against nu_k^m, k <= k_max.

    On H^m_0 the clamped form equals ||(-Lap_D)^(m/2) u||^2, so min-max gives
    lambda_k >= nu_k^m with nu_k the exact Dirichlet Laplacian eigenvalues of
    the rectangle.  The computed mu_hat_{k+shift} is an upper bound of the
    true free eigenvalue, so a positive slack certifies mu_{k+shift} < lambda_k
    for the true spectra.  The slack also pays margin_factor times the
    rounding tol_zero * mu_hat_{z+1}, z = n_poly_dim(2, m), that the spectrum
    accepts in its zero block.  Free values are scaled by (1 + perturb).
    Returns the records, notes and config echo.
    """
    m, k_max, dom = cfg.m, cfg.k_max, Domain.rectangle(cfg.lx, cfg.ly)
    z = n_poly_dim(2, m)
    mu = _perturbed(solve_2d_spectrum(m, BC_NEUMANN, cfg.n, dom, max(k_max + shift, z + 1),
                                     cfg.tol).values, cfg.perturb)
    nu = square_laplacian_eigs(BC_DIRICHLET, k_max, dom.lx, dom.ly)
    tol, mf = cfg.tol.tol_zero, cfg.tol.margin_factor
    rounding = mf * tol * float(mu[z])
    if not isfinite(rounding):
        raise CapabilityError(f"margin_factor={mf:g} overflows the rounding charge "
                              f"{mf:g} * tol_zero * mu_hat_{z + 1}")
    pairs = zip(mu[shift:shift + k_max].tolist(), (v ** m for v in nu.tolist()))
    records = tuple(CheckRecord(k=k, lhs=lhs, rhs=rhs, slack=(rhs - lhs) - rounding)
                    for k, (lhs, rhs) in enumerate(pairs, start=1))
    notes = (f"computed free eigenvalue k+{shift} (an upper bound) against nu_k^{m}, the "
             f"power {m} of the exact Dirichlet Laplacian eigenvalue k, a lower bound "
             f"of the clamped eigenvalue k (lambda_k >= nu_k^{m}); each gap must beat "
             f"{mf:g} * tol_zero * mu_hat_{z + 1} = {rounding:.3e}, the rounding the "
             f"free spectrum accepts in its zero block")
    echo = {"m": m, "domain": dom.as_json(), "n": cfg.n,
            "k_max": k_max, "margin_factor": mf, "tol_zero": tol}
    return records, notes, echo


def claim_theorem_strict(cfg: RunConfig) -> VerificationReport:
    """Certificate of mu_{k+m} < lambda_k (on an interval the two are equal)."""
    records, notes, echo = _free_below_dirichlet(cfg, cfg.m)
    return VerificationReport("theorem-strict", all(r.slack > 0.0 for r in records),
                              records, notes, echo)


def claim_weak_minmax(cfg: RunConfig) -> VerificationReport:
    """Certificate of the unshifted comparison mu_k <= lambda_k."""
    records, notes, echo = _free_below_dirichlet(cfg, 0)
    return VerificationReport("weak-minmax", all(r.slack >= 0.0 for r in records),
                              records, notes, echo)


# --- gradient energies of the interpolation claim ----------------------------

def gradient_energy(A: np.ndarray, F: np.ndarray, j: int) -> np.ndarray:
    """Integral over (-1,1)^2 of |D^j u|^2 for u = sum_ik A[..., i, k] phi_i(x) phi_k(y).

    F is the shape_table factor of the phi on a rule exact for their squares,
    so F[a].T @ A @ F[b] holds d_x^a d_y^b u times root weights.  Grouped by
    the count of x-derivatives, sum_a C(j, a) (d_x^a d_y^(j-a) u)^2 covers all
    ordered index tuples.  A is one coefficient matrix or a stack of them.
    """
    return sum(comb(j, a) * np.square(F[a].T @ A @ F[j - a]).sum(axis=(-2, -1))
               for a in range(j + 1))


def laplacian_power_energy(A: np.ndarray, F: np.ndarray, m: int) -> np.ndarray:
    """The pure-Laplacian form of the m-th gradient energy, as gradient_energy.

    Equals gradient_energy(A, F, m) for u vanishing to order m at the
    boundary: the integral of (Lap^h u)^2 for m = 2h, of |grad Lap^h u|^2
    for m = 2h + 1, with Lap^h = sum_b C(h, b) d_x^(2b) d_y^(2(h-b)) and the
    gradient's x part (e = 1) and y part (e = 0) squared separately.
    """
    h, rem = divmod(m, 2)
    return sum(np.square(sum(comb(h, b) * (F[2 * b + e].T @ A @ F[2 * (h - b) + rem - e])
                             for b in range(h + 1))).sum(axis=(-2, -1))
               for e in range(rem + 1))


def h0_sample_coeffs(count: int, seed: int) -> np.ndarray:
    """Seeded coefficients uniform on [-1, 1), stacked (count, 3, 3).

    Entry i of the flattened stack is 2u_i - 1 for the i-th draw u_i of
    random.Random(seed).random(), so the first samples do not depend on count.
    That stream is the one Python keeps the same across versions for the
    same seed, and drawing it loads no numpy.random.  The coefficients do
    not depend on m: taken over the clamped shapes (1-t^2)^(m+1) P_i, i < 3,
    of each axis, whose factor vanishes to order m+1 at both ends, every
    sample lies in H^(m+1)_0 of the reference square.
    """
    # an endless stream of draws, of which fromiter takes the first 9 count
    u = np.fromiter(iter(Random(seed).random, None), float, 9 * count)
    return (2.0 * u - 1.0).reshape(count, 3, 3)


# at m=3, 10^5 samples take about 2.5-2.8 s and 260 MB through `verify` (2 CPUs),
# 1.3-1.6 s of it in the claim (0.06 s drawing), the rest mostly writing records;
# memory grows with the count
MAX_SAMPLES = 100_000


def claim_interpolation(cfg: RunConfig) -> VerificationReport:
    """Log-convexity of gradient energies, and the Laplacian-power identity.

    For each of cfg.count samples u in H^(m+1)_0 of the reference square:
      record a: integral |D^m u|^2 <= sqrt(integral |D^(m+1) u|^2 *
                integral |D^(m-1) u|^2), with 1e-12 relative slack;
      record b: the grouped m-th gradient energy agrees with its pure
                Laplacian form to 1e-11 relative.
    """
    m = cfg.m
    if cfg.count > MAX_SAMPLES:
        raise CapabilityError(f"at most {MAX_SAMPLES} interpolation samples are supported per call")
    A = h0_sample_coeffs(cfg.count, cfg.seed)
    # the samples' degree is 2m + 4 per axis, so 2m + 5 nodes integrate their squares
    F, _ = shape_table(BC_DIRICHLET, m + 1, 3, 2 * m + 5)
    energies = zip(gradient_energy(A, F, m).tolist(), gradient_energy(A, F, m + 1).tolist(),
                   gradient_energy(A, F, m - 1).tolist(),
                   laplacian_power_energy(A, F, m).tolist())
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
        notes=(f"{cfg.count} seeded samples at m={m}; per sample, the first "
               f"record is the geometric-mean bound between energies of orders "
               f"{m - 1}, {m}, {m + 1}; the second checks the Laplacian-power "
               f"rewrite of the order-{m} energy"),
        config_echo={"m": m, "sample_count": cfg.count, "seed": cfg.seed},
    )


def claim_root_monotonicity(cfg: RunConfig) -> VerificationReport:
    """(lambda_hat_k^m)^(1/m) grows with m = 1, 2, 3, checked pairwise with 1% slack.

    Each order is solved once, at n (at most 14 for m = 3).
    """
    dom, k_max, orders = Domain.rectangle(cfg.lx, cfg.ly), cfg.k_max, [1, 2, 3]
    grid = {m: min(cfg.n, 14) if m == 3 else cfg.n for m in orders}
    values = {m: solve_2d_spectrum(m, BC_DIRICHLET, grid[m], dom, k_max, cfg.tol).values
              for m in orders}
    records = []
    for m in (1, 2):
        v_lo, v_hi = values[m], values[m + 1]
        for k in range(1, k_max + 1):
            lhs = v_lo[k - 1] ** (1.0 / m)
            rhs = v_hi[k - 1] ** (1.0 / (m + 1))
            records.append(CheckRecord(k=k, lhs=lhs, rhs=rhs, slack=(rhs * 1.01 - lhs) / rhs))
    return VerificationReport(
        claim_id="root-monotonicity",
        passed=all(r.slack >= 0.0 for r in records),
        details=tuple(records),
        notes=(f"2m-th roots of clamped eigenvalues compared across orders "
               f"{orders}; both sides are upper bounds and the 1% slack "
               f"absorbs their discretization error"),
        config_echo={"orders": orders, "k_max": k_max,
                     "n": {str(m): grid[m] for m in orders},
                     "domain": dom.as_json()},
    )


def claim_convex_square(cfg: RunConfig) -> VerificationReport:
    """Certificate that the order-2 free eigenvalues sit below the squared
    order-1 ones on the unit square, whatever lx and ly say.

    The right side is exact (closed-form enumeration) and the left side is an
    upper bound of the true value, so nonnegative slack certifies the
    inequality for the true spectra, not just the computed ones.
    """
    mu = _perturbed(solve_2d_spectrum(2, BC_NEUMANN, cfg.n, Domain.rectangle(), cfg.k_max,
                                     cfg.tol).values, cfg.perturb)
    mu1 = square_laplacian_eigs(BC_NEUMANN, cfg.k_max)
    pairs = zip(mu.tolist(), (v ** 2 for v in mu1.tolist()))
    records = tuple(CheckRecord(k=k, lhs=lhs, rhs=rhs, slack=(rhs - lhs) / max(rhs, 1.0))
                    for k, (lhs, rhs) in enumerate(pairs, start=1))
    return VerificationReport(
        claim_id="convex-square",
        passed=all(r.slack >= 0.0 for r in records),
        details=records,
        notes="computed order-2 free values (upper bounds) against the squares "
              "of exact order-1 free values of the unit square",
        config_echo={"n": cfg.n, "k_max": cfg.k_max},
    )


def claim_conjecture_probe(cfg: RunConfig) -> VerificationReport:
    """mu_hat_{k+z}, z = n_poly_dim(2, m), against nu_k^m: recorded, never asserted."""
    z = n_poly_dim(2, cfg.m)
    records, notes, echo = _free_below_dirichlet(cfg, z)
    notes = (f"conjecture - not asserted: free index shifted by the zero-mode count {z} "
             f"instead of m; this claim never fails a suite; " + notes)
    return VerificationReport("conjecture-probe", True, records, notes, {**echo, "offset": z})


def oned_counterexample(k: int) -> VerificationReport:
    """Why no strict gap exists on an interval, shown concretely at m=1.

    v = cos(k pi x) on (0,1) satisfies the free boundary conditions
    (v'(0) = v'(1) = 0) and splits as e^(i k pi x) - i sin(k pi x): a wave of
    the order-1 trial family plus the k-th clamped eigenfunction.  The
    combined space of the chain argument therefore contains an exact free
    eigenfunction at the clamped level, and the inequality collapses to
    equality.  The split is checked at 100 equispaced points.
    """
    if k < 1:
        raise InvalidArgumentError(f"need k >= 1, got {k}")
    w = k * pi
    trace = max(abs(-w * np.sin(0.0)), abs(-w * np.sin(w * 1.0))) / w
    x = np.linspace(0.0, 1.0, 100)
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
        config_echo={"k": k, "points": 100},
    )


def claim_oned_counterexample(cfg: RunConfig) -> VerificationReport:
    """oned_counterexample for k = 1, 2, 3, merged."""
    return merge_reports("oned-counterexample", [oned_counterexample(k) for k in (1, 2, 3)])


def claim_trial_identities(cfg: RunConfig) -> VerificationReport:
    """Both plane-wave identities on a seeded wave combination per order m.

    For m = 1, 2, 3 in turn, one random.Random(cfg.seed) draws the angle
    theta on [0, 2 pi) and length r on [2, 8) of omega, then m coefficients
    alpha_j whose real and imaginary parts are 2u - 1, then 100 points of
    the unit square.  That stream is the one Python keeps the same across
    versions for the same seed, and drawing it loads no numpy.random.
    Records per m: the residuals of wave_identity_residuals, each within 1e-12.
    """
    rng = Random(cfg.seed)
    draw = rng.random
    records = []
    for m in (1, 2, 3):
        theta = rng.uniform(0.0, 2.0 * pi)
        r = rng.uniform(2.0, 8.0)
        omega = np.array([r * cos(theta), r * sin(theta)])
        alpha = np.array([complex(2.0 * draw() - 1.0, 2.0 * draw() - 1.0) for _ in range(m)])
        points = np.array([(draw(), draw()) for _ in range(100)])
        res_pde, res_grad = wave_identity_residuals(m, omega, alpha, points)
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


def claim_chain_certificate(cfg: RunConfig) -> VerificationReport:
    """Per k = 1..k_max, the largest Rayleigh quotient on W against
    lambda_hat_k (1 + tol_identity) and the combined basis Gram against
    GRAM_SV_FLOOR, from one clamped solve and one certified_chain_bound pass."""
    dom = Domain.rectangle(cfg.lx, cfg.ly)
    eigsys = solve_2d_eigensystem(cfg.m, BC_DIRICHLET, cfg.n, dom,
                                  count=cfg.k_max, tol=cfg.tol)
    records = []
    for k, cert in enumerate(certified_chain_bound(eigsys), start=1):
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


def claim_vandermonde(cfg: RunConfig) -> VerificationReport:
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


# ---------------------------------------------------------------------------
# claim registry and suite


class ClaimSpec:
    """A registered claim: its id, one-line statement and builder(cfg) -> report.

    A plain slotted class rather than a named tuple, so that build can be
    rebound, as a tracer that wraps every claim builder does.
    """

    __slots__ = ("claim_id", "statement", "build")

    def __init__(self, claim_id: str, statement: str, build) -> None:
        self.claim_id, self.statement, self.build = claim_id, statement, build


CLAIMS: dict[str, ClaimSpec] = {
    c.claim_id: c for c in (
        ClaimSpec("chain-certificate",
                  "the combined eigenvector/wave space keeps its Rayleigh quotient "
                  "at or below the clamped target level", claim_chain_certificate),
        ClaimSpec("conjecture-probe",
                  "free eigenvalues shifted by the zero-mode count against nu_k^m, a lower "
                  "bound of the clamped ones (informational)", claim_conjecture_probe),
        ClaimSpec("convex-square",
                  "order-2 free eigenvalues below squared order-1 free eigenvalues "
                  "on the unit square", claim_convex_square),
        ClaimSpec("interpolation",
                  "geometric-mean bound between consecutive gradient energies, and "
                  "the Laplacian-power rewrite", claim_interpolation),
        ClaimSpec("oned-coincidence",
                  "clamped and free boundary determinants on an interval share "
                  "their positive roots", claim_oned_coincidence),
        ClaimSpec("oned-counterexample",
                  "on an interval the shifted comparison is an equality, shown by "
                  "an explicit free eigenfunction", claim_oned_counterexample),
        ClaimSpec("root-monotonicity",
                  "2m-th roots of clamped eigenvalues increase with the order m",
                  claim_root_monotonicity),
        ClaimSpec("theorem-strict",
                  "free eigenvalues shifted by m sit strictly below clamped ones "
                  "on rectangles, certified against the exact lower bound nu_k^m "
                  "of the clamped ones",
                  claim_theorem_strict),
        ClaimSpec("trial-identities",
                  "closed-form wave identities hold at rounding level",
                  claim_trial_identities),
        ClaimSpec("vandermonde",
                  "wave families are linearly independent: root-of-unity "
                  "Vandermonde determinants are nonzero", claim_vandermonde),
        ClaimSpec("weak-minmax",
                  "free eigenvalues at or below nu_k^m, a lower bound of the clamped ones, "
                  "at equal rank", claim_weak_minmax),
        ClaimSpec("zero-modes",
                  "the free spectrum starts with exactly as many zeros as there "
                  "are low-degree polynomials", claim_zero_modes),
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
        by_id.setdefault(cid, []).append(CLAIMS[cid].build(cfg._replace(**ov)))
    merged = []
    for cid in sorted(by_id):
        parts = by_id[cid]
        merged.append(parts[0] if len(parts) == 1 else merge_reports(cid, parts))
    return merged


def suite_passed(reports: list[VerificationReport]) -> bool:
    return all(r.passed for r in reports)
