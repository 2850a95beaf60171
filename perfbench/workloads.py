"""Workload inputs and the checks their outputs must pass.

Every reference here is computed without importing phlab: closed-form
spectra, a bisection of the beam frequency equation written out below, and
properties the method must have.  A check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random

M_BC = [(m, bc) for m in (1, 2, 3) for bc in ("dirichlet", "neumann")]

# (m, bc, n) of the rect workload: large pencils, one solve each.
RECT_SIZES = [(1, "dirichlet", 36), (1, "neumann", 36), (2, "dirichlet", 32),
              (2, "neumann", 32), (3, "dirichlet", 24), (3, "neumann", 16)]
RECT_COUNT = 20
ONED_COUNT = 60
# (m, n, k_max) of the certify workload: 30 + 30 + 12 chain certificates.
CHAIN_RUNS = [(1, 24, 30), (2, 24, 30), (3, 16, 12)]
CLAIM_IDS = ("chain-certificate", "conjecture-probe", "convex-square", "interpolation",
             "oned-coincidence", "oned-counterexample", "root-monotonicity",
             "theorem-strict", "trial-identities", "vandermonde", "weak-minmax",
             "zero-modes")
# Clamped plate on the unit square (Bjorstad & Tjostheim, Computing 63, 1999).
PLATE_LAMBDA1 = 1294.9339796
TOL_IDENTITY = 1e-9  # phlab's default, which the certify commands keep

WORKLOADS = ("suite", "rect", "interval", "certify")
ERROR_PREFIX = "exit code"  # verdict of a command that ended with an error


def commands(workload: str, seed: int) -> list[list[str]]:
    """One round of phlab argument lists, in an order drawn from the seed.

    The seed also sets the suite's sample seed, which leaves the work and
    every count the tracer makes unchanged.  The interval length stays 1:
    the 1D scan is scale-free, but its bisection steps vary with the length
    by a few evaluations, and the counts must repeat exactly between runs.
    """
    rng = random.Random(seed)
    if workload == "suite":
        return [["all", "--stable-output", "--seed", str(seed % 2 ** 32)]]
    if workload == "rect":
        ops = [["spectrum2d", "--m", str(m), "--bc", bc, "--n", str(n),
                "--count", str(RECT_COUNT)] for m, bc, n in RECT_SIZES]
    elif workload == "interval":
        ops = [["oned", "--m", str(m), "--bc", bc, "--count", str(ONED_COUNT)]
               for m, bc in M_BC]
    elif workload == "certify":
        ops = [["verify", "chain", "--m", str(m), "--n", str(n), "--k-max", str(k)]
               for m, n, k in CHAIN_RUNS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def work_units(workload: str) -> int:
    """Results one round returns: claims, eigenvalues, positive roots, certificates."""
    if workload == "suite":
        return len(CLAIM_IDS)
    if workload == "rect":
        return len(RECT_SIZES) * RECT_COUNT
    if workload == "interval":
        return sum(ONED_COUNT - (m if bc == "neumann" else 0) for m, bc in M_BC)
    return sum(k for _, _, k in CHAIN_RUNS)


def _flag(argv: list[str], name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def free_zero_count(d: int, m: int) -> int:
    """Polynomials of degree < m in d variables: C(d + m - 1, d)."""
    return math.comb(d + m - 1, d)


def laplace_square(bc: str, count: int, side: float = 1.0) -> list[float]:
    """pi^2 (p^2 + q^2) / side^2 over p, q >= 1 (clamped) or >= 0 (free)."""
    lo = 1 if bc == "dirichlet" else 0
    r = lo + int(math.isqrt(count)) + 3
    vals = sorted((math.pi / side) ** 2 * (p * p + q * q)
                  for p in range(lo, r) for q in range(lo, r))
    return vals[:count]


def beam_betas(count: int) -> list[float]:
    """First positive roots of cos(b) cosh(b) = 1, one in each (k pi, (k+1) pi)."""
    out = []
    for k in range(1, count + 1):
        lo, hi = k * math.pi, (k + 1) * math.pi
        f_lo = math.cos(lo) - 1.0 / math.cosh(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            f_mid = math.cos(mid) - 1.0 / math.cosh(mid)
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return out


def _ascending(vals: list[float]) -> str | None:
    if any(b < a for a, b in zip(vals, vals[1:])):
        return "eigenvalues not ascending"
    return None


def _zero_block(vals: list[float], zeros: int) -> str | None:
    lead = sum(1 for v in vals[:zeros] if v == 0.0)
    rest = [v for v in vals[zeros:] if not v > 0.0]
    if lead != zeros or rest:
        return f"expected exactly {zeros} leading zeros, found {lead} and {len(rest)} later"
    return None


def check_interval(argv: list[str], vals: list[float]) -> str | None:
    m, bc = int(_flag(argv, "--m")), _flag(argv, "--bc")
    if len(vals) != ONED_COUNT:
        return f"expected {ONED_COUNT} eigenvalues, got {len(vals)}"
    zeros = m if bc == "neumann" else 0
    bad = _zero_block(vals, zeros) or _ascending(vals)
    if bad:
        return bad
    pos = vals[zeros:]
    betas = [v ** (1.0 / (2 * m)) for v in pos]  # on the unit interval
    if m == 1:
        ref = [((k + 1) * math.pi) ** 2 for k in range(len(pos))]
    elif m == 2:
        ref = [b ** 4 for b in beam_betas(len(pos))]
    else:
        ref = None
    if ref is not None:
        worst = max(_rel(v, r) for v, r in zip(pos, ref))
        if worst > 1e-10:
            return f"m={m} roots off the independent reference by {worst:.2e} relative"
    for k, b in enumerate(betas, start=1):
        if k >= 12 and abs(b / math.pi - (k + (m - 1) / 2)) > 1e-9:
            return f"root {k}: beta/pi = {b / math.pi!r} misses the asymptote {k + (m - 1) / 2}"
    return None


def check_coincidence(pos_d: list[float], pos_n: list[float]) -> str | None:
    """Clamped and free interval problems share every positive eigenvalue."""
    worst = max(_rel(a, b) for a, b in zip(pos_n, pos_d))
    if worst > 1e-9:
        return f"clamped and free positive roots differ by {worst:.2e} relative"
    return None


def check_rect(argv: list[str], vals: list[float]) -> str | None:
    m, bc = int(_flag(argv, "--m")), _flag(argv, "--bc")
    if len(vals) != RECT_COUNT:
        return f"expected {RECT_COUNT} eigenvalues, got {len(vals)}"
    zeros = free_zero_count(2, m) if bc == "neumann" else 0
    bad = _zero_block(vals, zeros) or _ascending(vals)
    if bad:
        return bad
    if m == 1:
        ref = laplace_square(bc, RECT_COUNT)
        worst = max(_rel(v, r) for v, r in zip(vals[zeros:], ref[zeros:]))
        if worst > 1e-8:
            return f"m=1 spectrum off pi^2 (p^2 + q^2) by {worst:.2e} relative"
    if bc == "dirichlet":
        if _rel(vals[2], vals[1]) > 1e-8:
            return f"square symmetry broken: lambda_2={vals[1]!r}, lambda_3={vals[2]!r}"
        if m == 2 and _rel(vals[0], PLATE_LAMBDA1) > 1e-8:
            return f"clamped plate lambda_1={vals[0]!r}, reference {PLATE_LAMBDA1}"
    return None


def check_rect_pair(m: int, lam: list[float], mu: list[float]) -> str | None:
    """Weak mu_k <= lambda_k and shifted mu_{k+m} < lambda_k (clamped lam, free mu)."""
    for k in range(len(lam)):
        if mu[k] > lam[k] * (1.0 + 1e-9):
            return f"m={m}: free mu_{k + 1}={mu[k]!r} above clamped {lam[k]!r}"
        if k + m < len(mu) and not mu[k + m] < lam[k]:
            return f"m={m}: shifted free mu_{k + m + 1} not below clamped lambda_{k + 1}"
    return None


def check_chain(argv: list[str], report: dict) -> str | None:
    m, k_max = int(_flag(argv, "--m")), int(_flag(argv, "--k-max"))
    if report.get("passed") is not True or len(report.get("claims", [])) != 1:
        return "chain report did not pass"
    rows = report["claims"][0]["details"]
    if len(rows) != 2 * k_max:
        return f"expected {2 * k_max} records, got {len(rows)}"
    lams = []
    for k in range(1, k_max + 1):
        cert, gram = rows[2 * k - 2], rows[2 * k - 1]
        if cert["k"] != k or gram["k"] != k:
            return f"records out of order at k={k}"
        lam = cert["rhs"] / (1.0 + TOL_IDENTITY)
        lams.append(lam)
        if abs(cert["lhs"] / lam - 1.0) > TOL_IDENTITY:
            return f"k={k}: max Rayleigh / lambda_k - 1 = {cert['lhs'] / lam - 1.0:.2e}"
        if not gram["lhs"] > 1e-8:
            return f"k={k}: combined basis degenerate ({gram['lhs']!r})"
    bad = _ascending(lams)
    if bad:
        return bad
    if k_max >= 3 and _rel(lams[2], lams[1]) > 1e-8:
        return f"square symmetry broken: lambda_2={lams[1]!r}, lambda_3={lams[2]!r}"
    if m == 2 and _rel(lams[0], PLATE_LAMBDA1) > 1e-8:
        return f"clamped plate lambda_1={lams[0]!r}, reference {PLATE_LAMBDA1}"
    if m == 1:
        ref = laplace_square("dirichlet", k_max)
        worst = max(_rel(v, r) for v, r in zip(lams, ref))
        if worst > 1e-8:
            return f"m=1 chain levels off pi^2 (p^2 + q^2) by {worst:.2e} relative"
    return None


def check_suite(report: dict) -> str | None:
    ids = tuple(sorted(c.get("claim_id") for c in report.get("claims", [])))
    if ids != CLAIM_IDS:
        return f"suite claim ids {ids} differ from the 12 expected"
    if report.get("passed") is not True:
        failed = [c["claim_id"] for c in report["claims"] if not c["passed"]]
        return f"suite did not pass: {failed}"
    return None


def wrong_answer(verdict: str) -> bool:
    """A failed check, as opposed to a command that ended with an error."""
    return not verdict.startswith(ERROR_PREFIX)


def check_repeat(first: str, out: str) -> str | None:
    """The same command prints the same answer in every round of a run.

    Suite output is --stable-output and must match byte for byte; the other
    commands print their wall time as runtime_ms, which is left out.
    """
    if out == first:
        return None
    a, b = json.loads(first), json.loads(out)
    if "runtime_ms" in a and "runtime_ms" in b:
        del a["runtime_ms"], b["runtime_ms"]
        if a == b:
            return None
    return "output differs from the first round of this run"


def check_round(workload: str, results: list[tuple[list[str], int, str]]) -> list[str | None]:
    """Check one round; results holds (argv, exit code, stdout) per command.

    Returns one verdict per command.  A check that spans two commands (the
    clamped/free pairs) is charged to the free one.
    """
    verdicts: list[str | None] = []
    parsed = []
    for argv, code, out in results:
        doc = None
        if code in (0, 1):  # 1: phlab ran and reports a failed claim
            try:
                doc = json.loads(out)
            except ValueError:
                pass
        parsed.append(doc)
        if code not in (0, 1):
            verdicts.append(f"{ERROR_PREFIX} {code}")
        elif doc is None:
            verdicts.append("output is not JSON")
        elif workload == "suite":
            verdicts.append(check_suite(doc))
        elif workload == "certify":
            verdicts.append(check_chain(argv, doc))
        elif workload == "interval":
            verdicts.append(check_interval(argv, doc.get("eigenvalues", [])))
        else:
            verdicts.append(check_rect(argv, doc.get("eigenvalues", [])))
    if workload in ("interval", "rect"):
        spectra = {}
        for i, (argv, _, _) in enumerate(results):
            if verdicts[i] is None:
                spectra[(int(_flag(argv, "--m")), _flag(argv, "--bc"))] = (i, parsed[i]["eigenvalues"])
        for m in (1, 2, 3):
            if (m, "dirichlet") not in spectra or (m, "neumann") not in spectra:
                continue
            _, lam = spectra[(m, "dirichlet")]
            i, mu = spectra[(m, "neumann")]
            if workload == "interval":
                verdicts[i] = check_coincidence(lam[:ONED_COUNT - m], mu[m:])
            else:
                verdicts[i] = check_rect_pair(m, lam, mu)
    return verdicts
