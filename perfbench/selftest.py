"""Show that the workload checks reject wrong answers.

    python3 perfbench/selftest.py

Runs one round of every workload (seed 0) in this process, checks that the
real outputs pass, then feeds the checks altered copies: spectra scaled by
1 + 1e-6, a lost zero mode, a swapped pair, a split double eigenvalue, a
chain certificate above its level, a suite with a claim missing, a suite
that differs from an earlier round, and the real `phlab all --perturb 1e-3`.
Prints one line per case and exits 1 if a case expected to be caught
passes.  Spectra with no independent reference value (m=2 free and m=3 on
the square) are listed as not caught when scaled: only their structure is
checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402
from phlab.cli import main as phlab_main  # noqa: E402


def run(argv: list[str]) -> tuple[list[str], int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = phlab_main(argv)
    return argv, code, buf.getvalue()


def edit(result, fn):
    """Copy of one (argv, code, stdout) with fn applied to the parsed output."""
    argv, code, out = result
    doc = json.loads(out)
    fn(doc)
    return argv, code, json.dumps(doc)


def scale_spectrum(factor):
    def fn(doc):
        doc["eigenvalues"] = [v * factor for v in doc["eigenvalues"]]
    return fn


def key(argv):
    return (int(argv[argv.index("--m") + 1]), argv[argv.index("--bc") + 1])


def main() -> int:
    rounds = {wl: [run(argv) for argv in W.commands(wl, 0)] for wl in W.WORKLOADS}
    cases = []  # (label, expected caught, caught)

    for wl, res in rounds.items():
        verdicts = W.check_round(wl, res)
        cases.append((f"{wl}: real outputs pass", False, any(verdicts)))

    for wl in ("interval", "rect"):
        res = rounds[wl]
        for i, r in enumerate(res):
            m, bc = key(r[0])
            altered = list(res)
            altered[i] = edit(r, scale_spectrum(1.0 + 1e-6))
            expect = wl == "interval" or m == 1 or (m, bc) == (2, "dirichlet")
            cases.append((f"{wl} m={m} {bc}: scaled by 1+1e-6", expect,
                          W.check_round(wl, altered)[i] is not None))

    def swap(doc):
        e = doc["eigenvalues"]
        e[-1], e[-2] = e[-2], e[-1] * 1.01
    def lose_zero(doc):
        doc["eigenvalues"][0] = 1e-3
    def split_pair(doc):
        doc["eigenvalues"][2] *= 1.0 + 1e-6
    res = rounds["rect"]
    for label, fn, want in (("swapped top pair", swap, None),
                            ("lost a zero mode", lose_zero, "neumann"),
                            ("split lambda_2 = lambda_3", split_pair, "dirichlet")):
        for i, r in enumerate(res):
            if want is None or key(r[0])[1] == want:
                altered = list(res)
                altered[i] = edit(r, fn)
                m, bc = key(r[0])
                cases.append((f"rect m={m} {bc}: {label}", True,
                               W.check_round("rect", altered)[i] is not None))

    res = rounds["certify"]
    for i, r in enumerate(res):
        m = int(r[0][r[0].index("--m") + 1])

        def above(doc):
            doc["claims"][0]["details"][-2]["lhs"] *= 1.0 + 1e-8
        def degenerate(doc):
            doc["claims"][0]["details"][1]["lhs"] = 1e-9
        def levels(doc):
            for row in doc["claims"][0]["details"][0::2]:
                row["lhs"] *= 1.0 + 1e-6
                row["rhs"] *= 1.0 + 1e-6
        for label, fn, expect in (("max Rayleigh above its level", above, True),
                                  ("degenerate combined basis", degenerate, True),
                                  ("levels scaled by 1+1e-6", levels, m < 3)):
            altered = list(res)
            altered[i] = edit(r, fn)
            cases.append((f"certify m={m}: {label}", expect,
                          W.check_round("certify", altered)[i] is not None))

    suite = rounds["suite"][0]
    argv = suite[0]

    def drop_claim(doc):
        doc["claims"].pop()
    cases.append(("suite: a claim missing", True,
                  W.check_round("suite", [edit(suite, drop_claim)])[0] is not None))
    changed = suite[2].replace("e", "E", 1)
    cases.append(("suite: bytes differ from an earlier round", True,
                  W.check_repeat(suite[2], changed) is not None))
    perturbed = run(argv + ["--perturb", "1e-3"])
    cases.append(("suite: phlab all --perturb 1e-3", True,
                  W.check_round("suite", [perturbed])[0] is not None))

    missed = 0
    for label, expect, caught in cases:
        ok = caught == expect
        missed += not ok
        state = "caught" if caught else "passed"
        note = "" if ok else "   <-- UNEXPECTED"
        if not expect and caught is False and "scaled" in label:
            note = "   (no absolute reference for this spectrum)"
        print(f"{state:7} {label}{note}")
    print(f"{len(cases)} cases, {missed} unexpected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
