"""Solve time against n for every (m, bc) on the unit square, up to the first failure.

    python3 perfbench/scaling.py

Times phlab.galerkin.solve_2d_spectrum in this process at n = 8, 12, ...,
48, 50 with count = min(20, trusted capacity).  One warm-up solve comes
first, so the first LAPACK call's start-up is left out, and a solve under
1 s is timed 3 times and reported as the median.  At the first n that
fails, the sizes between the last pass and that n are tried one by one, so
the table ends at the last passing size and names the error of the first
failing one.  A size whose solve exceeds MAX_S seconds ends the sweep for
that (m, bc).  Prints a Markdown table.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from phlab.galerkin import solve_2d_spectrum, trusted_capacity  # noqa: E402
from phlab.model import Domain, PhlabError  # noqa: E402

SIZES = (8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 50)
MAX_S = 30.0


def solve(m: int, bc: str, n: int) -> tuple[float, str | None]:
    """Seconds for one solve; the median of 3 when a solve takes under 1 s."""
    times = []
    while len(times) < (1 if times and times[0] >= 1.0 else 3):
        t0 = time.perf_counter()
        try:
            solve_2d_spectrum(m, bc, n, Domain.rectangle(), min(20, trusted_capacity(n)))
        except PhlabError as exc:
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2], None


def sweep(m: int, bc: str) -> tuple[list[tuple[int, float]], str]:
    rows: list[tuple[int, float]] = []
    last_ok = m + 1
    for n in SIZES:
        if n < m + 2:
            continue
        t, err = solve(m, bc, n)
        if err is None:
            rows.append((n, t))
            last_ok = n
            if t > MAX_S:
                return rows, f"stopped: n={n} took more than {MAX_S:g} s"
            continue
        for n2 in range(last_ok + 1, n):
            t2, err2 = solve(m, bc, n2)
            if err2 is not None:
                return rows, f"n={n2}: {err2}"
            rows.append((n2, t2))
        return rows, f"n={n}: {err}"
    return rows, "no failure up to n=50"


def main() -> int:
    solve(1, "dirichlet", 8)  # warm-up
    print("| m | bc | n: solve seconds | first failure |")
    print("| --- | --- | --- | --- |")
    for m in (1, 2, 3):
        for bc in ("dirichlet", "neumann"):
            rows, end = sweep(m, bc)
            cells = ", ".join(f"{n}: {t:.3g}" for n, t in rows)
            print(f"| {m} | {bc} | {cells} | {end} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
