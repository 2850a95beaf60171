"""phlab benchmark: time phlab commands end to end and check every answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record FILE]
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

Run from the repository root.  Each operation is one phlab command run in a
fresh interpreter with src/ on PYTHONPATH, as a user's `phlab ...` call is;
a round is the workload's fixed list of operations (see workloads.py), and a
run repeats whole rounds while the next one is expected to end within
--seconds (always at least one).  Each untraced operation times its own
`from phlab.cli import main`, and setup_s is the median of those imports.

With --trace 0 the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, taken from
rounds whose commands run under tracer.py, alternated with untraced rounds so
that trace.overhead_s compares the two.  The line before it records the
environment (CPU count, numpy/scipy versions, BLAS and PHLAB thread
settings).  --record appends both to a JSON-lines file; --compare reads two
such files and prints, per workload and metric, medians, quartiles and
whether they agree within the benchmark's bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from statistics import median

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402

IMPORT_PROBE_REPEATS = 5
IMPORT_PROBES = {"cli.import.scipy_signal_s": "scipy.signal",
                 "cli.import.scipy_linalg_s": "scipy.linalg"}
# The import is timed inside the operation's interpreter and reported as the
# first line of its stderr, so every operation gives one setup_s sample.
PHLAB_MAIN = ("import sys, time; t0 = time.perf_counter(); from phlab.cli import main; "
              "print('setup_s', time.perf_counter() - t0, file=sys.stderr, flush=True); "
              "sys.exit(main(sys.argv[1:]))")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; operations past this are killed
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PHLAB_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    env = {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        env[pkg] = importlib.metadata.version(pkg)
    env.update({k: os.environ.get(k) for k in ENV_KEYS})
    return env


def child_env() -> dict:
    """The caller's environment with src/ first on the path and PHLAB_THREADS unset."""
    env = dict(os.environ)
    env.pop("PHLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts each child process, waits for it and reads its rusage."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir, self.deadline, self.env = workdir, deadline, child_env()

    def run(self, cmd: list[str]) -> tuple[float, int, str, str, float]:
        """(wall seconds, exit code, stdout, stderr, peak RSS in MB) of one process."""
        out_path = os.path.join(self.workdir, "stdout")
        err_path = os.path.join(self.workdir, "stderr")
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - t0, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            out = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        return wall, proc.returncode, out, err, usage.ru_maxrss / 1024.0


def setup_seconds(stderr: str) -> float | None:
    """The import time PHLAB_MAIN reports, or None if the import did not finish."""
    first = stderr.split("\n", 1)[0].split()
    return float(first[1]) if len(first) == 2 and first[0] == "setup_s" else None


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


@dataclass
class Round:
    """One pass over the workload's operations, traced or not."""

    walls: list[float]               # per operation, in round order
    imports: list[float]             # setup_s samples, untraced rounds only
    rss: float                       # largest peak RSS of the round's processes, MB
    verdicts: list[str | None]       # None where the operation passed its checks
    summaries: list[dict | None]     # tracer summaries, traced rounds only


def run_round(runner: Runner, workload: str, ops: list[list[str]], traced: bool,
              first_out: dict) -> Round:
    results, walls, rss, imports, summaries = [], [], [], [], []
    summary_path = os.path.join(runner.workdir, "trace.json")
    for argv in ops:
        if traced:
            cmd = [sys.executable, os.path.join(BENCH, "tracer.py"), summary_path, *argv]
        else:
            cmd = [sys.executable, "-c", PHLAB_MAIN, *argv]
        wall, code, out, err, peak = runner.run(cmd)
        walls.append(wall)
        if not traced and setup_seconds(err) is not None:
            imports.append(setup_seconds(err))
        rss.append(peak)
        results.append((argv, code, out))
        if traced:
            try:
                with open(summary_path, encoding="utf-8") as fh:
                    summaries.append(json.load(fh))
                os.remove(summary_path)
            except (OSError, ValueError):
                summaries.append(None)
    verdicts = W.check_round(workload, results)
    for i, (argv, _, out) in enumerate(results):
        if verdicts[i] is None:
            verdicts[i] = W.check_repeat(first_out.setdefault(tuple(argv), out), out)
    return Round(walls, imports, max(rss), verdicts, summaries)


def op_median_sum(rounds: list[Round]) -> float:
    """Per-operation medians over the rounds, summed: one slow round moves it least."""
    return sum(median(op) for op in zip(*(r.walls for r in rounds)))


def layer_figures(summaries: list[dict | None]) -> tuple[dict[str, float], set[str]]:
    """Per-layer figures of one traced round, summed over its processes.

    Returns the figures and the names some process reported; a function that
    no longer exists is in neither, reads 0 and is listed as absent.
    """
    figs: dict[str, float] = {}
    seen: set[str] = set()

    def add(name: str, value: float) -> None:
        figs[name] = figs.get(name, 0) + value
        seen.add(name)

    for s in summaries:
        if s is None:
            continue
        for layer, t in s["layers"].items():
            add(f"{layer}.self_s", t)
        for fname, f in s["functions"].items():
            add(f"{fname}.calls", f["calls"])
            add(f"{fname}_s", f["total_s"])
            if "first_s" in f:
                add(f"{fname}.first_s", f["first_s"])
        for fname, n in s["distinct"].items():
            add(f"{fname}.distinct", n)
        for key, n in s["counters"].items():
            add(key, n)
    if "oned.det_indicator.calls" in seen and "oned.positive_roots.returned" in seen:
        roots = figs.get("oned.positive_roots.returned", 0.0)
        add("oned.det_evals_per_root", figs["oned.det_indicator.calls"] / roots if roots else 0.0)
    return figs, seen


def import_probes(runner: Runner) -> tuple[dict[str, float], set[str]]:
    """Cumulative import seconds of the probed modules, from `python -X importtime`."""
    probes = [import_times(runner.run([sys.executable, "-X", "importtime", "-c",
                                       "import phlab.cli"])[3])
              for _ in range(IMPORT_PROBE_REPEATS)]
    figs = {name: median([p.get(module, 0.0) for p in probes])
            for name, module in IMPORT_PROBES.items()}
    absent = {name for name, module in IMPORT_PROBES.items()
              if not all(module in p for p in probes)}
    return figs, absent


def collect(args, runner: Runner, spec: dict) -> tuple[dict, set, list[Round]]:
    ops = W.commands(args.workload, args.seed)
    figs, absent = import_probes(runner) if args.trace else ({}, set())
    first_out: dict = {}
    untraced: list[Round] = []
    traced: list[Round] = []
    t_end = min(time.perf_counter() + args.seconds, runner.deadline)
    while True:
        t0 = time.perf_counter()
        untraced.append(run_round(runner, args.workload, ops, False, first_out))
        if args.trace:
            traced.append(run_round(runner, args.workload, ops, True, first_out))
        now = time.perf_counter()
        if now + (now - t0) > t_end:  # the next round would not end in time
            break

    wall = op_median_sum(untraced)
    if not args.trace:
        imports = [t for r in untraced for t in r.imports]
        if not imports:
            raise SystemExit("phlab.cli does not import")
        figs["setup_s"] = median(imports)
        figs["wall_s"] = wall
        figs["work_per_s"] = W.work_units(args.workload) / wall
        figs["peak_rss_mb"] = median([r.rss for r in untraced])
        return figs, absent, untraced
    per_round = [layer_figures(r.summaries) for r in traced]
    seen = set.intersection(*(s for _, s in per_round))
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            figs[name] = op_median_sum(traced) - wall
        elif name not in IMPORT_PROBES:
            figs[name] = median([f.get(name, 0) for f, _ in per_round])
            if name not in seen:
                absent.add(name)
    return figs, absent, untraced + traced


def measure(args, spec: dict) -> tuple[dict, dict]:
    start = time.perf_counter()
    workdir = os.path.join(BENCH, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        figs, absent, rounds = collect(args, Runner(workdir, start + RUN_LIMIT_S), spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(workdir))
    verdicts = [v for r in rounds for v in r.verdicts]
    failures = [v for v in verdicts if v is not None]
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": figs[m["name"]], "unit": m["unit"]} for m in spec[section]}
    result = {"correct": not any(W.wrong_answer(f) for f in failures),
              "attempted": len(verdicts), "failed": len(failures), "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "env": environment(),
              "commands": W.commands(args.workload, args.seed),
              "absent": sorted(absent & set(metrics)),
              "failures": sorted(set(failures))[:10],
              "elapsed_s": time.perf_counter() - start}
    return detail, result


# --- compare mode -------------------------------------------------------------

def _records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Print per workload and metric how two sets of runs compare; 1 if any disagree."""
    sets = [_records(path_a), _records(path_b)]
    envs = [{json.dumps(r["env"], sort_keys=True) for r in s} for s in sets]
    status = 0
    if envs[0] != envs[1] or len(envs[0]) != 1:
        print("environments differ between or within the sets:")
        for e in sorted(envs[0] | envs[1]):
            print("  ", e)
        status = 1
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = sorted({r["workload"] for s in sets for r in s})
    print(f"{'workload':9} {'metric':13} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32}"
          f" {'B/A-1':>8} {'spreadA':>8} {'spreadB':>8} {'bound':>6}  verdict")
    for wl in workloads:
        runs = [[r for r in s if r["workload"] == wl and r["trace"] == 0] for s in sets]
        if not all(runs):
            print(f"{wl:9} missing in one set")
            status = 1
            continue
        shares = [sum(r["result"]["failed"] for r in rs) / sum(r["result"]["attempted"] for r in rs)
                  for rs in runs]
        if shares[0] != shares[1]:
            print(f"{wl:9} failed share differs: {shares[0]!r} vs {shares[1]!r}")
            status = 1
        for name, m in bounds.items():
            qs = [_quartiles([r["result"]["metrics"][name]["value"] for r in rs]) for rs in runs]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in qs]
            change = qs[1][1] / qs[0][1] - 1.0
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "WORSE"
            elif max(spreads) > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif -worse > m["bound"]:
                verdict = "better"
            else:
                verdict = "agree"
            if verdict != "agree":
                status = 1
            cells = [f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in qs]
            print(f"{wl:9} {name:13} {cells[0]:>32} {cells[1]:>32} {change:8.2%}"
                  f" {spreads[0]:8.2%} {spreads[1]:8.2%} {m['bound']:6.2f}  {verdict}")
    print_layers(sets, spec)
    return status


def print_layers(sets: list[list[dict]], spec: dict) -> None:
    """Medians of the per-layer metrics of traced runs, where both sets have them."""
    for wl in sorted({r["workload"] for s in sets for r in s if r["trace"] == 1}):
        runs = [[r for r in s if r["workload"] == wl and r["trace"] == 1] for s in sets]
        if not all(runs):
            continue
        print(f"\nper-layer medians, {wl} ({len(runs[0])} vs {len(runs[1])} traced runs)")
        for m in spec["per_layer"]:
            a, b = (median([r["result"]["metrics"][m["name"]]["value"] for r in rs]) for rs in runs)
            if a or b:
                print(f"  {m['name']:42} {a:14.6g} {b:14.6g} {m['unit']}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="FILE", help="append this run to a JSON-lines file")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args()
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "phlab", "cli.py")):
        print(f"no phlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    detail, result = measure(args, spec)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**detail, "result": result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
