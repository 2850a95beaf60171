"""Run one phlab command with every phlab function wrapped in a span recorder.

Usage: python3 tracer.py SUMMARY.json phlab-arg...

The wrappers are installed from outside the package: each module-level
public function of phlab is replaced, at every module binding that holds it,
by one wrapper that records (function, start, end, parent span) in memory.
Claim builders in the harness registry are wrapped as harness.claim.<id>.
After the command ends, spans are reduced to per-function and per-layer
figures written to SUMMARY.json; the command's own output and exit code are
left as they would be without tracing.  Worker threads take the span open in
the main thread as their parent, so claims run on the harness thread pool
nest under run_suite.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import types
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "harness", "galerkin", "linalg", "oned", "trialspace", "model")


def _solve_key(a: dict) -> tuple:
    dom = a["domain"]
    return (a["m"], a["bc"], a["n"], dom.lx, dom.ly, a["tol"])


# function -> key of its bound arguments; `<function>.distinct` counts the
# distinct keys in one process, which is what a per-command cache could save.
DISTINCT = {"galerkin.solve_2d_eigensystem": _solve_key,
            "linalg.gauss_legendre": lambda a: int(a["n"])}
# function -> (counter, amount one call adds, from its bound arguments and result)
COUNTERS = {"linalg.solve_gen_eig": ("linalg.solve_gen_eig.dim3_sum",
                                     lambda a, r: int(a["A"].shape[0]) ** 3),
            "oned.positive_roots": ("oned.positive_roots.returned", lambda a, r: len(r))}
# functions whose first call in a process is timed as `<function>.first_s`
FIRST_CALL = ("linalg.solve_gen_eig",)


class Recorder:
    """Spans and counters of one process, kept in memory until the command ends."""

    def __init__(self):
        self.names: list[str] = []       # function id -> "layer.name"
        self.spans: list[tuple] = []     # (span id, function id, start, end, parent id)
        self.ids = itertools.count()
        self.local = threading.local()
        self.main_stack: list[int] = []
        self.local.stack = self.main_stack
        self.counters: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.lock = threading.Lock()  # probes run on the harness worker threads too

    def _stack(self) -> list[int]:
        """This thread's open spans; a new thread starts under the main thread's."""
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = self.main_stack[-1:]
        return st

    def wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        rec = self
        key_of = DISTINCT.get(name)
        counter, amount = COUNTERS.get(name, (None, None))
        # a wrapped function reads 0 until called, so only a removed one is absent
        if key_of is not None:
            self.keys[name] = set()
        if counter is not None:
            self.counters[counter] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = rec._stack()
            parent = st[-1] if st else -1
            sid = next(rec.ids)
            st.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.pop()
                rec.spans.append((sid, fid, t0, t1, parent))
            if key_of is not None or counter is not None:
                a = _bound(fn, args, kwargs)
                with rec.lock:
                    if key_of is not None:
                        rec.keys[name].add(key_of(a))
                    if counter is not None:
                        rec.counters[counter] += amount(a, result)
            return result

        return wrapper


def _bound(fn, args, kwargs) -> dict:
    b = inspect.signature(fn).bind(*args, **kwargs)
    b.apply_defaults()
    return b.arguments


def install(rec: Recorder) -> types.ModuleType:
    """Wrap phlab's public functions at every binding; return the cli module."""
    import phlab
    import phlab.cli
    mods = [phlab] + [sys.modules[f"phlab.{name}"] for name in LAYERS]
    wrappers: dict[int, Callable] = {}
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("phlab.")):
                continue
            if id(obj) not in wrappers:
                name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                wrappers[id(obj)] = rec.wrap(obj, name)
            setattr(mod, attr, wrappers[id(obj)])
    for spec in phlab.harness.CLAIMS.values():
        object.__setattr__(spec, "build",
                           rec.wrap(spec.build, f"harness.claim.{spec.claim_id}"))
    return phlab.cli


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(rec: Recorder) -> dict:
    """Per-function calls and outermost time; per-layer self time; probe figures."""
    spans = {s[0]: s for s in rec.spans}
    children: dict[int, list] = {}
    for sid, fid, t0, t1, parent in rec.spans:
        children.setdefault(parent, []).append((t0, t1))
    funcs = {name: {"calls": 0, "total_s": 0.0} for name in rec.names}
    layers = {layer: 0.0 for layer in LAYERS}
    first: dict[str, float] = {}
    for sid, fid, t0, t1, parent in sorted(rec.spans, key=lambda s: s[2]):
        name = rec.names[fid]
        f = funcs[name]
        f["calls"] += 1
        layers[name.split(".", 1)[0]] += (t1 - t0) - _covered(children.get(sid, []))
        if name in FIRST_CALL:
            first.setdefault(name, t1 - t0)
        p = parent
        while p != -1 and rec.names[spans[p][1]] != name:
            p = spans[p][4]
        if p == -1:  # outermost call of this function on its path
            f["total_s"] += t1 - t0
    for name in FIRST_CALL:
        if name in funcs:
            funcs[name]["first_s"] = first.get(name, 0.0)
    return {"functions": funcs, "layers": layers, "counters": rec.counters,
            "distinct": {k: len(v) for k, v in rec.keys.items()}}


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    rec = Recorder()
    cli = install(rec)
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(summarize(rec), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
