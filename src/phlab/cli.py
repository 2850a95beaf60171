"""Command-line front end: configuration, solver runs, claim verification.

Exit codes: 0 all checks passed, 1 a verification claim failed, 2 usage or
configuration error or a missing required package (numpy), 3 numerical
failure, I/O error or exhausted memory.
Every failure also writes a single-line JSON object {"error": ...,
"exit_code": ...} to stderr.

Configuration precedence is flags > JSON config file > defaults, and the
resolved configuration is echoed into every output.  Floats are serialized
with 17 significant digits, which round-trips binary doubles exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from math import isfinite

from . import galerkin, harness, oned
from .model import (BC_DIRICHLET, BC_NEUMANN, CONFIG_DEFAULTS, CapabilityError, Domain,
                    InvalidArgumentError, NumericalError, PhlabError, RunConfig,
                    Spectrum, validate_config)

SPECTRUM_FORMATS = ("json", "csv")
REPORT_FORMATS = ("json", "markdown")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose failures map onto the usage exit code."""

    def error(self, message):
        raise InvalidArgumentError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    g = common.add_argument_group("problem configuration")
    g.add_argument("--m", type=int, default=None, help="operator order (1..3)")
    g.add_argument("--bc", choices=(BC_DIRICHLET, BC_NEUMANN), default=None,
                   help="boundary condition family")
    g.add_argument("--n", type=int, default=None, help="basis size per axis (2D)")
    g.add_argument("--count", type=int, default=None, help="number of eigenvalues")
    g.add_argument("--k-max", dest="k_max", type=int, default=None,
                   help="largest eigenvalue index a claim compares")
    g.add_argument("--length", type=float, default=None, help="interval length (1D)")
    g.add_argument("--lx", type=float, default=None, help="rectangle width")
    g.add_argument("--ly", type=float, default=None, help="rectangle height")
    g.add_argument("--domain", choices=("square", "rectangle"), default=None,
                   help="square forces ly = lx")
    g.add_argument("--seed", type=int, default=None, help="sample generator seed")
    g.add_argument("--perturb", type=float, default=None,
                   help="failure injection: relative scaling of computed free "
                        "eigenvalues inside claims")
    g.add_argument("--tol-zero", dest="tol_zero", type=float, default=None)
    g.add_argument("--tol-root", dest="tol_root", type=float, default=None)
    g.add_argument("--tol-identity", dest="tol_identity", type=float, default=None)
    g.add_argument("--margin-factor", dest="margin_factor", type=float, default=None)
    o = common.add_argument_group("output")
    o.add_argument("--config", default=None, metavar="PATH",
                   help="JSON config file (flags override it)")
    o.add_argument("--format", choices=("json", "csv", "markdown"), default=None)
    o.add_argument("--out", default=None, metavar="PATH",
                   help="write output here instead of stdout")
    o.add_argument("--stable-output", dest="stable_output", action="store_true",
                   help="omit runtime metadata so repeated runs are byte-identical")

    top = _Parser(prog="phlab",
                  description="Eigenvalue comparisons for clamped and free "
                              "polyharmonic problems on intervals and rectangles.")
    sub = top.add_subparsers(dest="command", metavar="command")
    sub.add_parser("oned", parents=[common],
                   help="exact interval spectrum via the boundary determinant")
    sub.add_parser("spectrum2d", parents=[common],
                   help="rectangle spectrum via the conforming Galerkin method")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run one or more verification claims")
    p_verify.add_argument("claims", nargs="+", metavar="claim",
                          help="claim ids or aliases; see --list")
    sub.add_parser("report", parents=[common],
                   help="run the full suite and render a Markdown report")
    sub.add_parser("all", parents=[common],
                   help="run the full verification suite")
    return top


def _resolve_config(ns: argparse.Namespace) -> RunConfig:
    file_layer: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, "r", encoding="utf-8") as fh:
                file_layer = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers undecodable bytes and integer literals
            # past the int-string limit; deep nesting raises RecursionError
            raise InvalidArgumentError(f"config file {ns.config}: {exc}") from exc
        if not isinstance(file_layer, dict):
            raise InvalidArgumentError("config file must hold a JSON object")
    flag_layer = {k: getattr(ns, k) for k in CONFIG_DEFAULTS}
    cfg = validate_config(file_layer, flag_layer)
    if ns.domain == "square":
        cfg = cfg.with_overrides(ly=cfg.lx)
    return cfg


def config_as_json(cfg: RunConfig) -> dict:
    """The resolved configuration as one flat dict, tolerances inlined."""
    out = cfg._asdict()
    out.update(out.pop("tol")._asdict())
    return out


# --- serialization ----------------------------------------------------------

def _scalar17(obj) -> str | None:
    """JSON text of a finite float, None, a bool, an int or a str; None for anything else."""
    if isinstance(obj, float):
        v = float(obj)
        if not isfinite(v):
            raise NumericalError(f"non-finite value {v!r} in output")
        return format(v, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # what json.dumps writes for a str
    return None


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with dict keys sorted and floats at 17 significant digits.

    A list or a dict is written as one join of its entries' texts; only an
    entry that is itself a list or a dict takes a recursive call.  A plain
    tuple is written as a list, but a named tuple, such as a model record, is
    refused rather than written as a list of its fields.
    """
    text = _scalar17(obj)
    if text is not None:
        return text
    pad, pad1 = "  " * indent, "  " * (indent + 1)
    sep = ",\n" + pad1
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{encode_basestring_ascii(str(k))}: "
                f"{_scalar17(obj[k]) or dumps17(obj[k], indent + 1)}"
                for k in sorted(obj, key=str)]
        return f"{{\n{pad1}{sep.join(rows)}\n{pad}}}"
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        rows = [_scalar17(v) or dumps17(v, indent + 1) for v in obj]
        return f"[\n{pad1}{sep.join(rows)}\n{pad}]"
    raise InvalidArgumentError(f"cannot serialize {type(obj).__name__}")


def spectrum_csv(spec: Spectrum) -> str:
    lines = ["k,value"]
    for k, v in enumerate(spec.values, start=1):
        lines.append(f"{k},{format(float(v), '.17g')}")
    return "\n".join(lines) + "\n"


def _badge(passed: bool) -> str:
    return "**PASS**" if passed else "**FAIL**"


def markdown_report(reports, cfg: RunConfig, runtime_ms: int | None) -> str:
    out = ["# verification report", ""]
    out.append("| claim | result | margin |")
    out.append("| --- | --- | --- |")
    for r in reports:
        out.append(f"| {r.claim_id} | {_badge(r.passed)} | {format(r.margin, '.17g')} |")
    out.append("")
    for r in reports:
        out.append(f"## {r.claim_id}")
        out.append("")
        claim = harness.CLAIMS.get(r.claim_id)
        if claim is not None:
            out.append(claim.statement)
            out.append("")
        out.append(f"{_badge(r.passed)} with margin {format(r.margin, '.17g')}")
        out.append("")
        if r.notes:
            out.append(r.notes)
            out.append("")
        out.append("| k | lhs | rhs | slack |")
        out.append("| --- | --- | --- | --- |")
        for rec in r.details:
            out.append(f"| {rec.k} | {format(rec.lhs, '.17g')} | "
                       f"{format(rec.rhs, '.17g')} | {format(rec.slack, '.17g')} |")
        out.append("")
        out.append("```json")
        out.append(dumps17(r.config_echo))
        out.append("```")
        out.append("")
    out.append("## resolved configuration")
    out.append("")
    out.append("```json")
    out.append(dumps17(config_as_json(cfg)))
    out.append("```")
    if runtime_ms is not None:
        out.append("")
        out.append(f"runtime: {runtime_ms} ms")
    return "\n".join(out) + "\n"


# --- command execution ------------------------------------------------------

def _pick_format(ns, allowed: tuple[str, ...], default: str) -> str:
    fmt = ns.format or default
    if fmt not in allowed:
        raise InvalidArgumentError(
            f"format {fmt!r} is not valid for this command; choose from {allowed}")
    return fmt


def _spectrum_command(ns, cfg: RunConfig, t0: float) -> tuple[str, bool]:
    if cfg.bc is None:
        raise InvalidArgumentError("this command needs --bc dirichlet or --bc neumann")
    fmt = _pick_format(ns, SPECTRUM_FORMATS, "json")
    if ns.command == "oned":
        spec = oned.solve_1d_spectrum(cfg.m, cfg.bc, cfg.count, cfg.length, cfg.tol)
    else:
        dom = Domain.rectangle(cfg.lx, cfg.ly)
        spec = galerkin.solve_2d_spectrum(cfg.m, cfg.bc, cfg.n, dom, cfg.count, cfg.tol)
    if fmt == "csv":
        return spectrum_csv(spec), True
    payload = spec.as_json()
    payload["config"] = config_as_json(cfg)
    if not ns.stable_output:
        payload["runtime_ms"] = int(round(1000.0 * (time.perf_counter() - t0)))
    return dumps17(payload) + "\n", True


def _report_command(ns, cfg: RunConfig, t0: float) -> tuple[str, bool]:
    default = "markdown" if ns.command == "report" else "json"
    fmt = _pick_format(ns, REPORT_FORMATS, default)
    if ns.command == "verify":
        tokens = [harness.resolve_claim_id(t) for t in ns.claims]
        reports = [harness.run_claim(t, cfg) for t in tokens]
    else:
        reports = harness.run_suite(cfg)
    passed = harness.suite_passed(reports)
    runtime = None if ns.stable_output else int(round(1000.0 * (time.perf_counter() - t0)))
    if fmt == "markdown":
        return markdown_report(reports, cfg, runtime), passed
    payload = {
        "schema_version": "1",
        "command": ns.command,
        "passed": passed,
        "claims": [r.as_json() for r in reports],
        "config": config_as_json(cfg),
    }
    if runtime is not None:
        payload["runtime_ms"] = runtime
    return dumps17(payload) + "\n", passed


def _deliver(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv: list[str] | None = None) -> int:
    t0 = time.perf_counter()
    try:
        ns = _build_parser().parse_args(argv)
        if ns.command is None:
            raise InvalidArgumentError("missing command; try 'phlab --help'")
        cfg = _resolve_config(ns)
        if ns.command in ("oned", "spectrum2d"):
            text, passed = _spectrum_command(ns, cfg, t0)
        else:
            text, passed = _report_command(ns, cfg, t0)
        _deliver(text, ns.out)
        return 0 if passed else 1
    except (InvalidArgumentError, CapabilityError) as exc:
        return _fail(str(exc), 2)
    except ModuleNotFoundError as exc:  # numpy, which every command but oned needs
        return _fail(f"this command needs the {exc.name} package, which is not installed", 2)
    except (NumericalError, OSError) as exc:
        return _fail(str(exc), 3)
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}", 3)
    except PhlabError as exc:
        return _fail(str(exc), 3)


def _fail(message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
