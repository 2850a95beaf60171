import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from phlab import cli, galerkin, harness, oned
from phlab.harness import CLAIMS
from phlab.model import (BC_DIRICHLET, CONFIG_DEFAULTS, CheckRecord, Domain,
                         InvalidArgumentError, MethodInfo, Spectrum, validate_config)
from phlab.oned import positive_roots

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def parse_spectrum_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "k,value":
        raise InvalidArgumentError("CSV header must be exactly 'k,value'")
    ks, vals = [], []
    for ln in lines[1:]:
        a, b = ln.split(",")
        ks.append(int(a))
        vals.append(float(b))
    return ks, vals


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_json17_round_trips_floats():
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789012345678, np.pi ** 2):
        assert json.loads(cli.dumps17(x)) == x


def test_json17_rejects_non_finite():
    from phlab.model import NumericalError
    with pytest.raises(NumericalError):
        cli.dumps17(float("inf"))
    # a model record is a named tuple, but never written as a JSON list
    for record in (CheckRecord(1, 2.0, 3.0, 1.0), Domain.rectangle(),
                   validate_config(dict(CONFIG_DEFAULTS))):
        with pytest.raises(InvalidArgumentError):
            cli.dumps17(record)


def test_config_json_keys_match_defaults():
    echoed = cli.config_as_json(validate_config(dict(CONFIG_DEFAULTS)))
    assert set(echoed) == set(CONFIG_DEFAULTS)
    assert echoed == CONFIG_DEFAULTS


def test_oned_json_schema(capsys):
    code, out, err = run_cli(capsys, "oned", "--m", "2", "--bc", "dirichlet",
                             "--count", "5", "--format", "json", "--stable-output")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["m"] == 2 and doc["bc"] == "dirichlet"
    assert doc["domain"] == {"shape": "interval", "length": 1}
    assert doc["trusted_count"] == 5
    assert "runtime_ms" not in doc
    assert doc["config"]["count"] == 5
    expected = positive_roots(2, BC_DIRICHLET, 5)
    assert np.allclose(doc["eigenvalues"], expected, rtol=1e-12)
    assert set(doc["tolerances"]) == {"tol_zero", "tol_root", "tol_identity",
                                      "margin_factor"}


def test_oned_runtime_field_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "oned", "--m", "1", "--bc", "neumann",
                           "--count", "2")
    assert code == 0
    assert "runtime_ms" in json.loads(out)


def test_csv_round_trip(capsys):
    code, out, _ = run_cli(capsys, "oned", "--m", "1", "--bc", "dirichlet",
                           "--count", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "k,value"
    ks, vals = parse_spectrum_csv(out)
    assert ks == list(range(1, 7))
    assert vals == [float(v) for v in positive_roots(1, BC_DIRICHLET, 6)]


def test_empty_spectrum_serializes():
    spec = Spectrum(m=1, bc=BC_DIRICHLET, domain=Domain.interval(),
                    method=MethodInfo("Exact1D"), values=())
    doc = json.loads(cli.dumps17(spec.as_json()))
    assert doc["eigenvalues"] == [] and doc["trusted_count"] == 0
    assert parse_spectrum_csv(cli.spectrum_csv(spec)) == ([], [])


def test_spectrum2d_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum2d", "--m", "1", "--bc", "dirichlet",
                           "--n", "10", "--count", "3", "--stable-output")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"]["kind"] == "Galerkin2D"
    assert np.allclose(doc["eigenvalues"][0], 2 * np.pi ** 2, rtol=1e-8)


def test_verify_reports_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "vandermonde", "identities",
                           "--stable-output")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["claim_id"] for c in doc["claims"]] == ["vandermonde", "trial-identities"]
    assert doc["config"]["seed"] == 1729


def test_verify_unknown_claim_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "no-such-claim")
    assert code == 2
    msg = json.loads(err)
    assert msg["exit_code"] == 2 and "unknown claim" in msg["error"]


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "oned", "--frequency", "3")
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


def test_missing_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2 and "command" in json.loads(err)["error"]


def test_missing_bc_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "oned", "--m", "1", "--count", "2")
    assert code == 2 and "--bc" in json.loads(err)["error"]


def test_format_command_mismatch(capsys):
    code, _, err = run_cli(capsys, "oned", "--m", "1", "--bc", "dirichlet",
                           "--count", "2", "--format", "markdown")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "vandermonde", "--format", "csv")
    assert code == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"m": 1, "bc": "dirichlet", "count": 3}))
    code, out, _ = run_cli(capsys, "oned", "--config", str(cfg), "--count", "4",
                           "--stable-output")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["m"] == 1          # from file
    assert doc["config"]["count"] == 4      # flag wins
    assert len(doc["eigenvalues"]) == 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mm": 1}))
    code, _, err = run_cli(capsys, "oned", "--config", str(cfg))
    assert code == 2 and "unknown config key" in json.loads(err)["error"]


@pytest.mark.parametrize("key, message", [("lx", "too large for a double"),
                                          ("tol_root", "too large for a double"),
                                          ("n", "exceeds the supported cap")])
def test_config_file_huge_integer_is_exit_2(tmp_path, capsys, key, message):
    # JSON integers are unbounded; one too large for a double is refused up front
    cfg = tmp_path / "run.json"
    cfg.write_text('{"%s": 1%s}' % (key, "0" * 400))
    code, out, err = run_cli(capsys, "spectrum2d", "--m", "1", "--bc", "dirichlet",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert message in json.loads(err)["error"]


@pytest.mark.parametrize("command", [("oned", "--bc", "dirichlet"), ("verify", "remark12")])
@pytest.mark.parametrize("huge", [False, True])
def test_root_count_above_cap_is_exit_2(tmp_path, monkeypatch, capsys, command, huge):
    # refused before the scan starts: a determinant evaluation fails the test
    def no_scan(*args):
        raise AssertionError("the root scan started")

    monkeypatch.setattr(oned, "det_indicator", no_scan)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"count": %s}' % ("1" + "0" * 400 if huge else oned.MAX_ROOTS + 1))
    code, out, err = run_cli(capsys, *command, "--m", "1", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"at most {oned.MAX_ROOTS} positive roots" in _one_line_error(err)["error"]


@pytest.mark.parametrize("huge", [False, True])
def test_interpolation_count_above_cap_is_exit_2(tmp_path, monkeypatch, capsys, huge):
    # refused before sampling: drawing a sample fails the test
    def no_samples(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(harness, "h0_sample_coeffs", no_samples)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"count": %s}' % ("1" + "0" * 400 if huge else harness.MAX_SAMPLES + 1))
    code, out, err = run_cli(capsys, "verify", "interpolation", "--m", "3", "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"at most {harness.MAX_SAMPLES} interpolation samples" in _one_line_error(err)["error"]


def test_capacity_refusal_names_the_cap_not_the_count(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"count": 1%s}' % ("0" * 400))
    code, out, err = run_cli(capsys, "spectrum2d", "--bc", "neumann", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "trusted capacity" in _one_line_error(err)["error"]
    assert len(err.encode()) < 200


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "oned", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("content", [b'{"m": 1, "bc": "\xff"}', b"[" * 100000,
                                     b'{"n": 1' + b"0" * 5000 + b"}"],
                         ids=["not-utf8", "nested-past-recursion-limit", "5001-digit-int"])
def test_config_file_undecodable_is_exit_2(tmp_path, capsys, content):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(content)
    code, out, err = run_cli(capsys, "oned", "--bc", "dirichlet", "--count", "2",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    msg = _one_line_error(err)
    assert msg["exit_code"] == 2 and str(cfg) in msg["error"]


@pytest.mark.parametrize("argv", [
    ("oned", "--m", "1", "--bc", "dirichlet", "--count", "2", "--format", "markdown"),
    ("spectrum2d", "--m", "3", "--bc", "dirichlet", "--n", "50", "--count", "2",
     "--format", "markdown"),
    ("verify", "theorem", "--format", "csv"),
    ("all", "--format", "csv"),
], ids=["oned", "spectrum2d", "verify", "all"])
def test_unsupported_format_is_refused_before_any_work(monkeypatch, capsys, argv):
    # the 1d scan and the 2d solve sit under every spectrum and every claim
    # these commands run
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the format was checked")

    monkeypatch.setattr(oned, "det_indicator", no_work)
    monkeypatch.setattr(galerkin, "solve_2d_eigensystem", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "format" in _one_line_error(err)["error"]


def test_out_path_failure_is_io_error(capsys):
    code, _, err = run_cli(capsys, "oned", "--m", "1", "--bc", "dirichlet",
                           "--count", "2", "--out", "/no/such/dir/x.json")
    assert code == 3 and json.loads(err)["exit_code"] == 3


def test_indefinite_mass_matrix_is_numerical_error(monkeypatch, capsys):
    # Grams whose mass has an indefinite (even, even) sub-block, diagonal
    # still positive: the per-axis Cholesky breaks down, which is exit 3
    table = galerkin.shape_table

    def indefinite_mass(bc, m, n, nq):
        F, G = table(bc, m, n, nq)
        G = G.copy()
        G[0, 0, 2] = G[0, 2, 0] = 2.0 * np.sqrt(G[0, 0, 0] * G[0, 2, 2])
        return F, G

    monkeypatch.setattr(galerkin, "shape_table", indefinite_mass)
    galerkin._solved_blocks.cache_clear()
    code, out, err = run_cli(capsys, "spectrum2d", "--m", "3", "--bc", "dirichlet",
                             "--n", "12", "--count", "20")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    msg = json.loads(lines[0])
    assert msg["exit_code"] == 3 and "not positive definite" in msg["error"]


def _one_line_error(err):
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def test_tiny_rectangle_side_is_refused(capsys):
    # the stiffness scales as (2 / lx)^(2m): where that overflows, assembly
    # refuses the side instead of raising OverflowError or feeding inf to eigh
    for m in (1, 2, 3):
        for bc in ("dirichlet", "neumann"):
            for lx in ("1e-120", "1e-160", "1e-200"):
                code, out, err = run_cli(capsys, "spectrum2d", "--m", str(m), "--bc", bc,
                                         "--n", "8", "--count", "3", "--lx", lx)
                assert code == 0 if (m, lx) == (1, "1e-120") else code in (0, 2), (m, bc, lx)
                if code == 2:
                    assert out == "" and _one_line_error(err)["exit_code"] == 2


def test_huge_rectangle_side_is_refused(capsys):
    # below the normal doubles the spectrum loses its digits: such a square is
    # refused before assembly instead of failing the zero-block check
    for side in ("1e50", "1e78", "1e100", "1e155", "1e200"):
        for m in (1, 2, 3):
            for bc in ("dirichlet", "neumann"):
                code, out, err = run_cli(capsys, "spectrum2d", "--m", str(m), "--bc", bc,
                                         "--n", "8", "--count", "3", "--lx", side, "--ly", side)
                assert code in (0, 2), (side, m, bc)
                if code == 2:
                    assert out == "" and "too large" in _one_line_error(err)["error"]
    # a clamped strip keeps the scale of its short side
    for m in (1, 2, 3):
        code, _, _ = run_cli(capsys, "spectrum2d", "--m", str(m), "--bc", "dirichlet",
                             "--n", "8", "--count", "3", "--lx", "1e100")
        assert code == 0, m


def test_operator_order_4_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "spectrum2d", "--m", "4", "--bc", "dirichlet")
    assert code == 2 and out == ""
    assert "supported orders are 1..3" in _one_line_error(err)["error"]


def test_extreme_interval_length_is_refused(capsys):
    for length, code_expected in (("1e-200", 2), ("1e200", 2), ("1e-100", 0), ("1e100", 0)):
        code, out, err = run_cli(capsys, "oned", "--m", "1", "--bc", "neumann",
                                 "--count", "3", "--length", length)
        assert code == code_expected, length
        if code == 2:
            msg = _one_line_error(err)
            assert f"length {float(length):g}" in msg["error"] and len(msg["error"]) < 200


def test_memory_error_is_exit_3(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 24.6 GiB for an array")

    monkeypatch.setattr(harness, "h0_sample_coeffs", no_memory)
    code, out, err = run_cli(capsys, "verify", "interpolation", "--m", "3",
                             "--count", str(harness.MAX_SAMPLES))
    assert code == 3 and out == ""
    msg = _one_line_error(err)
    assert msg["exit_code"] == 3 and "24.6 GiB" in msg["error"]


def test_clamped_m3_large_n_solves(capsys):
    # the 2d block mass used to break down in Cholesky from about n=27; the
    # per-axis factors have the square root of its condition number
    def first_values(n, ly):
        code, out, _ = run_cli(capsys, "spectrum2d", "--m", "3", "--bc", "dirichlet",
                               "--n", str(n), "--count", "20", "--ly", str(ly),
                               "--stable-output")
        assert code == 0, (n, ly)
        return json.loads(out)["eigenvalues"]

    ref = first_values(24, 1.0)[0]
    for n in (28, 40, 50):
        assert abs(first_values(n, 1.0)[0] - ref) <= 1e-8 * ref
        first_values(n, 0.5)


ALL_LAYERS = ["galerkin", "harness", "linalg", "model", "oned", "trialspace"]
ONED_RUNS = [["oned", "--m", str(m), "--bc", bc, "--count", "8", *fmt]
             for m in (1, 2, 3) for bc in ("dirichlet", "neumann")
             for fmt in (["--stable-output"], ["--format", "csv"])]


@pytest.mark.parametrize("argv, layers_run", [
    (["oned", "--m", "2", "--bc", "neumann", "--count", "5"], ["model", "oned"]),
    (["spectrum2d", "--m", "2", "--bc", "neumann", "--n", "10"],
     ["galerkin", "linalg", "model"]),
    (["verify", "interpolation", "--m", "2", "--count", "5"], ALL_LAYERS),
    (["verify", "chain", "--m", "2", "--n", "12", "--k-max", "3"], ALL_LAYERS),
], ids=["oned", "spectrum2d", "interpolation", "chain"])
def test_commands_do_not_load_scipy(capsys, argv, layers_run):
    # a layer that has not run yet keeps the lazy loader's module subclass;
    # oned runs on the standard library alone, so it does not load numpy
    # either.  It runs under -S, so that no .pth hook of site-packages loads
    # modules first, and its records load neither dataclasses nor typing.
    numpy_free = argv[0] == "oned"
    code = ("import sys, types\n"
            "from phlab.cli import main\n"
            f"assert main({argv!r} + ['--stable-output', '--out', {os.devnull!r}]) == 0\n"
            "assert 'scipy' not in sys.modules\n"
            "assert 'numpy.polynomial' not in sys.modules\n"
            "assert 'dataclasses' not in sys.modules\n"
            + ("for name in ('numpy', 'inspect', 'typing'):\n"
               "    assert name not in sys.modules, name\n" if numpy_free else "")
            + f"print([n for n in {ALL_LAYERS!r}\n"
            "       if type(sys.modules['phlab.' + n]) is types.ModuleType])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    flags = ["-S"] if numpy_free else []
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(layers_run)
    if numpy_free:
        # with numpy blocked (importing it raises) oned prints the same bytes,
        # as JSON and as CSV, for every (m, bc)
        blocked = ("import sys\n"
                   "sys.modules['numpy'] = None\n"
                   "from phlab.cli import main\n"
                   f"for argv in {ONED_RUNS!r}:\n"
                   "    assert main(argv) == 0\n")
        proc = subprocess.run([sys.executable, "-c", blocked], env=env, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        expected = []
        for run in ONED_RUNS:
            code, out, _ = run_cli(capsys, *run)
            assert code == 0
            expected.append(out)
        assert proc.stdout == "".join(expected)


@pytest.mark.parametrize("argv", [["spectrum2d", "--m", "1", "--bc", "dirichlet"],
                                  ["verify", "chain"], ["all"]],
                         ids=["spectrum2d", "chain", "all"])
def test_missing_numpy_exits_2_with_one_json_line(argv):
    # importing numpy raises; oned, which needs no numpy, is covered above
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from phlab.cli import main\n"
            f"sys.exit(main({argv!r} + ['--stable-output', '--out', {os.devnull!r}]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    doc = json.loads(lines[0])
    assert doc["exit_code"] == 2 and "numpy" in doc["error"]


def test_package_import_registers_layers_without_running_them():
    # perfbench/tracer.py reads each of its LAYERS from sys.modules right
    # after `import phlab.cli`
    code = ("import sys\n"
            f"sys.path.insert(0, {PERFBENCH!r})\n"
            "import tracer\n"
            "import phlab\n"
            "assert 'numpy' not in sys.modules\n"
            "import phlab.cli\n"
            "missing = [n for n in tracer.LAYERS if 'phlab.' + n not in sys.modules]\n"
            "assert not missing, missing\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "phlab.cli", "oned", "--m", "1",
                           "--bc", "dirichlet", "--count", "3", "--stable-output"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert len(json.loads(proc.stdout)["eigenvalues"]) == 3


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_defaults_to_one_blas_thread(preset, expected):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run([sys.executable, "-c",
                           "import os, phlab; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == expected


def test_stable_output_identical_across_blas_threads():
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "phlab.cli", "all", "--stable-output"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_out_file_written(tmp_path, capsys):
    dest = tmp_path / "spectrum.json"
    code, out, _ = run_cli(capsys, "oned", "--m", "1", "--bc", "dirichlet",
                           "--count", "2", "--out", str(dest), "--stable-output")
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["bc"] == "dirichlet"


def test_perturbation_flips_claim(capsys):
    code, out, _ = run_cli(capsys, "verify", "remark12", "--m", "1",
                           "--count", "4", "--perturb", "1e-6")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False


def test_perturbation_crosses_exact_theorem_bound(capsys):
    # at m=1 on the unit square the free values scaled by 1 + p first reach
    # nu_k at p = 0.625 (k=8: mu_9 = 8 pi^2 against nu_8 = 13 pi^2)
    args = ("verify", "theorem", "--m", "1", "--n", "16", "--k-max", "9", "--stable-output")
    code, out, _ = run_cli(capsys, *args, "--perturb", "1.0")
    assert code == 1
    doc = json.loads(out)
    failed = [r["k"] for r in doc["claims"][0]["details"] if r["slack"] <= 0.0]
    assert 8 in failed
    code, _, _ = run_cli(capsys, *args, "--perturb", "0.5")
    assert code == 0


@pytest.mark.parametrize("claim, args, crossing, failed", [
    # m=1: mu_10 = 9 pi^2 reaches lambda_10 = 17 pi^2 at p = 8/9
    ("weak", ("--m", "1", "--n", "16", "--k-max", "10"), 1.0, [10]),
    # the first positive biharmonic free value 250.36 reaches (2 pi^2)^2 at
    # p = 0.556; k = 7..9 follow at p = 0.627 and 0.639
    ("convex", ("--n", "20", "--k-max", "10"), 1.0, [4, 7, 8, 9]),
])
def test_perturbation_crosses_weak_and_convex_bounds(capsys, claim, args, crossing, failed):
    argv = ("verify", claim, *args, "--stable-output")
    code, out, _ = run_cli(capsys, *argv, "--perturb", str(crossing))
    assert code == 1
    details = json.loads(out)["claims"][0]["details"]
    assert [r["k"] for r in details if r["slack"] < 0.0] == failed
    code, _, _ = run_cli(capsys, *argv, "--perturb", str(crossing / 2))
    assert code == 0


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize("claim", ["theorem", "weak", "conjecture", "convex", "remark12"])
def test_overflowing_perturbation_is_exit_2(capsys, claim, fmt):
    # scaled free eigenvalues that overflow are refused, with no warning lines
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", claim, "--perturb", "1e308",
                                 "--format", fmt, "--stable-output")
    assert code == 2 and out == "" and caught == []
    assert "perturb=1e+308" in _one_line_error(err)["error"]


@pytest.mark.parametrize("fmt", ["json", "markdown"])
@pytest.mark.parametrize("claim", ["theorem", "weak", "conjecture"])
def test_overflowing_rounding_charge_is_exit_2(capsys, claim, fmt):
    # a rounding charge margin_factor * tol_zero * mu_hat_(z+1) past double
    # precision is refused in every format alike
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", claim, "--m", "1", "--margin-factor", "1e308",
                                 "--tol-zero", "0.5", "--format", fmt, "--stable-output")
    assert code == 2 and out == "" and caught == []
    assert "margin_factor=1e+308" in _one_line_error(err)["error"]


@pytest.mark.parametrize("text", [False, True], ids=["json", "text"])
@pytest.mark.parametrize("argv", [
    ("spectrum2d", "--m", "1", "--bc", "neumann", "--tol-zero", "1.0"),
    ("spectrum2d", "--m", "1", "--bc", "dirichlet", "--tol-zero", "1"),
    ("oned", "--m", "1", "--bc", "neumann", "--tol-zero", "2"),
    ("verify", "weak", "--m", "1", "--tol-zero", "1"),
], ids=["spectrum2d-neumann", "spectrum2d-dirichlet", "oned", "weak"])
def test_tol_zero_of_one_or_more_is_refused(capsys, argv, text):
    # tol_zero >= 1 would zero the first positive eigenvalue and then fail its check
    fmt = ("markdown" if argv[0] == "verify" else "csv") if text else "json"
    code, out, err = run_cli(capsys, *argv, "--format", fmt, "--stable-output")
    assert code == 2 and out == ""
    assert "tol_zero must be below 1" in _one_line_error(err)["error"]


EDGE_CLAIMS = ("theorem", "weak", "zero-modes", "monotonicity", "convex", "conjecture", "chain")
EDGE_ARGS = {"k_max": ("--k-max", "2000"), "n51": ("--n", "51"), "n2": ("--n", "2"),
             "m3n3": ("--m", "3", "--n", "3"),
             # the chain certificate's wave needs 2028 Gauss nodes per axis at k=1
             "thin": ("--m", "1", "--n", "16", "--k-max", "3", "--ly", "1e-3")}
EDGE_CASES = [(claim, edge) for claim in EDGE_CLAIMS for edge in sorted(EDGE_ARGS)
              if edge != "thin" or claim == "chain"]


@pytest.mark.parametrize("claim, edge", EDGE_CASES)
def test_claim_edge_configs_are_refused(capsys, claim, edge):
    # each is refused by config validation or the solver; zero-modes has no k_max
    code, out, err = run_cli(capsys, "verify", claim, *EDGE_ARGS[edge], "--stable-output")
    if claim == "zero-modes" and edge == "k_max":
        assert code == 0 and json.loads(out)["passed"] is True
        return
    assert code == 2 and out == ""
    msg = _one_line_error(err)["error"]
    if edge == "thin":
        assert "k=1 on the 1 x 0.001 rectangle" in msg and "256-node limit" in msg, msg
        return
    assert any(s in msg for s in ("trusted capacity", "supported cap")), msg


@pytest.mark.parametrize("args", [("--n", "28"), ("--n", "5", "--k-max", "3")],
                         ids=["n28", "n5-k3"])
def test_root_monotonicity_runs_at_any_valid_grid(capsys, args):
    # neither a rounding-level rise from a coarser grid (n=28) nor a grid too
    # small to have a coarser one (n=5) refuses a valid request
    code, out, _ = run_cli(capsys, "verify", "monotonicity", *args, "--stable-output")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_output_deterministic(capsys):
    args = ("verify", "vandermonde", "identities", "--stable-output")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("m", [2, 3])
def test_chain_records_agree_across_blas_threads(m):
    # k=2 sits on the degenerate level lambda_2 = lambda_3 of the square; its
    # Gram record measures a basis of that eigenspace, which the parity-block
    # merge fixes independently of rounding
    docs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "phlab.cli", "verify", "chain",
                               "--m", str(m), "--n", "16", "--k-max", "4", "--stable-output"],
                              env=env, capture_output=True, text=True, check=True)
        docs.append(json.loads(proc.stdout)["claims"][0]["details"])
    one, two = docs
    assert [r["k"] for r in one] == [r["k"] for r in two]
    assert sum(r["k"] == 2 for r in one) == 2
    for a, b in zip(one, two):
        for key in ("lhs", "rhs"):
            assert abs(a[key] - b[key]) <= 1e-8 * abs(b[key]), (a, b)


def test_report_markdown_sections(capsys):
    code, out, _ = run_cli(capsys, "report", "--stable-output")
    assert code == 0
    for cid in CLAIMS:
        assert f"## {cid}" in out
    assert out.count("**PASS**") >= len(CLAIMS)
    assert "**FAIL**" not in out
    assert "## resolved configuration" in out
