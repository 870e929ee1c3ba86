import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracbvp import cli, errors, shooting
from fracbvp.cli import (EXIT_HYPOTHESIS, EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK,
                         main, parse_alphas, parse_nonlinearity, parse_weight,
                         run)
from fracbvp.errors import HypothesisError


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_weight_specs():
    assert parse_weight("constant:2.5")(0.1) == 2.5
    hp = parse_weight("power_offset:4:0.5")
    assert hp(0.75) == pytest.approx(0.25 ** 4)
    poly = parse_weight("polynomial:1,0,1")
    assert poly(1.0) == pytest.approx(2.0)
    with pytest.raises(HypothesisError):
        parse_weight("gaussian:1")
    with pytest.raises(HypothesisError):
        parse_weight("constant:-1")


def test_parse_nonlinearity_specs():
    f = parse_nonlinearity("power:1:0.5")
    assert f.f(4.0) == pytest.approx(2.0)
    g = parse_nonlinearity("affine_power:2:0.5")
    assert g.f(1.0) == pytest.approx(4.0)
    with pytest.raises(HypothesisError):
        parse_nonlinearity("exp:1")


def test_parse_alphas_schedule():
    vals = parse_alphas("1.5:2.0:0.01")
    assert len(vals) == 51
    assert vals[0] == 1.5 and vals[-1] == 2.0
    assert parse_alphas("1.5,1.9,2.0") == [1.5, 1.9, 2.0]
    assert len(parse_alphas("1.5:2.0:0.0005")) == cli.MAX_SCHEDULE_STEPS + 1
    with pytest.raises(HypothesisError):
        parse_alphas("1.5:2.0:0.000499")


def test_eig_command_writes_artifacts(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    out = tmp_path / "run"
    rc = main(["eig", "--alpha", "2", "--weight", "constant:1",
               "--n", "200", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "eig.csv")
    assert rows[0] == ["alpha", "lambda1", "residual", "iterations"]
    assert float(rows[1][1]) == pytest.approx(math.pi ** 2, rel=1e-4)
    phi = _read_csv(out / "phi1.csv")
    assert phi[0] == ["t", "value"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "eig"
    assert manifest["outputs"] == ["eig.csv", "phi1.csv"]
    assert "timestamp" in manifest and "versions" in manifest
    # the BLAS builds and thread settings the CSV bytes depend on
    blas = manifest["blas"]
    assert set(blas) == {"numpy", "scipy", "threads"}
    assert blas["numpy"] and blas["scipy"]
    assert blas["threads"] == {"OPENBLAS_NUM_THREADS": "1",
                               "OMP_NUM_THREADS": None,
                               "MKL_NUM_THREADS": "2"}


def test_bounds_schema(tmp_path):
    out = tmp_path / "b"
    rc = main(["bounds", "--alpha", "2", "--weight", "constant:1",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "bounds.csv")
    assert rows[0] == ["alpha", "lower", "upper"]
    assert float(rows[1][1]) == 8.0
    assert float(rows[1][2]) == pytest.approx(120.0, rel=1e-9)


def test_sweep_schema_and_containment(tmp_path):
    out = tmp_path / "s"
    rc = main(["sweep", "--alphas", "1.8:2.0:0.1", "--weight", "constant:1",
               "--n", "100", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "sweep.csv")
    assert rows[0] == ["alpha", "lambda1", "lower_bound", "upper_bound",
                       "residual", "iterations"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert float(row[2]) <= float(row[1]) <= float(row[3])


def test_solve_sub_command(tmp_path):
    out = tmp_path / "sub"
    rc = main(["solve-sub", "--alpha", "2", "--weight", "constant:1",
               "--nonlin", "power:1:0.5", "--n", "200", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["from_side"] == "both_agree"
    assert report["residual"] <= 1e-8
    assert _read_csv(out / "solution.csv")[0] == ["t", "value"]


def test_solve_super_command(tmp_path):
    out = tmp_path / "sup"
    rc = main(["solve-super", "--alpha", "2", "--weight", "constant:1",
               "--nonlin", "power:1:2", "--n", "200", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads((out / "newton_report.json").read_text())
    assert report["converged"] and report["positive"]
    assert report["maxit"] == 200           # the default 10000, capped
    assert not report["degenerate"]
    assert report["margin_method"] == "inverse_iteration"
    assert report["margin_iterations"] >= 1


def test_nonexist_command(tmp_path):
    out = tmp_path / "ne"
    rc = main(["nonexist", "--alpha", "2", "--weight", "constant:1",
               "--nonlin", "power:1:1", "--n", "150", "--trials", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    probe = json.loads((out / "probe.json").read_text())
    assert probe["regime"] in ("super", "sub", "borderline")
    rows = _read_csv(out / "trials.csv")
    assert rows[0] == ["trial", "amplitude", "shape", "outcome", "iterations",
                      "final_norm", "residual"]


def test_henon_shoot_command(tmp_path):
    out = tmp_path / "shoot"
    rc = main(["henon-shoot", "--l", "4", "--p", "2", "--zeta", "1",
               "--beta-min", "50", "--beta-max", "300",
               "--scan-points", "80", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "crossings.csv")
    assert rows[0] == ["beta", "z", "morse_index", "w_end_sign", "z_prime"]
    assert len(rows) - 1 >= 3


def test_unpolished_bracket_exits_3(tmp_path, monkeypatch):
    # a bracket the polish cannot close is an error, not a dropped crossing
    from fracbvp import shooting
    monkeypatch.setattr(shooting, "MAX_POLISH_SHOTS", 1)
    out = tmp_path / "unpolished"
    rc = main(["henon-shoot", "--beta-min", "50", "--beta-max", "300",
               "--scan-points", "60", "--out", str(out)])
    assert rc == EXIT_NONCONVERGENCE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "non_convergence"
    assert "bracket beta in [" in error["message"]
    assert error["iterations"] == 1
    assert error["residual"] > shooting.POLISH_TOL


def test_henon_continue_command(tmp_path):
    out = tmp_path / "cont"
    rc = main(["henon-continue", "--l", "4", "--p", "2", "--zeta", "1",
               "--beta-min", "50", "--beta-max", "300", "--scan-points", "80",
               "--target-alpha", "1.99", "--step", "0.005", "--n", "200",
               "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seeds"] >= 3
    for k, trace in enumerate(summary["traces"]):
        assert trace["status"] == "completed"
        assert trace["end_alpha"] == 1.99
        assert trace["scale_exponent"] == 6.0
        assert (out / f"trace_{k}.jsonl").exists()
        assert _read_csv(out / f"endpoint_{k}.csv")[0] == ["t", "value"]
    seps = summary["pairwise_sup_distances"]
    assert all(seps[i][j] > 0.01 for i in range(3) for j in range(3) if i != j)


def test_hypothesis_violation_exit_code(tmp_path):
    out = tmp_path / "bad"
    rc = main(["eig", "--alpha", "3", "--weight", "constant:1",
               "--out", str(out)])
    assert rc == EXIT_HYPOTHESIS
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "hypothesis_violation"
    assert error["hypothesis"] == "order-range"
    assert not (out / "manifest.json").exists()


def test_wrong_regime_exit_code(tmp_path):
    out = tmp_path / "regime"
    rc = main(["solve-sub", "--alpha", "2", "--weight", "constant:1",
               "--nonlin", "power:1:2", "--n", "100", "--out", str(out)])
    assert rc == EXIT_HYPOTHESIS
    error = json.loads((out / "error.json").read_text())
    assert error["hypothesis"] == "sublinear-ratio-condition"


def test_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "noconv"
    rc = main(["eig", "--alpha", "2", "--weight", "constant:1", "--n", "100",
               "--tol", "1e-16", "--maxit", "3", "--out", str(out)])
    assert rc == EXIT_NONCONVERGENCE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "non_convergence"


def test_tabulated_weight_from_csv(tmp_path):
    import numpy as np
    from fracbvp.grid import GridFunction, make_mesh
    table = GridFunction.sample(make_mesh(16, "uniform"),
                                lambda t: 1.0 + t * (1.0 - t))
    wpath = tmp_path / "weight.csv"
    table.to_csv(wpath)
    out = tmp_path / "tab"
    rc = main(["eig", "--alpha", "1.8", "--weight", f"tabulated:{wpath}",
               "--n", "100", "--out", str(out)])
    assert rc == EXIT_OK
    rows = _read_csv(out / "eig.csv")
    lam = float(rows[1][1])
    # weight between 1 and 1.25 squeezes lambda1 between the scaled constants
    assert 0.0 < lam < 10.0


def test_config_file_with_flag_override(tmp_path):
    config = {
        "command": "eig",
        "problem": {"alpha": 2.0, "weight": "constant:1"},
        "numerics": {"n": 100},
        "output": str(tmp_path / "from_config"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    rc = main(["--config", str(cfg)])
    assert rc == EXIT_OK
    assert (tmp_path / "from_config" / "eig.csv").exists()
    # flag overrides the config mesh size
    rc = main(["--config", str(cfg), "--n", "150",
               "--out", str(tmp_path / "override")])
    assert rc == EXIT_OK
    m = json.loads((tmp_path / "override" / "manifest.json").read_text())
    assert m["config"]["numerics"]["n"] == 150


@pytest.mark.parametrize("content", [
    [1, 2],
    {"command": "eig", "problem": {"alpha": 2, "weight": "constant:1"},
     "numerics": {"n": "abc"}},
    {"command": "eig", "problem": {"alpha": "x", "weight": "constant:1"}},
    {"command": "eig", "problem": {"alpha": 2, "weight": "constant:1"},
     "numerics": {"nn": 100}},
    {"command": "eig", "problem": ["alpha", 2]},
    {"command": "bounds", "output": 5,
     "problem": {"alpha": 1.5, "weight": "constant:1"}},
], ids=["json-array", "numerics-not-a-number", "alpha-not-a-number",
        "unknown-numerics-key", "problem-not-an-object", "output-not-a-string"])
def test_unusable_config_file_exits_2(tmp_path, content):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(content))
    out = tmp_path / "bad"
    assert main(["--config", str(cfg), "--out", str(out)]) == EXIT_HYPOTHESIS
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "hypothesis_violation"
    assert error["hypothesis"] == "config"
    assert not (out / "manifest.json").exists()


def test_rerun_byte_reproduces_csvs(tmp_path):
    args = ["eig", "--alpha", "1.7", "--weight", "power_offset:4:0.5",
            "--n", "150"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    for name in ("eig.csv", "phi1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# malformed weight tables, written into the test's directory
BAD_TABLES = {"short-row": "t,value\n0,1\n0.5\n1,1\n",
              "blank-line": "t,value\n0,1\n\n1,1\n",
              "empty": ""}


@pytest.mark.parametrize("argv", [
    ["solve-super", "--alpha", "2", "--weight", "constant:1",
     "--nonlin", "power:nan:2"],
    ["solve-super", "--alpha", "2", "--weight", "constant:1",
     "--nonlin", "power:1:inf"],
    ["eig", "--alpha", "2", "--weight", "constant:nan"],
    ["eig", "--alpha", "2", "--weight", "polynomial:1,nan"],
    ["henon-shoot", "--zeta", "-2"],
    ["henon-shoot", "--beta-min", "10", "--beta-max", "1"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--grading", "graded",
     "--exponent", "0.5"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--exponent", "2"],
    ["eig", "--alpha", "1.5"],
    ["solve-sub", "--alpha", "1.5", "--weight", "constant:1"],
    ["sweep", "--alphas", "1.8:2.0:0.1", "--weight", "constant:1",
     "--grading", "uniform"],
    ["henon-shoot", "--scan-points", "-1"],
    ["henon-shoot", "--scan-points", "1"],
    ["henon-continue", "--scan-points", "0"],
    ["nonexist", "--alpha", "2", "--weight", "constant:1",
     "--nonlin", "power:1:1", "--trials", "0"],
    ["sweep", "--alphas", "1.5,abc", "--weight", "constant:1"],
    ["sweep", "--alphas", "1.5:2.0", "--weight", "constant:1"],
    ["sweep", "--alphas", "1.5:nan:0.1", "--weight", "constant:1"],
    ["sweep", "--alphas", "1.5:2.0:inf", "--weight", "constant:1"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--tol", "nan"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--tol", "-1"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--maxit", "0"],
    ["henon-shoot", "--p", "inf"],
    ["henon-shoot", "--l", "inf"],
    ["sweep", "--alphas", "1.1:2.0:1e-7", "--weight", "constant:1"],
    ["sweep", "--alphas", "1.1:2.0:5e-324", "--weight", "constant:1"],
    ["solve-super", "--alpha", "1.8", "--weight", "constant:1",
     "--nonlin", "power:1:2", "--tol", "inf"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--tol", "inf"],
    ["solve-sub", "--alpha", "2", "--weight", "constant:1",
     "--nonlin", "power:1:0.5", "--tol", "inf"],
    ["henon-continue", "--step", "inf"],
    ["eig", "--alpha", "2", "--weight", "constant:1", "--grading", "graded",
     "--exponent", "1e3"],
    ["bounds", "--alpha", "1.5", "--weight", "tabulated:{tables}/short-row"],
    ["bounds", "--alpha", "1.5", "--weight", "tabulated:{tables}/blank-line"],
    ["bounds", "--alpha", "1.5", "--weight", "tabulated:{tables}/empty"],
    ["bounds", "--alpha", "1.5", "--weight", "power_offset:1100:0.5"],
    ["bounds", "--alpha", "1.5", "--weight", "power_offset:1030:0.5"],
    ["eig", "--alpha", "1.5", "--weight", "power_offset:1030:0.5"],
], ids=["nan-nonlinearity", "inf-nonlinearity", "nan-constant-weight",
        "nan-polynomial-weight", "zeta-below-minus-1",
        "beta-range-reversed", "grading-exponent-below-1",
        "exponent-without-graded", "missing-weight",
        "missing-nonlinearity", "sweep-grading", "scan-points-negative",
        "scan-points-one", "continue-scan-points-zero", "probe-zero-trials",
        "alphas-not-a-number", "alphas-two-fields", "alphas-nan-stop",
        "alphas-inf-step", "tol-nan", "tol-negative", "maxit-zero",
        "p-inf", "l-inf", "alphas-9e6-orders", "alphas-step-overflows",
        "solve-super-tol-inf", "eig-tol-inf", "solve-sub-tol-inf",
        "continue-step-inf", "grading-exponent-underflows",
        "table-short-row", "table-blank-line", "table-empty",
        "bounds-sup-norm-underflows", "bounds-overflow",
        "eig-weight-subnormal"])
def test_unusable_input_exits_2(tmp_path, argv):
    for name, text in BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tables=tmp_path) for a in argv]
    out = tmp_path / "bad"
    assert main(argv + ["--n", "50", "--out", str(out)]) == EXIT_HYPOTHESIS
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "hypothesis_violation"
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flags", [["--step", "0"], ["--min-step", "nan"],
                                   ["--n", "4"]],
                         ids=["step-zero", "min-step-nan", "n-4"])
def test_henon_continue_rejects_settings_before_scanning(tmp_path, monkeypatch,
                                                         flags):
    def scan(*args, **kwargs):
        raise AssertionError("the beta scan started")
    monkeypatch.setattr(cli, "find_crossings", scan)
    out = tmp_path / "bad"
    assert main(["henon-continue", *flags, "--out", str(out)]) == EXIT_HYPOTHESIS
    assert json.loads((out / "error.json").read_text())["error"] == \
        "hypothesis_violation"
    assert not (out / "crossings.csv").exists()


def test_mesh_size_exits_2_before_allocating(tmp_path):
    # 10^11 nodes would take 745 GiB; the bound applies before np.arange
    out = tmp_path / "big"
    assert main(["eig", "--alpha", "2", "--weight", "constant:1",
                 "--n", str(10 ** 11), "--out", str(out)]) == EXIT_HYPOTHESIS
    assert json.loads((out / "error.json").read_text())["hypothesis"] == \
        "mesh-size"


def test_scan_size_exits_2_before_allocating(tmp_path, monkeypatch):
    # the scan peaks at about 72 doubles per beta; the bound applies
    # before np.geomspace
    def geomspace(*args, **kwargs):
        raise AssertionError("the scan grid was allocated")
    monkeypatch.setattr(np, "geomspace", geomspace)
    out = tmp_path / "big"
    assert main(["henon-shoot", "--scan-points",
                 str(shooting.MAX_SCAN_POINTS + 1),
                 "--out", str(out)]) == EXIT_HYPOTHESIS
    assert json.loads((out / "error.json").read_text())["hypothesis"] == \
        "shooting-range"
    assert not (out / "crossings.csv").exists()


def test_untraced_runs_leave_scipy_integrate_and_optimize_unloaded(tmp_path):
    # every shot runs on the lane integrator, so a fresh process that runs
    # eig and henon-continue never imports either module
    runs = [["eig", "--alpha", "1.5", "--weight", "constant:1", "--n", "50"],
            ["henon-continue", "--beta-min", "50", "--beta-max", "300",
             "--scan-points", "60", "--target-alpha", "1.99", "--n", "100"]]
    script = "\n".join([
        "import sys",
        "from fracbvp.cli import main",
        *[f"assert main({argv + ['--out', str(tmp_path / str(k))]!r}) == 0"
          for k, argv in enumerate(runs)],
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
        "if m in sys.modules))",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("exc, code, keys", [
    (errors.HypothesisError("order-range", "bad"), EXIT_HYPOTHESIS,
     {"error", "hypothesis", "message"}),
    (errors.MonotonicityError("bad"), EXIT_HYPOTHESIS,
     {"error", "hypothesis", "message"}),
    (errors.ConvergenceError("bad", iterations=3, residual=0.5),
     EXIT_NONCONVERGENCE, {"error", "message", "iterations", "residual"}),
    (errors.DegeneratePointError("bad", iterations=3, residual=0.5),
     EXIT_NONCONVERGENCE, {"error", "message", "iterations", "residual"}),
    (errors.IntegrationError("bad"), EXIT_NONCONVERGENCE, {"error", "message"}),
    (errors.HorizonError("bad"), EXIT_NONCONVERGENCE, {"error", "message"}),
    (errors.TransversalityError("bad"), EXIT_NONCONVERGENCE,
     {"error", "message"}),
    (errors.ScalingError("bad", exponent=6.0, residual=1e-3),
     EXIT_NONCONVERGENCE, {"error", "message", "exponent", "residual"}),
    (OSError("bad"), EXIT_IO, {"error", "message"}),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_error_report_per_class(tmp_path, monkeypatch, exc, code, keys):
    def raise_it(config, outdir, timings):
        raise exc
    monkeypatch.setitem(cli._DISPATCH, "bounds", raise_it)
    out = tmp_path / "err"
    assert main(["bounds", "--out", str(out)]) == code
    error = json.loads((out / "error.json").read_text())
    assert set(error) == keys
    assert error["message"] == str(exc)
    kind = {EXIT_HYPOTHESIS: "hypothesis_violation",
            EXIT_NONCONVERGENCE: "non_convergence", EXIT_IO: "io"}[code]
    assert error["error"] == kind
