import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracbvp import cli, errors, shooting, sublinear
from fracbvp.cli import (EXIT_HYPOTHESIS, EXIT_IO, EXIT_NONCONVERGENCE, EXIT_OK,
                         main, parse_alphas, parse_nonlinearity, parse_weight,
                         run)
from fracbvp.errors import HypothesisError
from fracbvp.grid import GridFunction, make_mesh


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
    assert set(blas) == {"numpy", "threads"}
    assert blas["numpy"]
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


def test_nonexist_reads_the_ratio_from_its_limits(tmp_path):
    # 12 s^0.01 falls below lambda1 = pi^2 only for s < 3.3e-9, and
    # solve-super finds a positive solution of sup norm 4e-9 there: the
    # ratio meets lambda1, though it stays above it on [1e-8, 1e8]
    args = ["--alpha", "2", "--weight", "constant:1",
            "--nonlin", "power:12:1.01", "--n", "100"]
    out = tmp_path / "probe"
    assert main(["nonexist", *args, "--trials", "2",
                 "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "probe.json").read_text())["regime"] == \
        "borderline"
    assert main(["solve-super", *args,
                 "--out", str(tmp_path / "super")]) == EXIT_OK


def test_probe_trials_exit_2_before_allocating(tmp_path, monkeypatch):
    # each trial may take 1e5 Picard steps; the bound applies before
    # np.geomspace lays out the amplitudes
    def geomspace(*args, **kwargs):
        raise AssertionError("the probe amplitudes were allocated")
    monkeypatch.setattr(np, "geomspace", geomspace)
    out = tmp_path / "many"
    assert main(["nonexist", "--alpha", "2", "--weight", "constant:1",
                 "--nonlin", "power:1:0.5", "--n", "50", "--trials",
                 str(sublinear.MAX_PROBE_TRIALS + 1),
                 "--out", str(out)]) == EXIT_HYPOTHESIS
    assert json.loads((out / "error.json").read_text())["hypothesis"] == \
        "probe-trials"


@pytest.mark.parametrize("trials", [0, sublinear.MAX_PROBE_TRIALS + 1])
def test_probe_trials_exit_2_before_assembly(tmp_path, monkeypatch, trials):
    # the count is refused before the O(n^2) operator, here about 1 GB
    def assemble(*args, **kwargs):
        raise AssertionError("the operator was assembled")
    monkeypatch.setattr(cli, "assemble", assemble)
    out = tmp_path / "many"
    assert main(["nonexist", "--alpha", "2", "--weight", "constant:1",
                 "--nonlin", "power:1:0.5", "--n", "11000", "--trials",
                 str(trials), "--out", str(out)]) == EXIT_HYPOTHESIS
    assert json.loads((out / "error.json").read_text())["hypothesis"] == \
        "probe-trials"


# solutions of sup norm 1e-7 and 1e7-1e20 at the default --tol: an absolute
# stop ends the monotone iteration short of the solution and puts Newton's
# stop below its rounding floor
PROBLEM_200 = ["--weight", "constant:1", "--n", "200"]


@pytest.mark.parametrize("alpha", ["1.1", "1.5"])
def test_solve_sub_meets_the_probe_fixed_point_at_small_norm(tmp_path, alpha):
    args = ["--alpha", alpha, "--nonlin", "power:1:0.9", *PROBLEM_200]
    assert main(["solve-sub", *args, "--out", str(tmp_path / "sub")]) == EXIT_OK
    assert main(["nonexist", *args, "--out", str(tmp_path / "ne")]) == EXIT_OK
    report = json.loads((tmp_path / "sub" / "solve_report.json").read_text())
    assert report["from_side"] == "both_agree"
    fixed = [float(row[5]) for row in _read_csv(tmp_path / "ne" / "trials.csv")
             if row[3] == "converged"]
    assert fixed
    for norm in fixed:
        assert report["sup_norm"] == pytest.approx(norm, rel=1e-9)


@pytest.mark.parametrize("alpha", ["1.5", "2"])
@pytest.mark.parametrize("p", ["1.05", "1.1"])
def test_solve_super_converges_at_large_norm(tmp_path, alpha, p):
    out = tmp_path / "sup"
    assert main(["solve-super", "--alpha", alpha, "--nonlin", f"power:1:{p}",
                 *PROBLEM_200, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "newton_report.json").read_text())
    assert report["converged"] and report["positive"]
    assert not report["degenerate"]
    assert report["residual"] <= 1e-15 * report["sup_norm"]


@pytest.mark.parametrize("problem", [
    ["--alpha", "1.02886", "--weight", "polynomial:1.41225,-0.394983,-0.241287",
     "--nonlin", "power:15.518:5.95411", "--n", "400"],
    ["--alpha", "1.06534", "--weight", "power_offset:1.18235:0.41194",
     "--nonlin", "power:5.88681:6.74428", "--n", "200"],
], ids=("polynomial", "power_offset"))
def test_solve_super_accepts_a_seed_that_already_solves(tmp_path, problem):
    # the Petviashvili seed solves these to a residual at rounding level, so
    # no damping of Newton's first correction lowers it; the correction is
    # below tol relative to u, and the solve ends settled
    out = tmp_path / "sup"
    assert main(["solve-super", *problem, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "newton_report.json").read_text())
    assert report["converged"] and not report["degenerate"]
    assert report["residual"] <= 1e-15 * report["sup_norm"]


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
        rows = [json.loads(line) for line in
                (out / f"trace_{k}.jsonl").read_text().splitlines()]
        assert len(rows) == trace["steps"]
        assert all(row["newton_iterations"] >= 1 for row in rows)
        assert {row["det_sign"] for row in rows} in ({-1}, {1})
        assert trace["rejected_steps"] >= 0
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
    from fracbvp.grid import make_mesh
    from helpers import sample
    table = sample(make_mesh(16, "uniform"), lambda t: 1.0 + t * (1.0 - t))
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
    {"command": "eig", "problem": {"alpha": 2, "weight": "constant:1"},
     "numerics": {"n": 40.9}},
    {"command": "eig", "problem": {"alpha": 2, "weight": "constant:1"},
     "numerics": {"maxit": True}},
    {"command": "nonexist", "problem": {"alpha": 2, "weight": "constant:1",
                                        "nonlinearity": "power:1:1"},
     "numerics": {"trials": 2.5}},
    {"command": "henon-shoot", "numerics": {"scan_points": False}},
    {"command": "eig", "problem": {"alpha": True, "weight": "constant:1"}},
    {"command": "eig", "problem": {"alpha": 2, "weight": "constant:1"},
     "numerics": {"tol": True}},
], ids=["json-array", "numerics-not-a-number", "alpha-not-a-number",
        "unknown-numerics-key", "problem-not-an-object", "output-not-a-string",
        "n-fractional", "maxit-boolean", "trials-fractional",
        "scan-points-boolean", "alpha-boolean", "tol-boolean"])
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
    ["eig", "--alpha", "2", "--weight", "constant:1", "--grading", "cubic"],
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
        "eig-weight-subnormal", "grading-unknown"])
def test_unusable_input_exits_2(tmp_path, argv):
    for name, text in BAD_TABLES.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tables=tmp_path) for a in argv]
    out = tmp_path / "bad"
    assert main(argv + ["--n", "50", "--out", str(out)]) == EXIT_HYPOTHESIS
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "hypothesis_violation"
    assert not (out / "manifest.json").exists()


# a table whose -1 at t = 0.50001 lies between nodes 0.5 and 0.50002 of
# value 1, and a polynomial that is -1.31e-8 on a width of 2.3e-4 around
# t = 0.50012: both fall between the points of a 2049-point grid
NARROW_DIP = "\n".join(["t,value"] + [
    f"{t!r},{-1.0 if t == 0.50001 else 1.0}" for t in sorted(
        [k / 16 for k in range(17)] + [0.50001, 0.50002])]) + "\n"


@pytest.mark.parametrize("command", ["bounds", "eig"])
@pytest.mark.parametrize("weight", [
    "tabulated:{table}", "polynomial:0.2501200013439999,-1.00024,1"],
    ids=["table", "polynomial"])
def test_weight_negative_between_grid_points_exits_2(tmp_path, command,
                                                     weight):
    (tmp_path / "dip.csv").write_text(NARROW_DIP)
    out = tmp_path / "dip"
    argv = [command, "--alpha", "1.5", "--n", "200", "--out", str(out),
            "--weight", weight.format(table=tmp_path / "dip.csv")]
    assert main(argv) == EXIT_HYPOTHESIS
    assert json.loads((out / "error.json").read_text())["hypothesis"] == \
        "weight-positivity"


def test_missing_weight_table_exits_4(tmp_path):
    out = tmp_path / "missing"
    assert main(["bounds", "--alpha", "1.5", "--weight",
                 f"tabulated:{tmp_path / 'no-such.csv'}",
                 "--out", str(out)]) == EXIT_IO
    assert json.loads((out / "error.json").read_text())["error"] == "io"


def test_each_setting_flag_lands_in_its_section_and_key():
    parser = cli._make_parser()
    for key, (section, default, flag, _) in cli.SETTINGS.items():
        config = cli.build_config(parser.parse_args(["eig", flag, "7"]))
        assert config[section] == {key: "7"}
        other = {"problem": "numerics", "numerics": "problem"}[section]
        assert config[other] == {}
        assert key in cli.CONFIG_TYPES[section]
        if section == "numerics":
            assert cli.NUMERIC_DEFAULTS[key] == default


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
    # the scan peaks below 90 doubles per beta; the bound applies
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


def test_negative_zeta_exits_2_as_shooting_range_before_rescaling(tmp_path):
    # henon-continue rescales onto a weight centred at 1/(1 + zeta), which
    # leaves [0, 1] for zeta < 0; henon-shoot never rescales and takes it
    out = tmp_path / "continue"
    assert main(["henon-continue", "--zeta", "-0.5",
                 "--out", str(out)]) == EXIT_HYPOTHESIS
    error = json.loads((out / "error.json").read_text())
    assert error["hypothesis"] == "shooting-range"
    assert "zeta >= 0" in error["message"]
    assert main(["henon-shoot", "--zeta", "-0.5", "--scan-points", "20",
                 "--out", str(tmp_path / "shoot")]) == EXIT_OK


def test_untraced_runs_leave_scipy_unloaded(tmp_path):
    # every shot runs on the lane integrator and every Newton solve on the
    # NumPy triangular solves, so a fresh process that runs eig, solve-super
    # and henon-continue never imports scipy
    runs = [["eig", "--alpha", "1.5", "--weight", "constant:1", "--n", "50"],
            ["solve-super", "--alpha", "1.8", "--weight", "constant:1",
             "--nonlin", "power:1:2", "--n", "100"],
            ["henon-continue", "--beta-min", "50", "--beta-max", "300",
             "--scan-points", "60", "--target-alpha", "1.99", "--n", "100"]]
    script = "\n".join([
        "import sys",
        "from fracbvp.cli import main",
        *[f"assert main({argv + ['--out', str(tmp_path / str(k))]!r}) == 0"
          for k, argv in enumerate(runs)],
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
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
    assert set(error) == keys | {"outputs"}
    assert error["message"] == str(exc)
    assert error["outputs"] == []
    kind = {EXIT_HYPOTHESIS: "hypothesis_violation",
            EXIT_NONCONVERGENCE: "non_convergence", EXIT_IO: "io"}[code]
    assert error["error"] == kind


# one small config per command
SMALL_RUNS = {
    "eig": ["--alpha", "1.5", "--weight", "constant:1", "--n", "50"],
    "bounds": ["--alpha", "1.5", "--weight", "power_offset:4:0.5"],
    "sweep": ["--alphas", "1.9:2.0:0.1", "--weight", "constant:1",
              "--n", "50"],
    "solve-sub": ["--alpha", "1.5", "--weight", "constant:1",
                  "--nonlin", "power:1:0.5", "--n", "50"],
    "solve-super": ["--alpha", "1.8", "--weight", "constant:1",
                    "--nonlin", "power:1:2", "--n", "100"],
    "nonexist": ["--alpha", "2", "--weight", "constant:1",
                 "--nonlin", "power:1:1", "--n", "50", "--trials", "2"],
    "henon-shoot": ["--beta-min", "50", "--beta-max", "300",
                    "--scan-points", "60"],
    "henon-continue": ["--beta-min", "50", "--beta-max", "300",
                       "--scan-points", "60", "--target-alpha", "1.99",
                       "--n", "100"],
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_manifest_lists_every_output_in_write_order(tmp_path, command):
    # a rerun is compared on the files the manifest lists, so a file left
    # out of the list would go unchecked
    out = tmp_path / command
    assert main([command, *SMALL_RUNS[command], "--out", str(out)]) == EXIT_OK
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(listed) == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")
    # stable on ties: the modification times never decrease along the list
    assert sorted(listed, key=lambda name: (out / name).stat().st_mtime_ns) \
        == listed
    if command == "henon-continue":
        traces = json.loads((out / "summary.json").read_text())["traces"]
        assert len(traces) >= 2
        assert listed == ["crossings.csv", *[
            f"{kind}_{k}.{ext}" for k in range(len(traces))
            for kind, ext in (("trace", "jsonl"), ("endpoint", "csv"))],
            "summary.json"]


def test_csv_text_matches_the_csv_module(tmp_path):
    # the csv module is the oracle for the one-call table and grid writers
    def oracle(rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        return buffer.getvalue()

    special = [math.nan, math.inf, -math.inf, -0.0, 1e300, 1e-300, 5e-324,
               -1e300, 1.0 / 3.0]
    header = ["trial", "amplitude", "shape", "outcome", "iterations"]
    rows = [[k, cli._g(x), shape, "zero-ish", 10 ** k]
            for k, x in enumerate(special)
            for shape in ("phi1", "gauge")]
    out = cli._Out(tmp_path)
    out.table("table.csv", header, rows)
    assert (tmp_path / "table.csv").read_bytes() == \
        oracle([header, *rows]).encode()
    mesh = make_mesh(len(special) - 1)
    out.grid("grid.csv", GridFunction(mesh, special))
    assert (tmp_path / "grid.csv").read_bytes() == oracle(
        [["t", "value"], *([cli._g(t), cli._g(v)]
                           for t, v in zip(mesh.nodes, special))]).encode()
    assert out.names == ["table.csv", "grid.csv"]


def test_consecutive_main_calls_share_no_parsed_state(tmp_path):
    # the parser is built once per process; a flag of one call must not
    # reach the next
    run = ["eig", "--alpha", "2", "--weight", "constant:1"]
    assert main([*run, "--n", "50", "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main([*run, "--out", str(tmp_path / "b")]) == EXIT_OK
    for name, n in (("a", 50), ("b", 400)):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["config"]["numerics"]["n"] == n


def test_rerun_leaves_no_file_of_an_earlier_failed_run(tmp_path):
    out = tmp_path / "reused"
    run = ["bounds", "--weight", "constant:1", "--out", str(out)]
    assert main([*run, "--alpha", "3"]) == EXIT_HYPOTHESIS
    assert main([*run, "--alpha", "1.5"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["bounds.csv",
                                                     "manifest.json"]


def test_rerun_with_fewer_crossings_leaves_no_stale_trace(tmp_path):
    out = tmp_path / "reused"
    (out / "sub").mkdir(parents=True)
    (out / "notes.txt").write_text("kept")
    assert main(["henon-continue", *SMALL_RUNS["henon-continue"],
                 "--out", str(out)]) == EXIT_OK
    assert (out / "trace_1.jsonl").exists()
    # a manifest names only files of its own directory: no path is followed
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"] += ["../outside.txt", "sub", "sub/x", ".", 7]
    (out / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "outside.txt").write_text("kept")
    assert main(["henon-continue", "--beta-min", "200", "--beta-max", "300",
                 "--scan-points", "20", "--n", "100",
                 "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        "crossings.csv", "endpoint_0.csv", "manifest.json", "notes.txt",
        "sub", "summary.json", "trace_0.jsonl"]
    assert (out / "notes.txt").read_text() == "kept"
    assert (tmp_path / "outside.txt").read_text() == "kept"


def test_error_report_lists_the_files_of_the_failed_run(tmp_path,
                                                        monkeypatch):
    def fail(*args, **kwargs):
        raise errors.ConvergenceError("bad", iterations=1, residual=1.0)

    out = tmp_path / "reused"
    monkeypatch.setattr(cli, "continue_crossings", fail)
    assert main(["henon-continue", *SMALL_RUNS["henon-continue"],
                 "--out", str(out)]) == EXIT_NONCONVERGENCE
    error = json.loads((out / "error.json").read_text())
    assert error["outputs"] == ["crossings.csv"]
    assert main(["bounds", "--alpha", "1.5", "--weight", "constant:1",
                 "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["bounds.csv",
                                                     "manifest.json"]


def test_failed_branch_keeps_the_files_of_the_branches_before_it(
        tmp_path, monkeypatch):
    run = ["henon-continue", *SMALL_RUNS["henon-continue"]]
    assert main([*run, "--out", str(tmp_path / "whole")]) == EXIT_OK
    rescale = shooting.rescale_to_unit
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise errors.ScalingError("bad", exponent=1.0, residual=1.0)
        return rescale(*args, **kwargs)

    monkeypatch.setattr(shooting, "rescale_to_unit", fail_second)
    out = tmp_path / "failed"
    assert main([*run, "--out", str(out)]) == EXIT_NONCONVERGENCE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "non_convergence"
    assert error["outputs"] == ["crossings.csv", "trace_0.jsonl",
                                "endpoint_0.csv"]
    assert not (out / "summary.json").exists()
    for name in error["outputs"]:
        assert (out / name).read_bytes() == \
            (tmp_path / "whole" / name).read_bytes()
