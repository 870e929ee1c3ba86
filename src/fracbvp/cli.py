"""Command-line entry point for reproducible solver experiments.

Each run takes a JSON config (flags override individual fields), executes one
pipeline, and writes a manifest plus command-specific CSV/JSON artifacts into
the output directory.  All numerical output is printed with 17 significant
digits so re-running a config reproduces every CSV byte for byte; only the
manifest carries the timestamp and wall-clock timings.

Exit codes: 0 success, 2 hypothesis violation, 3 non-convergence, 4 I/O error.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import (EXIT_HYPOTHESIS, EXIT_NONCONVERGENCE, FracBVPError,
                     HypothesisError)
from .eigen import lambda1_bounds, principal_eigenpair, sweep_alpha
from .grid import GridFunction, make_mesh, production_mesh
from .kernel import check_order
from .operator import NonlinearityFamily, WeightFamily, assemble
from .shooting import HenonParams, find_crossings, rescale_to_unit, weight_offset
from .sublinear import find_bracket, monotone_solve, nonexistence_probe
from .superlinear import continue_alpha, find_positive_solution, newton_solve, nondegeneracy

EXIT_OK = 0
EXIT_IO = 4

COMMANDS = ("eig", "bounds", "sweep", "solve-sub", "solve-super", "nonexist",
            "henon-shoot", "henon-continue")

NUMERIC_DEFAULTS = {
    "n": 400,
    "grading": "auto",
    "exponent": None,
    "tol": 1e-10,
    "maxit": 10000,
    "trials": 10,
    "l": 4.0,
    "p": 2.0,
    "zeta": 1.0,
    "beta_min": 1e-3,
    "beta_max": 1e3,
    "scan_points": 2000,
    "target_alpha": 1.95,
    "alpha_step": 0.005,
    "min_step": 1e-5,
    "alphas": "1.5:2.0:0.05",
}


def _g(x):
    return f"{float(x):.17g}"


def parse_weight(spec):
    """Weight from a spec string: constant:c | power_offset:l:t0 |
    polynomial:c0,c1,... | tabulated:path.csv"""
    kind, _, rest = str(spec).partition(":")
    try:
        if kind == "constant":
            return WeightFamily.constant(float(rest))
        if kind == "power_offset":
            l, t0 = rest.split(":")
            return WeightFamily.power_offset(float(l), float(t0))
        if kind == "polynomial":
            return WeightFamily.polynomial([float(c) for c in rest.split(",")])
        if kind == "tabulated":
            return WeightFamily.tabulated(GridFunction.from_csv(rest))
    except HypothesisError:
        raise
    except (ValueError, OSError) as exc:
        raise HypothesisError("weight-positivity",
                              f"cannot parse weight spec {spec!r}: {exc}")
    raise HypothesisError("weight-positivity", f"unknown weight kind {kind!r}")


def parse_nonlinearity(spec):
    """Nonlinearity from a spec string: power:c:p | affine_power:lam:q |
    saturating:a"""
    kind, _, rest = str(spec).partition(":")
    try:
        if kind == "power":
            c, p = rest.split(":")
            return NonlinearityFamily.power(float(c), float(p))
        if kind == "affine_power":
            lam, q = rest.split(":")
            return NonlinearityFamily.affine_power(float(lam), float(q))
        if kind == "saturating":
            return NonlinearityFamily.saturating(float(rest))
    except HypothesisError:
        raise
    except ValueError as exc:
        raise HypothesisError("nonlinearity-positivity",
                              f"cannot parse nonlinearity spec {spec!r}: {exc}")
    raise HypothesisError("nonlinearity-positivity",
                          f"unknown nonlinearity kind {kind!r}")


def parse_alphas(spec):
    """Alpha schedule 'start:stop:step' or comma list."""
    spec = str(spec)
    if ":" in spec:
        start, stop, step = (float(v) for v in spec.split(":"))
        if step <= 0.0 or stop < start:
            raise HypothesisError("order-range", f"bad alpha schedule {spec!r}")
        count = int(round((stop - start) / step))
        return [float(v) for v in np.linspace(start, stop, count + 1)]
    return [float(v) for v in spec.split(",")]


def _problem(config, key):
    """A required field of the config's problem section."""
    try:
        return config["problem"][key]
    except KeyError:
        raise HypothesisError(
            "problem-spec", f"the problem needs a {key!r} field") from None


def _build_mesh(numerics, alpha, weight):
    grading = numerics["grading"]
    n = int(numerics["n"])
    if grading != "graded" and numerics["exponent"] is not None:
        raise HypothesisError(
            "mesh-grading", "--exponent applies only to --grading graded")
    if grading == "auto":
        return production_mesh(alpha, n=n, weight=weight)
    if grading == "uniform":
        mesh = make_mesh(n, "uniform")
    elif grading == "graded":
        exponent = numerics["exponent"]
        if exponent is None:
            raise HypothesisError("mesh-size",
                                  "graded meshes need an explicit exponent")
        mesh = make_mesh(n, "graded", float(exponent))
    else:
        raise HypothesisError("mesh-size", f"unknown grading {grading!r}")
    return mesh.with_kinks(weight)


def _problem_data(config):
    """Order, weight, nonlinearity and solver mesh of a problem config."""
    alpha = check_order(_problem(config, "alpha"))
    weight = parse_weight(_problem(config, "weight"))
    f = parse_nonlinearity(_problem(config, "nonlinearity"))
    return alpha, weight, f, _build_mesh(config["numerics"], alpha, weight)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_eig(config, outdir, timings):
    numerics = config["numerics"]
    alpha = check_order(_problem(config, "alpha"))
    weight = parse_weight(_problem(config, "weight"))
    mesh = _build_mesh(numerics, alpha, weight)
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    eig = principal_eigenpair(A, tol=float(numerics["tol"]),
                              maxit=int(numerics["maxit"]))
    timings["solve"] = time.perf_counter() - t0
    _write_csv(outdir / "eig.csv",
               ["alpha", "lambda1", "residual", "iterations"],
               [[_g(alpha), _g(eig.lambda1), _g(eig.residual), eig.iterations]])
    eig.phi1.to_csv(outdir / "phi1.csv")
    return ["eig.csv", "phi1.csv"]


def _cmd_bounds(config, outdir, timings):
    alpha = check_order(_problem(config, "alpha"))
    weight = parse_weight(_problem(config, "weight"))
    t0 = time.perf_counter()
    bounds = lambda1_bounds(alpha, weight)
    timings["solve"] = time.perf_counter() - t0
    _write_csv(outdir / "bounds.csv", ["alpha", "lower", "upper"],
               [[_g(alpha), _g(bounds.lower), _g(bounds.upper)]])
    return ["bounds.csv"]


def _cmd_sweep(config, outdir, timings):
    numerics = config["numerics"]
    if numerics["grading"] != "auto" or numerics["exponent"] is not None:
        raise HypothesisError(
            "mesh-grading", "sweep meshes every order with its graded "
            "production mesh; --grading and --exponent do not apply")
    weight = parse_weight(_problem(config, "weight"))
    alphas = parse_alphas(numerics["alphas"])
    for a in alphas:
        check_order(a)
    t0 = time.perf_counter()
    rows = sweep_alpha(alphas, weight, n=int(numerics["n"]),
                       tol=float(numerics["tol"]), maxit=int(numerics["maxit"]))
    timings["solve"] = time.perf_counter() - t0
    _write_csv(outdir / "sweep.csv",
               ["alpha", "lambda1", "lower_bound", "upper_bound",
                "residual", "iterations"],
               [[_g(r.alpha), _g(r.lambda1), _g(r.lower), _g(r.upper),
                 _g(r.residual), r.iterations] for r in rows])
    return ["sweep.csv"]


def _cmd_solve_sub(config, outdir, timings):
    numerics = config["numerics"]
    alpha, weight, f, mesh = _problem_data(config)
    tol = float(numerics["tol"])
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    eig = principal_eigenpair(A)
    bracket = find_bracket(eig, f, A)
    report = monotone_solve(bracket, f, A, tol=max(tol, 1e-12),
                            maxit=int(numerics["maxit"]))
    timings["solve"] = time.perf_counter() - t0
    report.solution.to_csv(outdir / "solution.csv")
    _write_json(outdir / "solve_report.json", {
        "lambda1": eig.lambda1,
        "bracket": {"delta": bracket.delta, "m_upper": bracket.m_upper},
        "iterations": report.iterations,
        "residual": report.residual,
        "from_side": report.from_side,
        "sup_norm": float(np.max(np.abs(report.solution.values))),
    })
    return ["solution.csv", "solve_report.json"]


def _cmd_solve_super(config, outdir, timings):
    numerics = config["numerics"]
    alpha, weight, f, mesh = _problem_data(config)
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    eig = principal_eigenpair(A)
    report = find_positive_solution(A, f, eig, tol=float(numerics["tol"]),
                                    maxit=min(int(numerics["maxit"]), 200))
    margin = nondegeneracy(A, f, report.solution)
    timings["solve"] = time.perf_counter() - t0
    report.solution.to_csv(outdir / "solution.csv")
    _write_json(outdir / "newton_report.json", {
        "lambda1": eig.lambda1,
        "iterations": report.iterations,
        "residual": report.residual,
        "converged": report.converged,
        "positive": report.positive,
        "sup_norm": float(np.max(np.abs(report.solution.values))),
        "nondegeneracy_margin": margin.margin,
        "degenerate": margin.degenerate,
    })
    return ["solution.csv", "newton_report.json"]


def _cmd_nonexist(config, outdir, timings):
    alpha, weight, f, mesh = _problem_data(config)
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    report = nonexistence_probe(f, A, principal_eigenpair(A),
                                trials=int(config["numerics"]["trials"]))
    timings["solve"] = time.perf_counter() - t0
    _write_csv(outdir / "trials.csv",
               ["trial", "amplitude", "shape", "outcome", "iterations",
                "final_norm"],
               [[k, _g(o.amplitude), o.shape, o.outcome, o.iterations,
                 _g(o.final_norm)] for k, o in enumerate(report.trials)])
    _write_json(outdir / "probe.json", {
        "regime": report.regime,
        "lambda1": report.lambda1,
        "verdict": report.verdict,
        "outcomes": [o.outcome for o in report.trials],
    })
    return ["trials.csv", "probe.json"]


def _write_crossings(outdir, records):
    _write_csv(outdir / "crossings.csv",
               ["beta", "z", "morse_index", "w_end_sign", "z_prime"],
               [[_g(r.beta), _g(r.z), r.morse_index, r.w_end_sign,
                 _g(r.z_prime)] for r in records])


def _cmd_henon_shoot(config, outdir, timings):
    numerics = config["numerics"]
    params = HenonParams(l=float(numerics["l"]), p=float(numerics["p"]))
    t0 = time.perf_counter()
    records = find_crossings(float(numerics["zeta"]), params,
                             beta_range=(float(numerics["beta_min"]),
                                         float(numerics["beta_max"])),
                             scan_points=int(numerics["scan_points"]))
    timings["solve"] = time.perf_counter() - t0
    _write_crossings(outdir, records)
    return ["crossings.csv"]


def _cmd_henon_continue(config, outdir, timings):
    numerics = config["numerics"]
    params = HenonParams(l=float(numerics["l"]), p=float(numerics["p"]))
    zeta = float(numerics["zeta"])
    target = check_order(numerics["target_alpha"])
    tol = float(numerics["tol"])

    t0 = time.perf_counter()
    records = find_crossings(zeta, params,
                             beta_range=(float(numerics["beta_min"]),
                                         float(numerics["beta_max"])),
                             scan_points=int(numerics["scan_points"]))
    timings["shoot"] = time.perf_counter() - t0
    _write_crossings(outdir, records)
    outputs = ["crossings.csv"]

    seeds = [r for r in records if not r.degenerate]
    delta = weight_offset(zeta)
    weight = WeightFamily.power_offset(params.l, 0.5 - delta)
    f = NonlinearityFamily.power(1.0, params.p)
    mesh = _build_mesh(numerics, target, weight)

    t0 = time.perf_counter()
    # every seed starts at order 2 on the same mesh: assemble that once
    A2 = assemble(mesh, 2.0, weight)
    summary = {"delta": delta, "crossings": len(records),
               "seeds": len(seeds), "traces": []}
    endpoints = []
    for k, record in enumerate(seeds):
        unit = rescale_to_unit(record, zeta, params, mesh)
        start = newton_solve(A2, f, unit.profile, tol=tol)
        trace = continue_alpha(start, A2, target, f,
                               initial_step=float(numerics["alpha_step"]),
                               min_step=float(numerics["min_step"]), tol=tol)
        trace_path = outdir / f"trace_{k}.jsonl"
        with open(trace_path, "w") as fh:
            for step in trace.steps:
                fh.write(json.dumps({
                    "alpha": step.alpha,
                    "residual": step.residual,
                    "margin": step.margin,
                    "sup_norm": float(np.max(np.abs(step.solution.values))),
                }, sort_keys=True) + "\n")
        end = trace.steps[-1]
        end.solution.to_csv(outdir / f"endpoint_{k}.csv")
        outputs += [f"trace_{k}.jsonl", f"endpoint_{k}.csv"]
        endpoints.append(end.solution.values)
        summary["traces"].append({
            "beta": record.beta,
            "scale_exponent": unit.scale_exponent_used,
            "status": trace.status,
            "steps": len(trace.steps),
            "end_alpha": end.alpha,
            "end_residual": end.residual,
            "end_margin": end.margin,
        })
    summary["pairwise_sup_distances"] = [
        [float(np.max(np.abs(endpoints[i] - endpoints[j])))
         for j in range(len(endpoints))] for i in range(len(endpoints))]
    timings["continue"] = time.perf_counter() - t0
    _write_json(outdir / "summary.json", summary)
    outputs.append("summary.json")
    return outputs


_DISPATCH = {
    "eig": _cmd_eig,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "solve-sub": _cmd_solve_sub,
    "solve-super": _cmd_solve_super,
    "nonexist": _cmd_nonexist,
    "henon-shoot": _cmd_henon_shoot,
    "henon-continue": _cmd_henon_continue,
}


def run(config):
    """Execute one config; returns the process exit code."""
    outdir = Path(config.get("output", "out"))
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_IO

    def fail(code, payload):
        _write_json(outdir / "error.json", payload)
        print(payload["message"], file=sys.stderr)
        return code

    command = config.get("command")
    if command not in _DISPATCH:
        return fail(EXIT_HYPOTHESIS, {
            "error": "hypothesis_violation", "hypothesis": "command",
            "message": f"unknown command {command!r}"})
    timings = {}
    started = time.time()
    try:
        outputs = _DISPATCH[command](config, outdir, timings)
    except FracBVPError as exc:
        return fail(exc.exit_code, {
            "error": exc.kind, "message": str(exc),
            **{key: getattr(exc, key) for key in exc.report_fields}})
    except OSError as exc:
        return fail(EXIT_IO, {"error": "io", "message": str(exc)})
    _write_json(outdir / "manifest.json", {
        "command": command,
        "config": {k: v for k, v in config.items() if k != "command"},
        "versions": {"fracbvp": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "timings_s": timings,
        "outputs": outputs,
        "timestamp": started,
    })
    return EXIT_OK


def build_config(args):
    """Merge the config file (if any) with flag overrides."""
    config = {"problem": {}, "numerics": dict(NUMERIC_DEFAULTS)}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        config["problem"].update(loaded.get("problem", {}))
        config["numerics"].update(loaded.get("numerics", {}))
        for key in ("command", "output"):
            if key in loaded:
                config[key] = loaded[key]
    if args.command:
        config["command"] = args.command
    if args.out is not None:
        config["output"] = args.out
    config.setdefault("output", "out")
    for key in ("alpha", "weight", "nonlinearity"):
        value = getattr(args, key)
        if value is not None:
            config["problem"][key] = value
    for key in ("n", "grading", "exponent", "tol", "maxit", "alphas", "trials",
                "l", "p", "zeta", "beta_min", "beta_max", "scan_points",
                "target_alpha", "alpha_step", "min_step"):
        value = getattr(args, key)
        if value is not None:
            config["numerics"][key] = value
    return config


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="fracbvp",
        description="Positive-solution experiments for order-alpha two-point "
                    "Dirichlet problems")
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="pipeline to run (may come from the config file)")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument("--alpha", type=float, help="differentiation order in (1,2]")
    parser.add_argument("--weight", help="weight spec, e.g. constant:1 or "
                                         "power_offset:4:0.5")
    parser.add_argument("--nonlin", dest="nonlinearity",
                        help="nonlinearity spec, e.g. power:1:0.5")
    parser.add_argument("--n", type=int, help="mesh intervals")
    parser.add_argument("--grading", choices=("auto", "uniform", "graded"))
    parser.add_argument("--exponent", type=float, help="grading exponent")
    parser.add_argument("--tol", type=float, help="solver tolerance")
    parser.add_argument("--maxit", type=int, help="iteration budget")
    parser.add_argument("--alphas", help="sweep schedule start:stop:step")
    parser.add_argument("--trials", type=int, help="nonexistence probe starts")
    parser.add_argument("--l", type=float, help="weight exponent l")
    parser.add_argument("--p", type=float, help="nonlinearity power p")
    parser.add_argument("--zeta", type=float, help="right endpoint level")
    parser.add_argument("--beta-min", dest="beta_min", type=float)
    parser.add_argument("--beta-max", dest="beta_max", type=float)
    parser.add_argument("--scan-points", dest="scan_points", type=int)
    parser.add_argument("--target-alpha", dest="target_alpha", type=float)
    parser.add_argument("--step", dest="alpha_step", type=float,
                        help="continuation step in alpha")
    parser.add_argument("--min-step", dest="min_step", type=float)
    return parser


def main(argv=None):
    args = _make_parser().parse_args(argv)
    if not args.command and not args.config:
        _make_parser().error("provide a command or a --config file")
    try:
        config = build_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
