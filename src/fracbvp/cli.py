"""Command-line entry point for reproducible solver experiments.

Each run takes a JSON config (flags override individual fields), executes one
pipeline, and writes a manifest plus command-specific CSV/JSON artifacts into
the output directory.  All numerical output is printed with 17 significant
digits so re-running a config on the same BLAS build and thread setting
reproduces every CSV byte for byte; the manifest records both, and only it
carries the timestamp and wall-clock timings.

Each input is read and checked before the work it feeds: ``henon-continue``
builds its mesh and order-2 operator before its ``henon-shoot`` beta scan.

Exit codes: 0 success, 2 hypothesis violation, 3 non-convergence, 4 I/O error.
"""

import argparse
import csv
import json
import math
import os
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
from .shooting import (HenonParams, find_crossings, rescale_to_unit,
                       unit_problem)
from .sublinear import find_bracket, monotone_solve, nonexistence_probe
from .superlinear import continue_alpha, find_positive_solution, newton_solve, nondegeneracy

EXIT_OK = 0
EXIT_IO = 4

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

# orders lie in (1, 2] and each one in a sweep costs an assembly and an
# eigensolve, so a schedule of more steps than this is a mistyped step: one
# of 1e-7 would build 9e6 orders before the first is solved
MAX_SCHEDULE_STEPS = 1000

# the type a config value, from a flag or a file, is converted to: a numerics
# value takes its default's type, and exponent (default None) is a float
CONFIG_TYPES = {
    "problem": {"alpha": float, "weight": str, "nonlinearity": str},
    "numerics": {key: type(default) for key, default in NUMERIC_DEFAULTS.items()}
    | {"exponent": lambda value: None if value is None else float(value)},
}

# thread settings the BLAS builds read: the summation order of a product,
# so the last bits of a result, depends on the thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


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
    schedule = ":" in spec
    try:
        values = [float(v) for v in spec.split(":" if schedule else ",")]
    except ValueError:
        values = []
    if not (values and np.all(np.isfinite(values))) or schedule and not (
            len(values) == 3 and values[2] > 0.0 and values[1] >= values[0]):
        raise HypothesisError("order-range", f"bad alpha schedule {spec!r}")
    if not schedule:
        return values
    start, stop, step = values
    steps = (stop - start) / step       # inf when the division overflows
    if not steps <= MAX_SCHEDULE_STEPS:
        raise HypothesisError(
            "order-range", f"alpha schedule {spec!r} takes more than "
            f"{MAX_SCHEDULE_STEPS} steps")
    count = int(round(steps))
    return [float(v) for v in np.linspace(start, stop, count + 1)]


def _typed_config(config):
    """``config`` with numerics defaults filled in and each value converted
    to its type; raises ``HypothesisError`` on any key or value it rejects."""
    if config.get("command") not in COMMANDS:
        raise HypothesisError(
            "command", f"unknown command {config.get('command')!r}")
    unknown = set(config) - {"command", "output", *CONFIG_TYPES}
    if unknown:
        raise HypothesisError("config", f"unknown config keys {sorted(unknown)}")
    typed = {**config, "problem": {}, "numerics": dict(NUMERIC_DEFAULTS)}
    for section, types in CONFIG_TYPES.items():
        for key, value in config.get(section, {}).items():
            if key not in types:
                raise HypothesisError("config", f"unknown {section} key {key!r}")
            try:
                typed[section][key] = types[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise HypothesisError(
                    "config", f"cannot read {section} {key} = {value!r}: {exc}"
                ) from None
    numerics = typed["numerics"]
    nonfinite = sorted(key for key, value in numerics.items()
                       if isinstance(value, float) and not math.isfinite(value))
    # the step rule is continue_alpha's: a zero step accepts one order forever
    if nonfinite or not (numerics["tol"] > 0.0 and numerics["maxit"] >= 1
                         and abs(numerics["alpha_step"]) > 0.0
                         and numerics["min_step"] > 0.0):
        got = {key: numerics[key]
               for key in ("tol", "maxit", "alpha_step", "min_step")}
        raise HypothesisError(
            "solver-settings", "need finite settings, tol > 0, maxit >= 1, a "
            f"nonzero step and min_step > 0; got {got}, non-finite {nonfinite}")
    return typed


def _build_mesh(numerics, alpha, weight):
    grading, exponent = numerics["grading"], numerics["exponent"]
    if grading != "graded" and exponent is not None:
        raise HypothesisError(
            "mesh-grading", "--exponent applies only to --grading graded")
    if grading == "auto":
        return production_mesh(alpha, n=numerics["n"], weight=weight)
    if grading not in ("uniform", "graded"):
        raise HypothesisError("mesh-size", f"unknown grading {grading!r}")
    if grading == "graded" and exponent is None:
        raise HypothesisError("mesh-size",
                              "graded meshes need an explicit exponent")
    return make_mesh(numerics["n"], grading, exponent).with_kinks(weight)


# how each field of the problem section is read and checked
_PROBLEM_READERS = {"alpha": check_order, "weight": parse_weight,
                    "nonlinearity": parse_nonlinearity}


def _problem_data(config, fields=("alpha", "weight", "nonlinearity", "mesh")):
    """The named problem fields, read and checked in order; ``"mesh"`` (after
    alpha and weight) is the solver mesh, built only for commands naming it."""
    data = {}
    for key in fields:
        if key == "mesh":
            data[key] = _build_mesh(config["numerics"], data["alpha"],
                                    data["weight"])
        elif key not in config["problem"]:
            raise HypothesisError("problem-spec",
                                  f"the problem needs a {key!r} field")
        else:
            data[key] = _PROBLEM_READERS[key](config["problem"][key])
    return tuple(data.values())


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
    alpha, weight, mesh = _problem_data(config, ("alpha", "weight", "mesh"))
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    eig = principal_eigenpair(A, tol=numerics["tol"], maxit=numerics["maxit"])
    timings["solve"] = time.perf_counter() - t0
    _write_csv(outdir / "eig.csv",
               ["alpha", "lambda1", "residual", "iterations"],
               [[_g(alpha), _g(eig.lambda1), _g(eig.residual), eig.iterations]])
    eig.phi1.to_csv(outdir / "phi1.csv")
    return ["eig.csv", "phi1.csv"]


def _cmd_bounds(config, outdir, timings):
    alpha, weight = _problem_data(config, ("alpha", "weight"))
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
    weight, = _problem_data(config, ("weight",))
    alphas = [check_order(a) for a in parse_alphas(numerics["alphas"])]
    t0 = time.perf_counter()
    rows = sweep_alpha(alphas, weight, n=numerics["n"], tol=numerics["tol"],
                       maxit=numerics["maxit"])
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
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    eig = principal_eigenpair(A)
    bracket = find_bracket(eig, f, A)
    report = monotone_solve(bracket, f, A, tol=max(numerics["tol"], 1e-12),
                            maxit=numerics["maxit"])
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
    report = find_positive_solution(A, f, eig, tol=numerics["tol"],
                                    maxit=min(numerics["maxit"], 200))
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
        "margin_method": margin.method,
        "margin_iterations": margin.iterations,
    })
    return ["solution.csv", "newton_report.json"]


def _cmd_nonexist(config, outdir, timings):
    alpha, weight, f, mesh = _problem_data(config)
    t0 = time.perf_counter()
    A = assemble(mesh, alpha, weight)
    report = nonexistence_probe(f, A, principal_eigenpair(A),
                                trials=config["numerics"]["trials"])
    timings["solve"] = time.perf_counter() - t0
    _write_csv(outdir / "trials.csv",
               ["trial", "amplitude", "shape", "outcome", "iterations",
                "final_norm", "residual"],
               [[k, _g(o.amplitude), o.shape, o.outcome, o.iterations,
                 _g(o.final_norm), _g(o.residual)]
                for k, o in enumerate(report.trials)])
    _write_json(outdir / "probe.json", {
        "regime": report.regime,
        "lambda1": report.lambda1,
        "verdict": report.verdict,
        "outcomes": [o.outcome for o in report.trials],
    })
    return ["trials.csv", "probe.json"]


def _shoot(config, params, outdir, timings):
    """Scan, time and write ``crossings.csv``: ``henon-shoot``, and the
    first stage of ``henon-continue``.  Returns the crossing records."""
    numerics = config["numerics"]
    t0 = time.perf_counter()
    records = find_crossings(
        numerics["zeta"], params,
        beta_range=(numerics["beta_min"], numerics["beta_max"]),
        scan_points=numerics["scan_points"])
    timings["shoot"] = time.perf_counter() - t0
    _write_csv(outdir / "crossings.csv",
               ["beta", "z", "morse_index", "w_end_sign", "z_prime"],
               [[_g(r.beta), _g(r.z), r.morse_index, r.w_end_sign,
                 _g(r.z_prime)] for r in records])
    return records


def _cmd_henon_shoot(config, outdir, timings):
    params = HenonParams(l=config["numerics"]["l"], p=config["numerics"]["p"])
    _shoot(config, params, outdir, timings)
    return ["crossings.csv"]


def _cmd_henon_continue(config, outdir, timings):
    numerics = config["numerics"]
    params = HenonParams(l=numerics["l"], p=numerics["p"])
    zeta = numerics["zeta"]
    delta, weight, f = unit_problem(zeta, params)
    target = check_order(numerics["target_alpha"])
    mesh = _build_mesh(numerics, target, weight)
    tol = numerics["tol"]
    t0 = time.perf_counter()
    # every seed starts at order 2 on the same mesh: assemble that once,
    # before the scan, so a mesh that cannot be built stops the run first
    A2 = assemble(mesh, 2.0, weight)
    timings["assemble"] = time.perf_counter() - t0

    records = _shoot(config, params, outdir, timings)
    outputs = ["crossings.csv"]
    seeds = [r for r in records if not r.degenerate]
    t0 = time.perf_counter()
    summary = {"delta": delta, "crossings": len(records),
               "seeds": len(seeds), "traces": []}
    endpoints = []
    for k, record in enumerate(seeds):
        unit = rescale_to_unit(record, zeta, params, mesh)
        start = newton_solve(A2, f, unit.profile, tol=tol)
        trace = continue_alpha(start, A2, target, f,
                               initial_step=numerics["alpha_step"],
                               min_step=numerics["min_step"], tol=tol)
        with open(outdir / f"trace_{k}.jsonl", "w") as fh:
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
COMMANDS = tuple(_DISPATCH)


def _make_outdir(path):
    """``path`` as an existing directory, or None if it cannot be made."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
        return Path(path)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return None


def _fail(outdir, exc):
    """Write ``error.json`` for ``exc`` and return its exit code."""
    if isinstance(exc, OSError):
        code, payload = EXIT_IO, {"error": "io", "message": str(exc)}
    else:
        code, payload = exc.exit_code, {
            "error": exc.kind, "message": str(exc),
            **{key: getattr(exc, key) for key in exc.report_fields}}
    _write_json(outdir / "error.json", payload)
    print(payload["message"], file=sys.stderr)
    return code


def _blas():
    """The BLAS builds of numpy and scipy (the Newton triangular solves run
    on scipy's) and the thread settings in the environment."""
    builds = {}
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        builds[module.__name__] = f"{blas.get('name')} {blas.get('version')}"
    return {**builds,
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def run(config):
    """Execute one config; returns the process exit code."""
    outdir = _make_outdir(config.get("output", "out"))
    if outdir is None:
        return EXIT_IO
    timings = {}
    started = time.time()
    try:
        config = _typed_config(config)
        outputs = _DISPATCH[config["command"]](config, outdir, timings)
    except (FracBVPError, OSError) as exc:
        return _fail(outdir, exc)
    _write_json(outdir / "manifest.json", {
        "command": config["command"],
        "config": {k: v for k, v in config.items() if k != "command"},
        "versions": {"fracbvp": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": sys.version.split()[0]},
        "blas": _blas(),
        "timings_s": timings,
        "outputs": outputs,
        "timestamp": started,
    })
    return EXIT_OK


def build_config(args):
    """The config file (if any) with the flags laid over it, values as given
    (``run`` checks them); raises ``HypothesisError`` unless the file is a
    JSON object whose output is a string and whose sections are objects."""
    loaded = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
    if not (isinstance(loaded, dict) and isinstance(loaded.get("output", ""), str)
            and all(isinstance(loaded.get(s, {}), dict) for s in CONFIG_TYPES)):
        raise HypothesisError("config", "a config file holds a JSON object whose "
                              "output is a string and sections are objects")
    config = {"output": "out", **loaded,
              **{section: dict(loaded.get(section, {})) for section in CONFIG_TYPES}}
    if args.command:
        config["command"] = args.command
    if args.out is not None:
        config["output"] = args.out
    for section, types in CONFIG_TYPES.items():
        for key in types:
            value = getattr(args, key)
            if value is not None:
                config[section][key] = value
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
    parser.add_argument("--alpha", help="differentiation order in (1,2]")
    parser.add_argument("--weight", help="weight spec, e.g. constant:1 or "
                                         "power_offset:4:0.5")
    parser.add_argument("--nonlin", dest="nonlinearity",
                        help="nonlinearity spec, e.g. power:1:0.5")
    parser.add_argument("--n", help="mesh intervals")
    parser.add_argument("--grading", choices=("auto", "uniform", "graded"))
    parser.add_argument("--exponent", help="grading exponent")
    parser.add_argument("--tol", help="solver tolerance")
    parser.add_argument("--maxit", help="iteration budget")
    parser.add_argument("--alphas", help="sweep schedule start:stop:step")
    parser.add_argument("--trials", help="nonexistence probe starts")
    parser.add_argument("--l", help="weight exponent l")
    parser.add_argument("--p", help="nonlinearity power p")
    parser.add_argument("--zeta", help="right endpoint level")
    parser.add_argument("--beta-min", dest="beta_min")
    parser.add_argument("--beta-max", dest="beta_max")
    parser.add_argument("--scan-points", dest="scan_points")
    parser.add_argument("--target-alpha", dest="target_alpha")
    parser.add_argument("--step", dest="alpha_step",
                        help="continuation step in alpha")
    parser.add_argument("--min-step", dest="min_step")
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
    except HypothesisError as exc:
        outdir = _make_outdir(args.out or "out")
        return EXIT_IO if outdir is None else _fail(outdir, exc)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
