"""Command-line entry point for reproducible solver experiments.

Each run takes a JSON config (flags override individual fields), executes one
pipeline, and writes its CSV/JSON artifacts into the output directory, each
in one call, then a manifest whose ``outputs`` lists them in write order.
Numbers are printed with 17 significant digits, so re-running a config on the
same BLAS build and thread setting, both in the manifest, reproduces every
CSV byte for byte; only the manifest's timestamp and timings differ.
``solve-super`` caps Newton at ``min(--maxit, 200)`` iterations.

Each input is read and checked before the work it feeds: ``henon-continue``
builds its mesh and order-2 operator before its ``henon-shoot`` beta scan.

Exit codes: 0 success, 2 hypothesis violation, 3 non-convergence, 4 I/O error.
"""

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (EXIT_HYPOTHESIS, EXIT_NONCONVERGENCE, FracBVPError,
                     HypothesisError)
from .eigen import lambda1_bounds, principal_eigenpair, sweep_alpha
from .grid import GridFunction, make_mesh, production_mesh
from .kernel import check_order
from .operator import NonlinearityFamily, WeightFamily, assemble
from .shooting import (HenonParams, find_crossings, rescale_to_unit,
                       unit_problem)
from .sublinear import (check_trials, find_bracket, monotone_solve,
                        nonexistence_probe)
from .superlinear import continue_alpha, find_positive_solution, newton_solve, nondegeneracy

EXIT_OK = 0
EXIT_IO = 4

# every setting once, as key: (section, default, flag, help).  A value, from
# a flag or a file, is read as its default's type, or by its _READERS entry
# where the default gives none (the problem fields have no default)
SETTINGS = {
    "alpha": ("problem", None, "--alpha", "differentiation order in (1,2]"),
    "weight": ("problem", None, "--weight", "weight spec, e.g. constant:1"),
    "nonlinearity": ("problem", None, "--nonlin", "f spec, e.g. power:1:0.5"),
    "n": ("numerics", 400, "--n", "mesh intervals"),
    "grading": ("numerics", "auto", "--grading", "auto, uniform or graded"),
    "exponent": ("numerics", None, "--exponent", "grading exponent"),
    "tol": ("numerics", 1e-10, "--tol", "relative solver tolerance"),
    "maxit": ("numerics", 10000, "--maxit", "iteration budget"),
    "trials": ("numerics", 10, "--trials", "nonexistence probe starts"),
    "l": ("numerics", 4.0, "--l", "weight exponent l"),
    "p": ("numerics", 2.0, "--p", "nonlinearity power p"),
    "zeta": ("numerics", 1.0, "--zeta", "right endpoint level"),
    "beta_min": ("numerics", 1e-3, "--beta-min", "lowest beta scanned"),
    "beta_max": ("numerics", 1e3, "--beta-max", "highest beta scanned"),
    "scan_points": ("numerics", 2000, "--scan-points", "betas scanned"),
    "target_alpha": ("numerics", 1.95, "--target-alpha", "last order"),
    "alpha_step": ("numerics", 0.005, "--step", "initial step in alpha"),
    "min_step": ("numerics", 1e-5, "--min-step", "smallest step"),
    "alphas": ("numerics", "1.5:2.0:0.05", "--alphas", "start:stop:step"),
}


def _grading(value):
    if value not in ("auto", "uniform", "graded"):
        raise ValueError("grading is auto, uniform or graded")
    return value


_READERS = {"alpha": float, "weight": str, "nonlinearity": str,
            "grading": _grading,
            "exponent": lambda value: None if value is None else float(value)}
NUMERIC_DEFAULTS = {key: default for key, (section, default, *_)
                    in SETTINGS.items() if section == "numerics"}
CONFIG_TYPES = {section: {key: _READERS.get(key, type(row[1]))
                          for key, row in SETTINGS.items() if row[0] == section}
                for section in ("problem", "numerics")}

# orders lie in (1, 2] and each one in a sweep costs an assembly and an
# eigensolve, so a schedule of more steps than this is a mistyped step: one
# of 1e-7 would build 9e6 orders before the first is solved
MAX_SCHEDULE_STEPS = 1000

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
    except ValueError as exc:       # an OSError of a table is exit 4
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
                # read as a flag's text: int(True) is 1 and int(40.9) is 40
                typed[section][key] = types[key](value if value is None else str(value))
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


def _build_mesh(numerics, alpha):
    grading, exponent = numerics["grading"], numerics["exponent"]
    if grading != "graded" and exponent is not None:
        raise HypothesisError(
            "mesh-grading", "--exponent applies only to --grading graded")
    if grading == "auto":
        return production_mesh(alpha, n=numerics["n"])
    if grading == "graded" and exponent is None:
        raise HypothesisError("mesh-size",
                              "graded meshes need an explicit exponent")
    return make_mesh(numerics["n"], grading, exponent)


# how each field of the problem section is read and checked
_PROBLEM_READERS = {"alpha": check_order, "weight": parse_weight,
                    "nonlinearity": parse_nonlinearity}


def _problem_data(config, fields=("alpha", "weight", "nonlinearity", "mesh")):
    """The named problem fields, read and checked in order; ``"mesh"`` (after
    alpha) is the solver mesh, built only for commands naming it."""
    data = {}
    for key in fields:
        if key == "mesh":
            data[key] = _build_mesh(config["numerics"], data["alpha"])
        elif key not in config["problem"]:
            raise HypothesisError("problem-spec",
                                  f"the problem needs a {key!r} field")
        else:
            data[key] = _PROBLEM_READERS[key](config["problem"][key])
    return tuple(data.values())


class _Out:
    """The output directory.  Writes each file in one call and lists the
    names in write order: ``run`` gives the list to the manifest."""

    def __init__(self, path):
        self.path, self.names = path, []

    def text(self, name, text):
        (self.path / name).write_text(text, newline="")
        self.names.append(name)

    def table(self, name, header, rows):
        """A CSV of plain fields, none holding a comma, quote or newline."""
        self.text(name, "".join(",".join(map(str, row)) + "\n"
                                for row in (header, *rows)))

    def grid(self, name, function):
        function.to_csv(self.path / name)
        self.names.append(name)

    def json(self, name, payload):
        self.text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@contextmanager
def _timed(timings, phase):
    """Time the block into ``timings[phase]``, in seconds."""
    start = time.perf_counter()
    yield
    timings[phase] = time.perf_counter() - start


def _cmd_eig(config, out, timings):
    numerics = config["numerics"]
    alpha, weight, mesh = _problem_data(config, ("alpha", "weight", "mesh"))
    with _timed(timings, "solve"):
        A = assemble(mesh, alpha, weight)
        eig = principal_eigenpair(A, tol=numerics["tol"],
                                  maxit=numerics["maxit"])
    out.table("eig.csv", ["alpha", "lambda1", "residual", "iterations"],
              [[_g(alpha), _g(eig.lambda1), _g(eig.residual), eig.iterations]])
    out.grid("phi1.csv", eig.phi1)


def _cmd_bounds(config, out, timings):
    alpha, weight = _problem_data(config, ("alpha", "weight"))
    with _timed(timings, "solve"):
        bounds = lambda1_bounds(alpha, weight)
    out.table("bounds.csv", ["alpha", "lower", "upper"],
              [[_g(alpha), _g(bounds.lower), _g(bounds.upper)]])


def _cmd_sweep(config, out, timings):
    numerics = config["numerics"]
    if numerics["grading"] != "auto" or numerics["exponent"] is not None:
        raise HypothesisError(
            "mesh-grading", "sweep meshes every order with its graded "
            "production mesh; --grading and --exponent do not apply")
    weight, = _problem_data(config, ("weight",))
    alphas = [check_order(a) for a in parse_alphas(numerics["alphas"])]
    with _timed(timings, "solve"):
        rows = sweep_alpha(alphas, weight, n=numerics["n"],
                           tol=numerics["tol"], maxit=numerics["maxit"])
    out.table("sweep.csv",
              ["alpha", "lambda1", "lower_bound", "upper_bound",
               "residual", "iterations"],
              [[_g(r.alpha), _g(r.lambda1), _g(r.lower), _g(r.upper),
                _g(r.residual), r.iterations] for r in rows])


def _cmd_solve_sub(config, out, timings):
    numerics = config["numerics"]
    alpha, weight, f, mesh = _problem_data(config)
    with _timed(timings, "solve"):
        A = assemble(mesh, alpha, weight)
        eig = principal_eigenpair(A)
        bracket = find_bracket(eig, f, A)
        report = monotone_solve(bracket, f, A, tol=numerics["tol"],
                                maxit=numerics["maxit"])
    out.grid("solution.csv", report.solution)
    out.json("solve_report.json", {
        "lambda1": eig.lambda1,
        "bracket": {"delta": bracket.delta, "m_upper": bracket.m_upper},
        "iterations": report.iterations,
        "residual": report.residual,
        "from_side": report.from_side,
        "sup_norm": float(np.max(np.abs(report.solution.values))),
    })


def _cmd_solve_super(config, out, timings):
    numerics = config["numerics"]
    alpha, weight, f, mesh = _problem_data(config)
    maxit = min(numerics["maxit"], 200)
    with _timed(timings, "solve"):
        A = assemble(mesh, alpha, weight)
        eig = principal_eigenpair(A)
        report = find_positive_solution(A, f, eig, tol=numerics["tol"],
                                        maxit=maxit)
        margin = nondegeneracy(A, f, report.solution)
    out.grid("solution.csv", report.solution)
    out.json("newton_report.json", {
        "lambda1": eig.lambda1,
        "iterations": report.iterations,
        "maxit": maxit,
        "residual": report.residual,
        "converged": report.converged,
        "positive": report.positive,
        "sup_norm": float(np.max(np.abs(report.solution.values))),
        "nondegeneracy_margin": margin.margin,
        "degenerate": margin.degenerate,
        "margin_iterations": margin.iterations,
    })


def _cmd_nonexist(config, out, timings):
    alpha, weight, f, mesh = _problem_data(config)
    trials = config["numerics"]["trials"]
    check_trials(trials)
    with _timed(timings, "solve"):
        A = assemble(mesh, alpha, weight)
        report = nonexistence_probe(f, A, principal_eigenpair(A), trials=trials)
    out.table("trials.csv",
              ["trial", "amplitude", "shape", "outcome", "iterations",
               "final_norm", "residual"],
              [[k, _g(o.amplitude), o.shape, o.outcome, o.iterations,
                _g(o.final_norm), _g(o.residual)]
               for k, o in enumerate(report.trials)])
    out.json("probe.json", {
        "regime": report.regime,
        "lambda1": report.lambda1,
        "verdict": report.verdict,
        "outcomes": [o.outcome for o in report.trials],
    })


def _cmd_henon_shoot(config, out, timings):
    """Scan, write ``crossings.csv`` and return the crossing records."""
    numerics = config["numerics"]
    params = HenonParams(l=numerics["l"], p=numerics["p"])
    with _timed(timings, "shoot"):
        records = find_crossings(
            numerics["zeta"], params,
            beta_range=(numerics["beta_min"], numerics["beta_max"]),
            scan_points=numerics["scan_points"])
    out.table("crossings.csv",
              ["beta", "z", "morse_index", "w_end_sign", "z_prime"],
              [[_g(r.beta), _g(r.z), r.morse_index, r.w_end_sign,
                _g(r.z_prime)] for r in records])
    return records


def _cmd_henon_continue(config, out, timings):
    numerics = config["numerics"]
    params = HenonParams(l=numerics["l"], p=numerics["p"])
    zeta = numerics["zeta"]
    delta, weight, f = unit_problem(zeta, params)
    target = check_order(numerics["target_alpha"])
    mesh = _build_mesh(numerics, target)
    tol = numerics["tol"]
    # every seed starts at order 2 on the same mesh: assemble that once,
    # before the scan, so a mesh that cannot be built stops the run first
    with _timed(timings, "assemble"):
        A2 = assemble(mesh, 2.0, weight)

    records = _cmd_henon_shoot(config, out, timings)
    seeds = [r for r in records if not r.degenerate]
    summary = {"delta": delta, "crossings": len(records),
               "seeds": len(seeds), "traces": []}
    endpoints = []
    with _timed(timings, "continue"):
        for k, record in enumerate(seeds):
            unit = rescale_to_unit(record, zeta, params, A2.mesh)
            start = newton_solve(A2, f, unit.profile, tol=tol)
            trace = continue_alpha(start, A2, target, f,
                                   initial_step=numerics["alpha_step"],
                                   min_step=numerics["min_step"], tol=tol)
            out.text(f"trace_{k}.jsonl", "".join(json.dumps({
                "alpha": step.alpha,
                "residual": step.residual,
                "margin": step.margin,
                "newton_iterations": step.newton_iterations,
                "det_sign": step.det_sign,
                "sup_norm": float(np.max(np.abs(step.solution.values))),
            }, sort_keys=True) + "\n" for step in trace.steps))
            end = trace.steps[-1]
            out.grid(f"endpoint_{k}.csv", end.solution)
            endpoints.append(end.solution.values)
            summary["traces"].append({
                "beta": record.beta,
                "scale_exponent": unit.scale_exponent_used,
                "status": trace.status,
                "steps": len(trace.steps),
                "rejected_steps": trace.rejected_steps,
                "end_alpha": end.alpha,
                "end_residual": end.residual,
                "end_margin": end.margin,
            })
        summary["pairwise_sup_distances"] = [
            [float(np.max(np.abs(endpoints[i] - endpoints[j])))
             for j in range(len(endpoints))] for i in range(len(endpoints))]
    out.json("summary.json", summary)


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
    """The writer into ``path``, made a directory, or None if it cannot be."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
        return _Out(Path(path))
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return None


def _fail(out, exc):
    """Write ``error.json`` for ``exc`` and return its exit code."""
    if isinstance(exc, OSError):
        code, payload = EXIT_IO, {"error": "io", "message": str(exc)}
    else:
        code, payload = exc.exit_code, {
            "error": exc.kind, "message": str(exc),
            **{key: getattr(exc, key) for key in exc.report_fields}}
    out.json("error.json", payload)
    print(payload["message"], file=sys.stderr)
    return code


def _blas():
    """numpy's BLAS build, the only one the outputs run on, and the thread
    settings in the environment."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": f"{blas.get('name')} {blas.get('version')}",
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def run(config):
    """Execute one config; returns the process exit code."""
    out = _make_outdir(config.get("output", "out"))
    if out is None:
        return EXIT_IO
    timings = {}
    started = time.time()
    try:
        config = _typed_config(config)
        _DISPATCH[config["command"]](config, out, timings)
    except (FracBVPError, OSError) as exc:
        return _fail(out, exc)
    out.json("manifest.json", {
        "command": config["command"],
        "config": {k: v for k, v in config.items() if k != "command"},
        "versions": {"fracbvp": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "blas": _blas(),
        "timings_s": timings,
        "outputs": list(out.names),
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
    for key, (section, *_) in SETTINGS.items():
        if getattr(args, key) is not None:
            config[section][key] = getattr(args, key)
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
    for key, (_, _, flag, help_text) in SETTINGS.items():
        parser.add_argument(flag, dest=key, help=help_text)
    return parser


# built once: each parse_args call reads into a fresh namespace
_PARSER = _make_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if not args.command and not args.config:
        _PARSER.error("provide a command or a --config file")
    try:
        config = build_config(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except HypothesisError as exc:
        out = _make_outdir(args.out or "out")
        return EXIT_IO if out is None else _fail(out, exc)
    return run(config)
