"""Span recorder for the traced benchmark run.

Every public function of the package's layer modules is wrapped from the
outside: the wrapper is rebound in each ``fracbvp`` module namespace that
holds the original (``assemble``, for example, is imported separately by
``cli``, ``eigen``, ``sublinear``, ``superlinear`` and ``shooting``), so no
file under ``src/`` changes.  ``shooting.solve_ivp``, ``superlinear.lu_factor``
and ``numpy.linalg.svd`` are wrapped too, so work counts are taken where the
work happens.

A span is (id, parent id, name, start, end, self time, info).  Self time is
the span's duration minus the time its child spans cover.  Spans stay in
memory until ``Recorder.dump`` writes them out when the run ends.
"""

import functools
import importlib
import inspect
import json
import statistics
import time

LAYERS = ("kernel", "grid", "operator", "eigen", "sublinear", "superlinear",
          "shooting", "cli")
MESH_SPANS = ("grid.production_mesh", "grid.make_mesh", "grid.with_node")


def _assemble_info(args, kwargs, result):
    return {"m": int(result.matrix.shape[0])}


def _matrix_info(args, kwargs, result):
    return {"m": int(args[0].shape[0])}


def _probe_info(args, kwargs, result):
    return {"picard": sum(t.iterations for t in result.trials),
            "trials": len(result.trials),
            "conclusive": sum(t.outcome in ("diverged", "decayed")
                              for t in result.trials)}


def _crossings_info(args, kwargs, result):
    return {"crossings": len(result),
            "scan_points": int(kwargs.get("scan_points", 2000))}


def _ivp_info(args, kwargs, result):
    return {"nfev": int(result.nfev), "steps": len(result.t) - 1}


# what each wrapped call records about its result, beyond its timing
INFO = {
    "operator.assemble": _assemble_info,
    "eigen.principal_eigenpair":
        lambda a, k, r: {"iterations": r.iterations},
    "sublinear.monotone_solve": lambda a, k, r: {"sweeps": r.iterations},
    "sublinear.nonexistence_probe": _probe_info,
    "superlinear.newton_solve":
        lambda a, k, r: {"iterations": r.iterations},
    "superlinear.continue_alpha":
        lambda a, k, r: {"accepted": len(r.steps) - 1},
    "superlinear.lu_factor": _matrix_info,
    "superlinear.svd": _matrix_info,
    "shooting.find_crossings": _crossings_info,
    "shooting.solve_ivp": _ivp_info,
}


class Recorder:
    """Spans of the wrapped calls, in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []            # [span id, accumulated child time]

    def wrap(self, name, fn):
        info_of = INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            spans.append(None)      # reserve the id in call order
            stack.append(frame)
            info = {}
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                info = {"error": type(exc).__name__}
                iterations = getattr(exc, "iterations", None)
                if iterations is not None:
                    info["iterations"] = iterations
                raise
            else:
                if info_of is not None:
                    info = info_of(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, name, start, end, dur - frame[1],
                              info)
        return traced

    def install(self):
        """Wrap the layers' public functions in every namespace holding them."""
        import numpy
        import fracbvp

        modules = {layer: importlib.import_module(f"fracbvp.{layer}")
                   for layer in LAYERS}
        wrappers = {}               # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            names = ["main"] if layer == "cli" else [
                name for name, obj in vars(mod).items()
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                and not name.startswith("_")]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for name, owner in (("shooting.solve_ivp", modules["shooting"]),
                            ("superlinear.lu_factor", modules["superlinear"])):
            fn = getattr(owner, name.split(".")[1])
            wrappers[id(fn)] = (fn, self.wrap(name, fn))

        for mod in [fracbvp, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        mesh_cls = modules["grid"].Mesh
        mesh_cls.with_node = self.wrap("grid.with_node", mesh_cls.with_node)
        numpy.linalg.svd = self.wrap("superlinear.svd", numpy.linalg.svd)

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, self_s, info in self.spans:
                fh.write(json.dumps([sid, parent, name, start, end, self_s,
                                     info]))
                fh.write("\n")


def _median(values):
    return statistics.median(values) if values else 0.0


# metrics that are not sums over spans, so not divided by the pass count
NOT_ADDITIVE = ("max_nodes", "_ratio", ".median_s")


def layer_metrics(spans, wall_s, passes):
    """Per-pass layer counts, self times and case medians from a span list.

    A run repeats one pass of identical jobs, so sums over the run's spans
    are divided by ``passes``; counts then repeat exactly between runs that
    make different numbers of passes.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum(s[5] for s in by_name.get(name, ()))

    def info_sum(name, key):
        return sum(s[6].get(key, 0) for s in by_name.get(name, ()))

    def children(parent_name, child_name):
        parents = {s[0] for s in by_name.get(parent_name, ())}
        return [s for s in by_name.get(child_name, ()) if s[1] in parents]

    def durations(name, m_lo=None, m_hi=None):
        return [s[4] - s[3] for s in by_name.get(name, ())
                if m_lo is None or m_lo <= s[6].get("m", -1) <= m_hi]

    out = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer_self[span[2].split(".", 1)[0]] += span[5]
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layer_self[layer]

    out["kernel.green_hat_integral.calls"] = calls("kernel.green_hat_integral")
    out["kernel.green_hat_integral.self_s"] = self_s("kernel.green_hat_integral")

    mesh_names = set(MESH_SPANS)
    names = {s[0]: s[2] for s in spans}
    out["grid.mesh.total_s"] = sum(
        s[4] - s[3] for name in MESH_SPANS for s in by_name.get(name, ())
        if names.get(s[1]) not in mesh_names)

    sizes = [s[6]["m"] for s in by_name.get("operator.assemble", ())
             if "m" in s[6]]
    out["operator.assemble.calls"] = calls("operator.assemble")
    out["operator.assemble.self_s"] = self_s("operator.assemble")
    out["operator.assemble.bytes"] = sum(8 * m * m for m in sizes)
    out["operator.assemble.max_nodes"] = max(sizes, default=0)

    out["eigen.principal_eigenpair.calls"] = calls("eigen.principal_eigenpair")
    out["eigen.principal_eigenpair.self_s"] = self_s("eigen.principal_eigenpair")
    out["eigen.principal_eigenpair.iterations"] = info_sum(
        "eigen.principal_eigenpair", "iterations")
    out["eigen.lambda1_bounds.self_s"] = self_s("eigen.lambda1_bounds")

    out["sublinear.find_bracket.self_s"] = self_s("sublinear.find_bracket")
    out["sublinear.monotone_solve.self_s"] = self_s("sublinear.monotone_solve")
    out["sublinear.monotone_solve.sweeps"] = info_sum(
        "sublinear.monotone_solve", "sweeps")
    probe = "sublinear.nonexistence_probe"
    trials = info_sum(probe, "trials")
    out[f"{probe}.self_s"] = self_s(probe)
    out[f"{probe}.picard_steps"] = info_sum(probe, "picard")
    out[f"{probe}.conclusive_ratio"] = (
        info_sum(probe, "conclusive") / trials if trials else 0.0)

    out["superlinear.newton_solve.calls"] = calls("superlinear.newton_solve")
    out["superlinear.newton_solve.self_s"] = self_s("superlinear.newton_solve")
    out["superlinear.newton_solve.iterations"] = info_sum(
        "superlinear.newton_solve", "iterations")
    for name in ("lu_factor", "svd"):
        out[f"superlinear.{name}.calls"] = calls(f"superlinear.{name}")
        out[f"superlinear.{name}.self_s"] = self_s(f"superlinear.{name}")
    out["superlinear.nondegeneracy.self_s"] = self_s("superlinear.nondegeneracy")
    cont = "superlinear.continue_alpha"
    accepted = info_sum(cont, "accepted")
    attempted = len(children(cont, "superlinear.newton_solve"))
    out[f"{cont}.self_s"] = self_s(cont)
    out[f"{cont}.accepted_steps"] = accepted
    out[f"{cont}.accept_ratio"] = accepted / attempted if attempted else 0.0
    out["superlinear.find_positive_solution.seeds_tried"] = len(
        children("superlinear.find_positive_solution",
                 "superlinear.newton_solve"))

    out["shooting.find_crossings.self_s"] = self_s("shooting.find_crossings")
    out["shooting.find_crossings.crossings"] = info_sum(
        "shooting.find_crossings", "crossings")
    for name in ("first_zero", "solve_ivp", "rescale_to_unit"):
        out[f"shooting.{name}.calls"] = calls(f"shooting.{name}")
        out[f"shooting.{name}.self_s"] = self_s(f"shooting.{name}")
    out["shooting.rhs_evals"] = info_sum("shooting.solve_ivp", "nfev")
    out["shooting.rk_steps"] = info_sum("shooting.solve_ivp", "steps")

    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = self_s("cli.main")

    # medians of the single-operation cases the roadmap quotes
    scans, polish = [], []
    for fc in by_name.get("shooting.find_crossings", ()):
        done = [s[4] for s in by_name.get("shooting.first_zero", ())
                if s[1] == fc[0] and "error" not in s[6]]
        n = fc[6].get("scan_points", 0)
        if n and len(done) >= n:
            scans.append(done[n - 1] - fc[3])
            polish.append(fc[4] - done[n - 1])
    out["case.assemble_n400.median_s"] = _median(
        durations("operator.assemble", 401, 404))
    out["case.assemble_n3072.median_s"] = _median(
        durations("operator.assemble", 3073, 3076))
    out["case.lu_factor_n400.median_s"] = _median(
        durations("superlinear.lu_factor", 401, 404))
    out["case.svd_n400.median_s"] = _median(
        durations("superlinear.svd", 401, 404))
    out["case.principal_eigenpair.median_s"] = _median(
        durations("eigen.principal_eigenpair"))
    out["case.first_zero.median_s"] = _median(durations("shooting.first_zero"))
    out["case.beta_scan.median_s"] = _median(scans)
    out["case.scan_polish.median_s"] = _median(polish)
    out["case.rescale_to_unit.median_s"] = _median(
        durations("shooting.rescale_to_unit"))

    out["trace.spans"] = len(spans)
    out = {name: value if name.endswith(NOT_ADDITIVE) else value / passes
           for name, value in out.items()}
    out["trace.wall_s"] = wall_s
    return out
