"""fracbvp benchmark: closed-loop CLI workloads, one client, one job at a time.

    python3 perfbench/run.py --workload henon-continue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  Each workload runs in a fresh worker process
(``worker.py``) that imports ``fracbvp.cli`` from ``src/`` and calls
``fracbvp.cli.main(argv)`` in-process for every job, checking each job's
output files.  Jobs are repeated in whole passes until ``--seconds`` have
elapsed (at least one pass).  BLAS runs single-threaded.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
``spans.py``).  ``--workload all`` runs every workload untraced and traced
and reports the tracing overhead and the layer-isolation predictions.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"
# BENCHMARK.json lists henon-continue and solver-mix; henon-shoot (one
# 26-36 s job per run) is too noisy for its bounds but stays runnable
WORKLOADS = ("henon-shoot", "henon-continue", "solver-mix")
BLAS_THREADS = 1
# fresh set-up-only processes timed before and after the timed pass; their
# median with the timed worker's own set-up is reported, so a slow phase of
# the machine weighs on setup_s as it does on the pass
SETUP_BEFORE = SETUP_AFTER = 2
RUN_LIMIT_S = 170.0

UNITS = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB"}


def _unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes_computed"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _worker(args, workdir, deadline, setup_only=False):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans",
                str(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")]
    started = time.perf_counter()
    proc = subprocess.run(cmd + ["--started", repr(started)], env=env,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def _environment(versions):
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, **versions}


def run_workload(args):
    """One benchmark run; returns the worker result plus setup and env."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORKDIR / f"jobs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_worker(args, workdir, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_BEFORE)]
        result = _worker(args, workdir, deadline)
        setups += [_worker(args, workdir, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_AFTER)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["env"] = _environment(result.pop("versions"))
    return result


def _print_metrics(metrics, indent="  "):
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        print(f"{indent}{name:<{width}}  {m['value']:.6g} {m['unit']}")


def _end_to_end(result):
    return {name: {"value": result[name], "unit": UNITS[name]}
            for name in UNITS}


def _layers(result):
    return {name: {"value": value, "unit": _unit(name)}
            for name, value in result["layers"].items()}


def _report(args, result):
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} pass(es), {result['attempted']} jobs, "
          f"{result['failed']} failed, failed_ratio "
          f"{result['failed'] / result['attempted']:.4g}")
    for failure in result["failures"]:
        print(f"  FAILED job {failure['job']} {failure['label']}: "
              f"{failure['reason']} (argv {' '.join(failure['argv'])})",
              file=sys.stderr)
    print("  env " + json.dumps(result["env"], sort_keys=True))
    metrics = _layers(result) if args.trace else _end_to_end(result)
    _print_metrics(metrics)
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics}


def run_all(args):
    """Every workload untraced then traced: overhead and isolation checks."""
    summary = {}
    for workload in WORKLOADS:
        plain = argparse.Namespace(**{**vars(args), "workload": workload,
                                      "trace": 0})
        traced = argparse.Namespace(**{**vars(plain), "trace": 1})
        result = run_workload(plain)
        _report(plain, result)
        layered = run_workload(traced)
        _report(traced, layered)
        layers = layered["layers"]
        overhead = layers["trace.wall_s"] - result["wall_s"]
        print(f"  tracing overhead {overhead:.4g} s "
              f"({overhead / result['wall_s']:.2%} of untraced wall_s)")
        summary[workload] = {"end_to_end": _end_to_end(result),
                             "failed_ratio": result["failed"] / result["attempted"],
                             "trace_overhead_s": overhead, "layers": layers,
                             "env": result["env"]}

    def layer_self(workload, *names):
        return sum(summary[workload]["layers"][f"layer.{n}.self_s"]
                   for n in names)

    shoot_wall = summary["henon-shoot"]["layers"]["trace.wall_s"]
    predictions = {
        "operator.assemble.calls == 0 on henon-shoot":
            summary["henon-shoot"]["layers"]["operator.assemble.calls"] == 0,
        "shooting.solve_ivp.calls == 0 on solver-mix":
            summary["solver-mix"]["layers"]["shooting.solve_ivp.calls"] == 0,
        "operator + superlinear self > shooting self on henon-continue":
            layer_self("henon-continue", "operator", "superlinear")
            > layer_self("henon-continue", "shooting"),
        # assemble's closed-form integrals run in kernel.green_hat_integral,
        # a child span, so assembly time sits mostly in the kernel layer
        "kernel + operator + superlinear self > shooting self on henon-continue":
            layer_self("henon-continue", "kernel", "operator", "superlinear")
            > layer_self("henon-continue", "shooting"),
        "shooting self > 90% of traced wall_s on henon-shoot":
            layer_self("henon-shoot", "shooting") > 0.9 * shoot_wall,
    }
    for claim, held in predictions.items():
        print(f"prediction {'holds' if held else 'FAILS'}: {claim}")
    summary["predictions"] = predictions
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracbvp" / "cli.py").is_file():
        print(f"no fracbvp sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        line = _report(args, run_workload(args))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
