"""One workload in a fresh process: import, generate inputs, run, check.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment.  ``--started`` is the parent's ``time.perf_counter()`` taken
just before this process was spawned (a system-wide monotonic clock on
Linux), so ``setup_s`` covers interpreter start, the import of
``fracbvp.cli`` with numpy and scipy, and input generation.

Prints one JSON object as its last line of standard output.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _run_job(cli, job, outdir):
    """Run one job and check it; returns a failure reason or None."""
    try:
        code = cli.main(job.argv + ["--out", str(outdir)])
    except SystemExit as exc:   # argparse rejects an argv
        code = exc.code
    except Exception:           # a crash is a failed job, not a lost run
        return "crashed: " + traceback.format_exc().strip().splitlines()[-1]
    if code != 0:
        return f"exit code {code}"
    try:
        return job.check(outdir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _blas_name(numpy):
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):     # numpy < 1.26 has no dict mode
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import fracbvp.cli as cli
    from workloads import WORKLOADS

    jobs = WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = Path(args.workdir)
    recorder = None
    if args.trace:
        from spans import Recorder
        recorder = Recorder()
        recorder.install()

    pass_walls, latencies, failures = [], [], []
    attempted = 0
    begin = time.perf_counter()
    while not pass_walls or time.perf_counter() - begin < args.seconds:
        t_pass = time.perf_counter()
        for job in jobs:
            outdir = workdir / f"job{attempted:05d}"
            t0 = time.perf_counter()
            reason = _run_job(cli, job, outdir)
            latencies.append(time.perf_counter() - t0)
            if reason is not None:
                failures.append({"job": attempted, "label": job.label,
                                 "argv": job.argv, "reason": reason})
            attempted += 1
        pass_walls.append(time.perf_counter() - t_pass)

    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "wall_s": statistics.median(pass_walls),
        "passes": len(pass_walls),
        "job_p50_s": statistics.median(latencies),
        # report a percentile only with ten samples beyond it: a run of
        # fewer than 100 jobs reports its median as job_p90_s
        "job_p90_s": (statistics.quantiles(latencies, n=10)[8]
                      if len(latencies) >= 100
                      else statistics.median(latencies)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas": _blas_name(numpy)},
    }
    if recorder is not None:
        from spans import layer_metrics
        result["layers"] = layer_metrics(recorder.spans, result["wall_s"],
                                         len(pass_walls))
        recorder.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
