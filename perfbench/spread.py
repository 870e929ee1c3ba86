"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solver-mix --seeds 1-10 --trace 0

Runs ``run.py`` once per seed, one run at a time, with the run length from
``BENCHMARK.json``, and prints for every metric its median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread
as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values, failed = {}, 0
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += line["failed"]
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = [k for k in values if not args.trace or k == "trace.wall_s"]
        print(f"seed {seed}: correct {line['correct']} "
              f"attempted {line['attempted']} failed {line['failed']} "
              + " ".join(f"{k}={values[k][-1]:.6g}" for k in shown),
              flush=True)

    print(f"{args.workload}: {len(_seeds(args.seeds))} seeds, "
          f"{failed} failed jobs")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<48} median {med:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
