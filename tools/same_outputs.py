"""Check that two source trees write the same CLI outputs, byte for byte.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC [SEEDS]

Each tree runs, in one process with ``OPENBLAS_NUM_THREADS=1``, the configs
in ``FIXED`` and every job of the henon-shoot, henon-continue and solver-mix
workloads of ``perfbench/workloads.py`` for each seed (comma list, default
1).  Outputs other than ``manifest.json``, exit codes, and the ``error`` and
``hypothesis`` of an ``error.json`` must be equal; exits 1 otherwise.

For each run that differs it prints, per output file, the largest relative
difference among the file's numeric tokens, and flags every changed token
that is not a float: a changed exit code, word (a status, a verdict) or
integer (a count), or a file only one tree wrote.  A float printed without
a fraction (``2``) counts as an integer only if its new value prints so too.
"""

import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RUNNER = ("import json, sys\nfrom fracbvp.cli import main\njobs = json.load(open("
          "sys.argv[1]))\njson.dump([main(a + ['--out', o]) for a, o in jobs], "
          "open(sys.argv[2], 'w'))")
# the criterion-12 configs, then polynomial, saturating, tabulated,
# affine_power and Henon-weight ones, and a Henon continuation with
# delta != 0, whose weight kink is not a mesh node
FIXED = [
    "eig --alpha 1.5 --weight constant:1 --n 300",
    "bounds --alpha 1.25 --weight power_offset:4:0.5",
    "sweep --alphas 1.8:2.0:0.1 --weight constant:1 --n 150",
    "solve-sub --alpha 2 --weight constant:1 --nonlin power:1:0.5 --n 200",
    "nonexist --alpha 2 --weight constant:1 --nonlin power:1:1 --n 150 --trials 3",
    "henon-shoot --l 4 --p 2 --zeta 1 --beta-min 50 --beta-max 300 --scan-points 60",
    "solve-super --alpha 1.7 --weight polynomial:1,0.3,-0.2 --nonlin power:1:2 --n 300",
    "solve-sub --alpha 1.6 --weight constant:1 --nonlin saturating:30 --n 200",
    "eig --alpha 1.8 --weight tabulated:{table} --n 200",
    "solve-super --alpha 1.6 --weight constant:1 --nonlin affine_power:2:2 --n 200",
    "solve-super --alpha 2 --weight power_offset:4:0.5 --nonlin power:1:2 --n 400",
    "henon-continue --l 2 --p 3 --zeta 1.1 --scan-points 200 --target-alpha 1.97 "
    "--n 200",
]


# re.split with this one group puts the numbers at the odd positions
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf))")
INTEGER = re.compile(r"[-+]?\d+")


def argv_list(parent_src, seeds, table):
    sys.path.insert(0, str(Path(parent_src).resolve()))    # solver_mix imports it
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [line.format(table=table).split() for line in FIXED] + [
        job.argv for seed in seeds for make in (
            workloads.henon_shoot, workloads.henon_continue, workloads.solver_mix)
        for job in make(seed)]


def run_tree(src, argvs, workdir):
    workdir.mkdir()
    jobs = [(argv, str(workdir / f"run{k:03d}")) for k, argv in enumerate(argvs)]
    (workdir / "jobs.json").write_text(json.dumps(jobs))
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()),
           "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", RUNNER, str(workdir / "jobs.json"),
                    str(workdir / "codes.json")], env=env, check=True)
    codes = json.loads((workdir / "codes.json").read_text())
    return [(code, Path(out)) for code, (_, out) in zip(codes, jobs)]


def outputs(rundir):
    files = {p.name: p.read_text() for p in rundir.iterdir()
             if p.name not in ("manifest.json", "error.json")}
    if (rundir / "error.json").exists():
        error = json.loads((rundir / "error.json").read_text())
        files["error.json"] = json.dumps([error.get("error"),
                                          error.get("hypothesis")])
    return files


def compare(old, new):
    """(largest relative difference of the float tokens, changed others)."""
    a, b = NUMBER.split(old), NUMBER.split(new)
    if len(a) != len(b):
        return 0.0, [f"{len(a) // 2} numbers -> {len(b) // 2}"]
    worst, flagged = 0.0, []
    for k, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        rel = math.nan
        if k % 2 and not (INTEGER.fullmatch(x) and INTEGER.fullmatch(y)):
            fx, fy = float(x), float(y)
            rel = abs(fx - fy) / max(abs(fx), abs(fy))
        if math.isfinite(rel):
            worst = max(worst, rel)
        else:
            flagged.append(f"{x.strip()!r} -> {y.strip()!r}")
    return worst, flagged


def report(code0, files0, code1, files1):
    """Lines describing how the change's run differs from the parent's."""
    lines = [f"  FLAG exit code {code0} -> {code1}"] if code0 != code1 else []
    for name in sorted(files0.keys() | files1.keys()):
        if name not in files0 or name not in files1:
            tree = "change" if name in files1 else "parent"
            lines.append(f"  FLAG {name}: written by the {tree} only")
        elif files0[name] != files1[name]:
            worst, flagged = compare(files0[name], files1[name])
            lines.append(f"  {name}: largest relative difference {worst:.3g}")
            lines += [f"  FLAG {name}: {change}" for change in flagged]
    return lines


def main(parent_src, change_src, seeds="1"):
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "weight.csv"
        table.write_text("t,value\n" + "".join(
            f"{k / 16!r},{1.0 + k / 16 * (1.0 - k / 16)!r}\n" for k in range(17)))
        argvs = argv_list(parent_src, [int(s) for s in seeds.split(",")], table)
        runs = zip(argvs, run_tree(parent_src, argvs, Path(tmp) / "parent"),
                   run_tree(change_src, argvs, Path(tmp) / "change"))
        differ = flagged = 0
        for argv, (c0, d0), (c1, d1) in runs:
            lines = report(c0, outputs(d0), c1, outputs(d1))
            if lines:
                differ += 1
                flagged += any("FLAG" in line for line in lines)
                print("differs: " + " ".join(argv), *lines, sep="\n")
    print(f"{len(argvs) - differ} of {len(argvs)} runs identical, "
          f"{flagged} with a flagged change")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
