"""Check that two source trees write the same CLI outputs, byte for byte.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC [SEEDS]

Each tree runs, in one process with ``OPENBLAS_NUM_THREADS=1``, the configs
in ``FIXED`` and every job of the henon-shoot, henon-continue and solver-mix
workloads of ``perfbench/workloads.py`` for each seed (comma list, default
1).  Every output but ``manifest.json``, the manifest's ``outputs`` list,
the exit codes, and the ``error`` and ``hypothesis`` of an ``error.json``
must be equal; exits 1 otherwise.

For each run that differs it prints, per output file, the largest relative
difference among the file's numeric tokens, and flags every changed token
that is not a float: a changed exit code, word (a status, a verdict) or
integer (a count), a file only one tree wrote, or a changed manifest
``outputs`` list (the files, in write order, that a rerun is compared on).
A file whose count of numbers changed is flagged with both line counts and
the largest relative difference of its last lines (per key on the keys both
hold, for JSON rows), which for a trace is its endpoint.  In a JSON or
JSONL file, every string, integer and boolean that changed at a key path
both trees wrote is flagged too, and so is, by name, every key that only one
tree wrote in an object both hold (a trace row only one tree wrote is left
to the count).  A float printed without a fraction (``2``) counts as an
integer only if its new value prints so too.
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
# affine_power and Henon-weight ones, a Henon continuation with delta != 0,
# whose weight kink is not a mesh node, and one run to alpha = 1.9, the only
# config in reach where Newton fails near the fold and steps are halved, so
# a change to Newton's guard or stop shows in its halted traces; last, a
# sublinear solution of sup norm 5.5e-7 and a superlinear one of 9.3e19,
# where an absolute stop ends early or never, so a change to any stop shows;
# then two whose Petviashvili seed already solves to rounding level, so that
# no damping of Newton's first correction lowers the residual; last, Henon
# crossings of Morse index 1, 2, 1 at p = 7, where the Prufer angle that
# counts the index turns fast per step, so a change to the count shows; and
# an affine_power sublinear solve, whose certified delta lies above the
# continuous threshold f(s) >= lambda1 s; then two Henon scans the polish
# finds hard or lone: p = 15 at zeta = 1.5, steep and off the symmetric
# interval, whose brackets take more than one record round, and p = 3 at
# zeta = 0.5, which has a single crossing; last, l = 8 and p = 20, where a
# DOP853 step turns the Prufer angle by up to 0.991 pi, the steepest turn
# per step measured; last, the two readings of a data hypothesis that a
# sample grid misses: a ratio f(s)/s that meets lambda1 only below s = 1e-8,
# and a polynomial weight negative only between grid points; last, a
# superlinear solve on m = 384 = 6 * 64 nodes, whose Jacobian split has
# whole diagonal blocks and no partial last one
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
    "henon-continue --scan-points 200 --target-alpha 1.9",
    "solve-sub --alpha 1.1 --weight constant:1 --nonlin power:1:0.9 --n 200",
    "solve-super --alpha 2 --weight constant:1 --nonlin power:1:1.05 --n 200",
    "solve-super --alpha 1.02886 --weight polynomial:1.41225,-0.394983,-0.241287 "
    "--nonlin power:15.518:5.95411 --n 400",
    "solve-super --alpha 1.06534 --weight power_offset:1.18235:0.41194 "
    "--nonlin power:5.88681:6.74428 --n 200",
    "henon-shoot --l 4 --p 7 --zeta 1 --scan-points 200",
    "solve-sub --alpha 1.5 --weight constant:1 --nonlin affine_power:2:0.9 --n 200",
    "henon-shoot --l 8 --p 15 --zeta 1.5 --scan-points 200",
    "henon-shoot --l 8 --p 3 --zeta 0.5 --scan-points 200",
    "henon-shoot --l 8 --p 20 --scan-points 200",
    "nonexist --alpha 2 --weight constant:1 --nonlin power:12:1.01 --n 100 "
    "--trials 2",
    "eig --alpha 1.5 --weight polynomial:0.2501200013439999,-1.00024,1 "
    "--n 200",
    "solve-super --alpha 1.8 --weight constant:1 --nonlin power:1:2 --n 383",
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
    """Each output's text by name; ``manifest.json`` stands for its
    ``outputs`` list and ``error.json`` for its error kind and hypothesis."""
    files = {p.name: p.read_text() for p in rundir.iterdir()
             if p.name not in ("manifest.json", "error.json")}
    if (rundir / "manifest.json").exists():
        manifest = json.loads((rundir / "manifest.json").read_text())
        files["manifest.json"] = json.dumps(manifest["outputs"])
    if (rundir / "error.json").exists():
        error = json.loads((rundir / "error.json").read_text())
        files["error.json"] = json.dumps([error.get("error"),
                                          error.get("hypothesis")])
    return files


def last_line_drift(old, new):
    """Largest relative difference of the two texts' last lines, per key for
    JSON objects (on the keys both hold), else over all their numbers."""
    a, b = (text.rstrip("\n").rsplit("\n", 1)[-1] for text in (old, new))
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        x = y = None
    if isinstance(x, dict) and isinstance(y, dict):
        return ", ".join(
            f"{k} {compare(json.dumps(x[k]), json.dumps(y[k]))[0]:.3g}"
            for k in sorted(x.keys() & y.keys()))
    if len(NUMBER.split(a)) != len(NUMBER.split(b)):
        return "with different number counts"
    return f"{compare(a, b)[0]:.3g}"


def leaves(value, path=""):
    """(key path, value) of every string, integer and boolean in ``value``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, f"{path}[{k}]")
    elif isinstance(value, (str, int)):
        yield path, value


def one_sided_keys(x, y, path=""):
    """The key paths only one of ``x`` and ``y`` holds, in the objects at
    key paths both hold, each with the tree that holds it."""
    if isinstance(x, dict) and isinstance(y, dict):
        for key in [*x, *(key for key in y if key not in x)]:
            sub = f"{path}.{key}" if path else key
            if key not in x or key not in y:
                yield f"{sub}: only in {'parent' if key in x else 'change'}"
            else:
                yield from one_sided_keys(x[key], y[key], sub)
    elif isinstance(x, list) and isinstance(y, list):
        for k, (a, b) in enumerate(zip(x, y)):
            yield from one_sided_keys(a, b, f"{path}[{k}]")


def json_changes(old, new):
    """(the keys that only one JSON text holds, the strings, integers and
    booleans that changed at a key path both hold); a JSONL text is the
    list of its rows."""
    def parse(text):
        try:
            return json.loads(text)
        except ValueError:
            return [json.loads(line) for line in text.splitlines()]
    try:
        x, y = parse(old), parse(new)
    except ValueError:
        return [], []
    a, b = dict(leaves(x)), dict(leaves(y))
    return list(one_sided_keys(x, y)), [
        f"{path}: {a[path]!r} -> {b[path]!r}"
        for path in a if path in b and a[path] != b[path]]


def compare(old, new):
    """(largest relative difference of the float tokens, changed others).

    Texts with different number counts (a trace with fewer rows, a row with
    more keys) compare only their last lines, a trace's endpoint, and, for
    JSON, the words and integers at the key paths both hold.  JSON texts
    whose keys differ name those keys instead of their shifted tokens.
    """
    a, b = NUMBER.split(old), NUMBER.split(new)
    keys, words = json_changes(old, new)
    if len(a) != len(b):
        return 0.0, [f"{len(a) // 2} numbers -> {len(b) // 2}, "
                     f"{old.count(chr(10))} lines -> {new.count(chr(10))}, "
                     f"last lines differ by {last_line_drift(old, new)}",
                     *keys, *words]
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
    return worst, [*keys, *words] if keys else flagged


def report(code0, files0, code1, files1):
    """Lines describing how the change's run differs from the parent's."""
    lines = [f"  FLAG exit code {code0} -> {code1}"] if code0 != code1 else []
    for name in sorted(files0.keys() | files1.keys()):
        if name not in files0 or name not in files1:
            tree = "change" if name in files1 else "parent"
            lines.append(f"  FLAG {name}: written by the {tree} only")
        elif name == "manifest.json" and files0[name] != files1[name]:
            lines.append(f"  FLAG manifest.json outputs: {files0[name]} -> "
                         f"{files1[name]}")
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
