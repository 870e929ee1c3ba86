"""Workload generators and output checks for the fracbvp benchmark.

A workload builds one *pass*: a list of jobs run one after another.  A job
is one ``fracbvp`` CLI invocation (an argv list without ``--out``) paired
with the check its output must pass.  Inputs come only from the seed: the
same seed gives the same argv lists.

Checks read the files the CLI wrote and return ``None`` when the output is
correct, or a one-line reason when it is not.
"""

import csv
import json
import math
import random
from dataclasses import dataclass


@dataclass
class Job:
    argv: list
    check: object            # callable(outdir) -> None | reason
    label: str


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _fmt(x):
    return f"{x:.6g}"


def _beta_range(rng):
    """Scan ends shifted within +-0.05 decades of [1e-3, 1e3]."""
    return (1e-3 * 10.0 ** rng.uniform(-0.05, 0.05),
            1e3 * 10.0 ** rng.uniform(-0.05, 0.05))


# --------------------------------------------------------------- henon-shoot

ZETA = 1.0


def check_crossings(outdir):
    """Criterion-9 structure: three crossings of z = zeta, Morse 1, 2, 1
    in beta order, and the even (middle) solution has w(z) > 0, z' > 0."""
    rows = _read_csv(outdir / "crossings.csv")
    if len(rows) != 3:
        return f"expected 3 crossings, got {len(rows)}"
    rows.sort(key=lambda r: float(r["beta"]))
    for r in rows:
        if not abs(float(r["z"]) - ZETA) <= 1e-9:
            return f"crossing at beta={r['beta']} has z={r['z']}"
    morse = [int(r["morse_index"]) for r in rows]
    if morse != [1, 2, 1]:
        return f"Morse indices {morse}, expected [1, 2, 1]"
    even = rows[1]
    if even["w_end_sign"] != "positive":
        return f"even solution has w(z) {even['w_end_sign']}"
    if not float(even["z_prime"]) > 0.0:
        return f"even solution has z' = {even['z_prime']}"
    return None


def henon_shoot(seed):
    rng = random.Random(seed)
    lo, hi = _beta_range(rng)
    argv = ["henon-shoot", "--beta-min", _fmt(lo), "--beta-max", _fmt(hi)]
    return [Job(argv, check_crossings, "henon-shoot")]


# ------------------------------------------------------------ henon-continue

TARGET_ALPHA = 1.95


def check_continuation(outdir):
    """Criterion-10 checks on the three alpha traces from 2 to 1.95."""
    reason = check_crossings(outdir)
    if reason:
        return reason
    summary = _read_json(outdir / "summary.json")
    traces = summary["traces"]
    if len(traces) != 3:
        return f"expected 3 traces, got {len(traces)}"
    for k, t in enumerate(traces):
        if t["status"] != "completed" or t["end_alpha"] != TARGET_ALPHA:
            return f"trace {k} {t['status']} at alpha {t['end_alpha']}"
        if not t["end_residual"] <= 1e-8:
            return f"trace {k} residual {t['end_residual']}"
        if not t["end_margin"] > 0.0:
            return f"trace {k} margin {t['end_margin']}"
        rows = _read_csv(outdir / f"endpoint_{k}.csv")
        values = [float(r["value"]) for r in rows]
        if not all(v > 0.0 for v in values[1:-1]):
            return f"trace {k} endpoint is not positive inside (0, 1)"
    dist = summary["pairwise_sup_distances"]
    sep = min(dist[i][j] for i in range(3) for j in range(i + 1, 3))
    if not sep >= 0.01:
        return f"endpoint separation {sep}"
    return None


def henon_continue(seed):
    rng = random.Random(seed)
    lo, hi = _beta_range(rng)
    argv = ["henon-continue", "--scan-points", "200",
            "--beta-min", _fmt(lo), "--beta-max", _fmt(hi)]
    return [Job(argv, check_continuation, "henon-continue")]


# ---------------------------------------------------------------- solver-mix

PI2 = math.pi ** 2

# (command, n) -> job count; the seed draws parameters and order only, so
# every seed does the same kinds of work at the same sizes.  The counts are
# this benchmark's own choice, not measured traffic: about 110 jobs, most at
# n = 400, one n = 1600 job per solver class, and a pass of about 30 s in
# which the three borderline probes take about a third
MIX = {
    "bounds": {400: 12},
    "eig": {200: 4, 400: 30, 800: 4, 1600: 1},
    "eig-classical": {800: 2, 1600: 1},
    "sweep": {200: 2, 400: 6},
    "solve-sub": {200: 4, 400: 8, 800: 4, 1600: 1},
    "solve-super": {200: 4, 400: 8, 800: 8, 1600: 1},
    "nonexist-super": {200: 1, 400: 1, 800: 1},
    "nonexist-sub": {200: 1, 400: 1, 800: 1},
    # each trial runs the probe's full Picard budget (100000 steps) after
    # the regime is known; at n = 200 that is about 2.5 s per trial
    "nonexist-borderline": {200: 3},
}


def _weight(rng, l_max=3.0):
    kind = rng.choice(("constant", "power_offset", "polynomial"))
    if kind == "constant":
        return f"constant:{_fmt(rng.uniform(0.5, 2.0))}"
    if kind == "power_offset":
        return (f"power_offset:{_fmt(rng.uniform(0.5, l_max))}:"
                f"{_fmt(rng.uniform(0.25, 0.75))}")
    # c0 >= 1 and |c1| + |c2| <= 0.9 keep the weight positive on [0, 1]
    coeffs = (rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5),
              rng.uniform(-0.4, 0.4))
    return "polynomial:" + ",".join(_fmt(c) for c in coeffs)


def _alpha(rng):
    return float(_fmt(rng.uniform(1.1, 2.0)))


def _check_eig(out, classical):
    row = _read_csv(out / "eig.csv")[0]
    lam, res = float(row["lambda1"]), float(row["residual"])
    # power iteration stops on a 1e-10 relative change of the eigenvalue
    # estimate; the residual it implies depends on the spectral gap
    if not (lam > 0.0 and res <= 1e-6):
        return f"lambda1 {lam} residual {res}"
    if classical and not abs(lam - PI2) / PI2 <= 1e-5:
        return f"classical lambda1 {lam} is not pi^2 to 1e-5"
    return None


def _check_bounds(out):
    row = _read_csv(out / "bounds.csv")[0]
    lo, hi = float(row["lower"]), float(row["upper"])
    return None if 0.0 < lo < hi else f"bounds {lo}, {hi}"


def _check_sweep(out, count):
    rows = _read_csv(out / "sweep.csv")
    if len(rows) != count:
        return f"{len(rows)} sweep rows, expected {count}"
    for r in rows:
        lam = float(r["lambda1"])
        if not float(r["lower_bound"]) <= lam <= float(r["upper_bound"]):
            return f"lambda1 {lam} outside its bounds at alpha {r['alpha']}"
    return None


def _check_sub(out):
    rep = _read_json(out / "solve_report.json")
    if rep["from_side"] != "both_agree":
        return f"monotone iteration ended {rep['from_side']}"
    if not (rep["residual"] <= 1e-8 and rep["sup_norm"] > 0.0):
        return f"residual {rep['residual']} sup {rep['sup_norm']}"
    return None


def _check_super(out):
    rep = _read_json(out / "newton_report.json")
    if not (rep["converged"] and rep["positive"]):
        return "Newton did not reach a positive solution"
    if rep["degenerate"] or not rep["nondegeneracy_margin"] > 0.0:
        return f"degenerate solution, margin {rep['nondegeneracy_margin']}"
    return None


VERDICTS = {
    "super": "no positive solution detected: all iterates unbounded",
    "sub": "no positive solution detected: all iterates vanish",
    "borderline": "borderline:",
}


def _check_nonexist(out, regime):
    probe = _read_json(out / "probe.json")
    if probe["regime"] != regime:
        return f"regime {probe['regime']}, expected {regime}"
    if not probe["verdict"].startswith(VERDICTS[regime]):
        return f"verdict {probe['verdict']!r} for regime {regime}"
    return None


def _mix_job(kind, n, k, rng, bounds):
    size = ["--n", str(n)]
    if kind == "eig-classical":
        return Job(["eig", "--alpha", "2", "--weight", "constant:1"] + size,
                   lambda out: _check_eig(out, True), kind)
    alpha, weight = _alpha(rng), _weight(rng)
    if kind == "solve-super":
        # the seed sweep finds no positive solution (exit 3) for some
        # alpha < 1.25, p > 2.2 or power_offset l > 2.3, so these jobs stay
        # inside that region
        alpha, weight = float(_fmt(rng.uniform(1.3, 2.0))), _weight(rng, 2.0)
    problem = ["--alpha", _fmt(alpha), "--weight", weight] + size
    if kind == "eig":
        return Job(["eig"] + problem, lambda out: _check_eig(out, False),
                   kind)
    if kind == "bounds":
        return Job(["bounds"] + problem, _check_bounds, kind)
    if kind == "sweep":
        step = rng.choice((0.05, 0.1))
        start = float(_fmt(rng.uniform(1.1, 2.0 - 2 * step)))
        sched = f"{_fmt(start)}:{_fmt(start + 2 * step)}:{_fmt(step)}"
        return Job(["sweep", "--alphas", sched, "--weight", weight] + size,
                   lambda out: _check_sweep(out, 3), kind)
    if kind == "solve-sub":
        nonlin = f"power:{_fmt(rng.uniform(0.5, 3.0))}:{_fmt(rng.uniform(0.3, 0.7))}"
        return Job(["solve-sub"] + problem + ["--nonlin", nonlin],
                   _check_sub, kind)
    if kind == "solve-super":
        nonlin = f"power:{_fmt(rng.uniform(0.5, 2.0))}:{_fmt(rng.uniform(1.5, 2.2))}"
        return Job(["solve-super"] + problem + ["--nonlin", nonlin],
                   _check_super, kind)
    regime = kind.split("-", 1)[1]
    if regime == "super":
        # f(s)/s = lam (1 + s^(q-1)) > lam > lambda1 for every s
        lower, upper = bounds(alpha, weight)
        nonlin = f"affine_power:{_fmt(1.1 * upper)}:{_fmt(rng.uniform(0.3, 0.7))}"
    elif regime == "sub":
        # f(s)/s = c < lambda1 for every s
        lower, upper = bounds(alpha, weight)
        nonlin = f"power:{_fmt(0.5 * lower)}:1"
    else:
        # f(s)/s sweeps through every level, lambda1 included
        nonlin = f"power:{_fmt(rng.uniform(0.5, 3.0))}:{_fmt(rng.uniform(0.3, 0.7))}"
    trials = str(1 + k % 2)
    return Job(["nonexist"] + problem + ["--nonlin", nonlin,
                                         "--trials", trials],
               lambda out: _check_nonexist(out, regime), kind)


def solver_mix(seed):
    from fracbvp.cli import parse_weight
    from fracbvp.eigen import lambda1_bounds

    def bounds(alpha, weight):
        b = lambda1_bounds(alpha, parse_weight(weight))
        return b.lower, b.upper

    rng = random.Random(seed)
    jobs = [_mix_job(kind, n, k, rng, bounds)
            for kind, sizes in MIX.items()
            for n, count in sizes.items() for k in range(count)]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "henon-shoot": henon_shoot,
    "henon-continue": henon_continue,
    "solver-mix": solver_mix,
}
