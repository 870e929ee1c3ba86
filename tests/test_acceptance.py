"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Shared expensive artifacts (the Henon crossing scan, the
sublinear solves, the continuation traces) are built once in fixtures and
their wall-clock cost is charged to the criterion that requires them.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import FIXTURE_COST
from fracbvp.cli import main as cli_main
from fracbvp.eigen import lambda1_bounds, principal_eigenpair, sweep_alpha
from fracbvp.grid import norms, production_mesh
from fracbvp.kernel import gamma, green_eval, green_integral
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble
from fracbvp.shooting import ivp_integrate, first_zero, rescale_to_unit
from fracbvp.sublinear import find_bracket, monotone_solve, nonexistence_probe
from fracbvp.superlinear import continue_alpha, newton_solve

from oracles import fd_newton_bvp

UNIT = WeightFamily.constant(1.0)
HENON_WEIGHT = WeightFamily.power_offset(4.0, 0.5)


def _report(num, description, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} [{status}] {description} "
          f"({elapsed:.2f}s / limit {limit:.0f}s){extra}")
    assert ok, f"criterion {num}: {description}{extra}"
    assert elapsed < limit, f"criterion {num} exceeded runtime budget"


def test_criterion_01_green_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.1, 1.5, 2.0):
        mesh = production_mesh(alpha, 400)
        A = assemble(mesh, alpha, UNIT)
        row_sums = A.matrix.sum(axis=1)
        exact = green_integral(A.mesh.nodes, alpha)
        worst = max(worst, float(np.max(np.abs(row_sums - exact))))
    elapsed = time.perf_counter() - t0
    _report(1, "kernel integral identity via row sums", worst <= 1e-10,
            elapsed, 1.0, f"max abs err {worst:.2e}")


def test_criterion_02_classical_eigenpair():
    t0 = time.perf_counter()
    mesh = production_mesh(2.0, 800)
    eig = principal_eigenpair(assemble(mesh, 2.0, UNIT))
    lam_err = abs(eig.lambda1 - math.pi ** 2) / math.pi ** 2
    phi_err = float(np.max(np.abs(eig.phi1.values - np.sin(math.pi * mesh.nodes))))
    elapsed = time.perf_counter() - t0
    _report(2, "classical eigenpair at n=800",
            lam_err <= 1e-5 and phi_err <= 1e-4,
            elapsed, 5.0, f"lam rel {lam_err:.2e}, phi sup {phi_err:.2e}")


def test_criterion_03_bound_containment():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for h, label in ((UNIT, "const"), (HENON_WEIGHT, "henon")):
        for alpha in (1.1, 1.25, 1.5, 1.75, 2.0):
            mesh = production_mesh(alpha, 800, weight=h)
            eig = principal_eigenpair(assemble(mesh, alpha, h))
            b = lambda1_bounds(alpha, h)
            contained = (b.lower + 1e-6 <= eig.lambda1 <= b.upper - 1e-6)
            ok = ok and contained
            if not contained:
                detail.append(f"{label}@{alpha}: {b.lower} !<= "
                              f"{eig.lambda1} !<= {b.upper}")
    elapsed = time.perf_counter() - t0
    _report(3, "two-sided eigenvalue bounds contain lambda1", ok,
            elapsed, 30.0, "; ".join(detail))


def test_criterion_04_continuity_sweep():
    t0 = time.perf_counter()
    alphas_fine = [float(a) for a in np.linspace(1.5, 2.0, 51)]
    alphas_coarse = [float(a) for a in np.linspace(1.5, 2.0, 26)]
    fine = sweep_alpha(alphas_fine, UNIT, n=400)
    coarse = sweep_alpha(alphas_coarse, UNIT, n=400)
    jump_fine = float(np.max(np.abs(np.diff([r.lambda1 for r in fine]))))
    jump_coarse = float(np.max(np.abs(np.diff([r.lambda1 for r in coarse]))))
    ok = jump_fine <= 5.0 * (jump_coarse / 2.0)
    elapsed = time.perf_counter() - t0
    _report(4, "lambda1 modulus of continuity shrinks with alpha spacing", ok,
            elapsed, 120.0,
            f"jump@0.01 {jump_fine:.3e} vs 5*(jump@0.02 / 2) "
            f"{2.5 * jump_coarse:.3e}")


def test_criterion_05_kernel_property_suite():
    t0 = time.perf_counter()
    t = np.linspace(0.0, 1.0, 101)[:, None]
    s = np.linspace(0.0, 1.0, 101)[None, :]
    slack = 1e-12
    ok = True
    for alpha in (1.1, 1.25, 1.5, 1.75, 2.0):
        g = green_eval(t, s, alpha)
        ga = gamma(alpha)
        # (i) nonnegative
        ok = ok and bool(np.min(g) >= -slack)
        # (ii) hump bound
        ok = ok and bool(np.all(g <= (s * (1 - s)) ** (alpha - 1) / ga + slack))
        # (iii) two-sided bound (upper side away from s=1 where it is +inf)
        low3 = (alpha - 1) / ga * t ** (alpha - 1) * (1 - t) * s * (1 - s) ** (alpha - 1)
        ok = ok and bool(np.all(g >= low3 - slack))
        up3 = t ** (alpha - 1) * (1 - t) * (1 - s[:, :-1]) ** (alpha - 2) / ga
        ok = ok and bool(np.all(g[:, :-1] <= up3 + slack))
        # (iv) weighted two-sided bound
        weighted = t ** (2 - alpha) * g
        low4 = (alpha - 1) / ga * t * (1 - t) * s * (1 - s) ** (alpha - 1)
        up4 = s * (1 - s) ** (alpha - 1) / ga
        ok = ok and bool(np.all(weighted >= low4 - slack))
        ok = ok and bool(np.all(weighted <= up4 + slack))
    elapsed = time.perf_counter() - t0
    _report(5, "kernel inequality families on the sample grid", ok,
            elapsed, 5.0)


@pytest.fixture(scope="module")
def sublinear_solutions():
    f = NonlinearityFamily.power(1.0, 0.5)
    t0 = time.perf_counter()
    out = {}
    for alpha in (1.5, 2.0):
        mesh = production_mesh(alpha, 400)
        A = assemble(mesh, alpha, UNIT)
        eig = principal_eigenpair(A)
        bracket = find_bracket(eig, f, A)
        report = monotone_solve(bracket, f, A, tol=1e-9)
        out[alpha] = (mesh, report)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_06_sublinear_uniqueness_witness(sublinear_solutions):
    t0 = time.perf_counter()
    ok = True
    detail = []
    for alpha in (1.5, 2.0):
        _, report = sublinear_solutions[alpha]
        ok = ok and report.from_side == "both_agree" and report.residual <= 1e-8
        detail.append(f"a={alpha}: res {report.residual:.1e} {report.from_side}")
    x, u_fd = fd_newton_bvp(
        lambda u: np.sqrt(np.maximum(u, 0.0)),
        lambda u: 0.5 / np.sqrt(np.maximum(u, 1e-30)), n=4000)
    fd_gap = float(np.max(np.abs(sublinear_solutions[2.0][1].solution.interp(x) - u_fd)))
    ok = ok and fd_gap <= 1e-5
    detail.append(f"fd gap {fd_gap:.1e}")
    elapsed = time.perf_counter() - t0 + sublinear_solutions["elapsed"]
    _report(6, "sublinear solve with two-sided agreement and FD oracle", ok,
            elapsed, 60.0, "; ".join(detail))


@pytest.fixture(scope="module")
def multiplicity_traces(henon_params, henon_crossings):
    f = NonlinearityFamily.power(1.0, 2.0)
    t0 = time.perf_counter()
    mesh = production_mesh(1.95, 400, weight=HENON_WEIGHT)
    A2 = assemble(mesh, 2.0, HENON_WEIGHT)
    traces = []
    units = []
    for record in henon_crossings[:3]:
        unit = rescale_to_unit(record, 1.0, henon_params, mesh)
        start = newton_solve(A2, f, unit.profile, tol=1e-10)
        trace = continue_alpha(start, A2, 1.95, f,
                               initial_step=0.005, tol=1e-10)
        units.append(unit)
        traces.append(trace)
    return {"traces": traces, "units": units, "mesh": mesh,
            "elapsed": time.perf_counter() - t0}


def test_criterion_07_solution_envelopes(sublinear_solutions,
                                         multiplicity_traces):
    t0 = time.perf_counter()
    worst = -np.inf
    checks = []
    for alpha in (1.5, 2.0):
        mesh, report = sublinear_solutions[alpha]
        checks.append((alpha, mesh, report.solution))
    for unit in multiplicity_traces["units"]:
        checks.append((2.0, unit.profile.mesh, unit.profile))
    for trace in multiplicity_traces["traces"]:
        end = trace.steps[-1]
        checks.append((end.alpha, end.solution.mesh, end.solution))
    ok = True
    for alpha, mesh, u in checks:
        t = mesh.nodes
        c2 = norms(u, alpha).c2ma
        slack = t ** (2.0 - alpha) * u.values - (alpha - 1.0) * t * (1.0 - t) * c2
        violation = float(np.min(slack))
        worst = max(worst, -violation)
        ok = ok and violation >= -1e-6
    elapsed = time.perf_counter() - t0
    _report(7, "weighted lower envelope for every converged solution", ok,
            elapsed, 30.0, f"worst violation {worst:.2e}")


def test_criterion_08_nonexistence_probes():
    t0 = time.perf_counter()
    mesh = production_mesh(2.0, 400)
    A = assemble(mesh, 2.0, UNIT)
    eig = principal_eigenpair(A)
    f_super = NonlinearityFamily.affine_power(eig.lambda1, 0.5)
    super_report = nonexistence_probe(f_super, A, eig, trials=10)
    f_sub = NonlinearityFamily.power(0.5 * eig.lambda1, 1.0)
    sub_report = nonexistence_probe(f_sub, A, eig, trials=10)
    ok = (super_report.regime == "super"
          and all(o.outcome == "diverged" for o in super_report.trials)
          and all(o.final_norm > 1e6 for o in super_report.trials)
          and sub_report.regime == "sub"
          and all(o.outcome == "decayed" for o in sub_report.trials)
          and all(o.final_norm < 1e-10 for o in sub_report.trials))
    elapsed = time.perf_counter() - t0
    _report(8, "nonexistence probes diverge/decay as classified", ok,
            elapsed, 60.0,
            f"super {sum(o.outcome == 'diverged' for o in super_report.trials)}"
            f"/10, sub {sum(o.outcome == 'decayed' for o in sub_report.trials)}/10")


def test_criterion_09_henon_shooting(henon_params, henon_crossings):
    t0 = time.perf_counter()
    ok = len(henon_crossings) >= 3
    detail = [f"{len(henon_crossings)} crossings"]
    slopes = []
    for r in henon_crossings:
        traj = ivp_integrate(r.beta, henon_params, x_max=0.0)
        slopes.append(abs(float(traj.du(0.0))))
        ok = ok and abs(r.z - 1.0) <= 1e-9
    even = henon_crossings[int(np.argmin(slopes))]
    ok = ok and even.morse_index == 2
    ok = ok and even.w_end_sign == "positive"
    ok = ok and even.z_prime > 0.0
    detail.append(f"even: morse {even.morse_index}, w {even.w_end_sign}, "
                  f"z' {even.z_prime:.2e}")
    h = 1e-5
    fd = (first_zero(even.beta + h, henon_params)
          - first_zero(even.beta - h, henon_params)) / (2.0 * h)
    fd_rel = abs(fd - even.z_prime) / abs(fd)
    ok = ok and fd_rel <= 1e-4
    detail.append(f"z' fd rel {fd_rel:.1e}")
    elapsed = time.perf_counter() - t0 + FIXTURE_COST["henon_crossings"]
    _report(9, "three transversal crossings with even solution of index 2",
            ok, elapsed, 120.0, "; ".join(detail))


def test_criterion_10_multiplicity_end_to_end(multiplicity_traces):
    t0 = time.perf_counter()
    traces = multiplicity_traces["traces"]
    ok = len(traces) == 3
    detail = []
    for trace in traces:
        end = trace.steps[-1]
        ok = (ok and trace.status == "completed"
              and end.alpha == 1.95
              and end.residual <= 1e-8
              and end.margin > 0.0
              and np.all(end.solution.values[1:-1] > 0.0))
        alphas = [s.alpha for s in trace.steps]
        ok = ok and alphas == sorted(alphas, reverse=True)
        detail.append(f"res {end.residual:.1e} margin {end.margin:.2e}")
    ends = [t.steps[-1].solution.values for t in traces]
    min_sep = min(float(np.max(np.abs(ends[i] - ends[j])))
                  for i in range(3) for j in range(i + 1, 3))
    ok = ok and min_sep >= 0.01
    detail.append(f"min sep {min_sep:.3g}")
    elapsed = time.perf_counter() - t0 + multiplicity_traces["elapsed"]
    _report(10, "three Henon solutions persist from order 2 to 1.95", ok,
            elapsed, 600.0, "; ".join(detail))


def test_determinant_sign_matches_morse_parity(henon_crossings,
                                               multiplicity_traces):
    # the Sherman-Morrison denominator of J = T - u w^T is det J / det T and
    # T's diagonal is positive, so at the three order-2 starts its sign must
    # be (-1)^(Morse index) of the shooting record: two layers, no shared code
    from fracbvp.superlinear import (_SplitJacobian, _fprime,
                                     _separable_factors)
    f = NonlinearityFamily.power(1.0, 2.0)
    A2 = assemble(multiplicity_traces["mesh"], 2.0, HENON_WEIGHT)
    signs = []
    for record, trace in zip(henon_crossings[:3], multiplicity_traces["traces"]):
        u = trace.steps[0].solution.values
        jac = _SplitJacobian(A2, _fprime(f, u), _separable_factors(A2))
        assert jac.failure is None
        signs.append(float(np.sign(jac.denominator)))
        assert signs[-1] == (-1.0) ** record.morse_index
    assert signs == [-1.0, 1.0, -1.0]


def test_criterion_11_jacobian_consistency():
    from fracbvp.superlinear import _jacobian, _residual
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    problems = [
        (2.0, UNIT, NonlinearityFamily.power(1.0, 2.0),
         lambda t: 12.0 * np.sin(np.pi * t)),
        (1.5, HENON_WEIGHT, NonlinearityFamily.affine_power(2.0, 2.0),
         lambda t: 5.0 * t ** 0.5 * (1.0 - t)),
    ]
    eps = 1e-6
    ok = True
    worst = 0.0
    for alpha, h, f, seed in problems:
        mesh = production_mesh(alpha, 400, weight=h)
        A = assemble(mesh, alpha, h)
        u = seed(A.mesh.nodes)
        u[0] = u[-1] = 0.0
        J = _jacobian(A, f, u)
        for _ in range(20):
            v = rng.standard_normal(len(u))
            v /= np.max(np.abs(v))
            fd = (_residual(A, f, u + eps * v) - _residual(A, f, u)) / eps
            an = J @ v
            rel = float(np.max(np.abs(fd - an)) / max(np.max(np.abs(an)), 1e-12))
            worst = max(worst, rel)
            ok = ok and rel <= 1e-4
    elapsed = time.perf_counter() - t0
    _report(11, "Newton Jacobian matches directional finite differences", ok,
            elapsed, 30.0, f"worst rel {worst:.1e}")


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    configs = [
        ["eig", "--alpha", "1.5", "--weight", "constant:1", "--n", "300"],
        ["bounds", "--alpha", "1.25", "--weight", "power_offset:4:0.5"],
        ["sweep", "--alphas", "1.8:2.0:0.1", "--weight", "constant:1",
         "--n", "150"],
        ["solve-sub", "--alpha", "2", "--weight", "constant:1",
         "--nonlin", "power:1:0.5", "--n", "200"],
        ["nonexist", "--alpha", "2", "--weight", "constant:1",
         "--nonlin", "power:1:1", "--n", "150", "--trials", "3"],
        ["henon-shoot", "--l", "4", "--p", "2", "--zeta", "1",
         "--beta-min", "50", "--beta-max", "300", "--scan-points", "60"],
    ]
    ok = True
    for k, args in enumerate(configs):
        out1 = tmp_path / f"a{k}"
        out2 = tmp_path / f"b{k}"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        for name in manifest["outputs"]:
            same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
            ok = ok and same
    elapsed = time.perf_counter() - t0
    _report(12, "re-running a config byte-reproduces all artifacts", ok,
            elapsed, 120.0)
