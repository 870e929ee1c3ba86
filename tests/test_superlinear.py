import dataclasses
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracbvp.cli import main as cli_main
from fracbvp.errors import ConvergenceError, HypothesisError
from fracbvp.eigen import principal_eigenpair
from fracbvp.grid import GridFunction, make_mesh, production_mesh
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble
from fracbvp.superlinear import (continue_alpha, find_positive_solution,
                                 newton_solve, nondegeneracy)

from helpers import jacobian, norms, zeros
from oracles import fd_newton_bvp

SQUARE = NonlinearityFamily.power(1.0, 2.0)


@pytest.fixture(scope="module")
def classical(unit_weight):
    mesh = production_mesh(2.0, 400)
    A = assemble(mesh, 2.0, unit_weight)
    return mesh, A, principal_eigenpair(A)


def test_linear_f_collapses_to_zero_in_one_step(classical, unit_weight):
    # F is affine for f(s) = s, so Newton lands on the zero solution at once
    mesh, A, _ = classical
    f = NonlinearityFamily.power(1.0, 1.0)
    u0 = GridFunction(mesh, 0.3 * np.sin(np.pi * mesh.nodes))
    report = newton_solve(A, f, u0)
    assert report.iterations == 1
    assert np.max(np.abs(report.solution.values)) < 1e-9
    assert not report.positive and not report.converged


def test_small_start_flags_trivial_limit(classical, unit_weight):
    mesh, A, eig = classical
    u0 = GridFunction(mesh, 1e-4 * eig.phi1.values)
    report = newton_solve(A, SQUARE, u0)
    assert report.residual <= 1e-10
    assert not report.positive
    assert not report.converged          # flagged, not an exception


def test_superlinear_solution_against_fd_oracle(unit_weight):
    # u'' + u^2 = 0: cross-check against the independent FD Newton oracle;
    # agreement is relative to the solution scale (||u|| ~ 11.8)
    mesh = make_mesh(2000, "uniform")
    A = assemble(mesh, 2.0, unit_weight)
    eig = principal_eigenpair(A)
    report = find_positive_solution(A, SQUARE, eig)
    x, u_fd = fd_newton_bvp(lambda u: u * np.abs(u), lambda u: 2.0 * np.abs(u),
                            n=4000, u0=lambda t: 15.0 * np.sin(np.pi * t))
    scale = np.max(np.abs(u_fd))
    assert np.max(np.abs(report.solution.interp(x) - u_fd)) / scale < 1e-6


def test_find_positive_solution_requires_superlinear(classical, unit_weight):
    mesh, A, eig = classical
    with pytest.raises(HypothesisError):
        find_positive_solution(A, NonlinearityFamily.power(1.0, 0.5), eig)


def test_jacobian_consistency(classical, unit_weight):
    # directional finite differences of F against the analytic Jacobian
    mesh, A, _ = classical

    def residual(x):
        return x - A.nonlinear_image(SQUARE, x)

    rng = np.random.default_rng(7)
    u = 5.0 * np.sin(np.pi * mesh.nodes) + 0.5
    u[0] = u[-1] = 0.0
    J = jacobian(A, SQUARE, u)
    eps = 1e-6
    for _ in range(20):
        v = rng.standard_normal(len(u))
        v /= np.max(np.abs(v))
        fd = (residual(u + eps * v) - residual(u)) / eps
        an = J @ v
        denom = max(np.max(np.abs(an)), 1e-12)
        assert np.max(np.abs(fd - an)) / denom < 1e-4


def test_jacobian_bytes_match_identity_minus_scaled(classical):
    # the one-buffer Jacobian is exactly I - A*f'(u), signed zeros included:
    # the zero boundary rows of A meet both signs of f'(u) here
    mesh, A, _ = classical
    u = 5.0 * np.sin(3.0 * np.pi * mesh.nodes)
    u[0] = u[-1] = 0.0
    for f in (SQUARE, NonlinearityFamily.power(1.0, 0.5)):
        with np.errstate(invalid="ignore", divide="ignore"):
            fp = np.nan_to_num(f.fprime(np.abs(u)) * np.sign(u),
                               nan=0.0, posinf=0.0, neginf=0.0)
        ref = np.eye(len(u)) - A.matrix * fp[np.newaxis, :]
        assert jacobian(A, f, u).tobytes() == ref.tobytes()


def test_nondegeneracy_identity_at_zero(classical, unit_weight):
    mesh, A, _ = classical
    report = nondegeneracy(A, SQUARE, zeros(mesh))
    assert report.margin == pytest.approx(1.0, abs=1e-12)
    assert not report.degenerate


def test_nondegeneracy_flags_eigenpair(classical, unit_weight):
    # f(s) = lambda1 * s linearizes to lambda1*T, which has eigenvalue one
    mesh, A, eig = classical
    f = NonlinearityFamily.power(eig.lambda1, 1.0)
    report = nondegeneracy(A, f, eig.phi1)
    assert report.margin < 1e-8
    assert report.degenerate


def test_solution_envelope(classical, unit_weight):
    mesh, A, eig = classical
    report = find_positive_solution(A, SQUARE, eig)
    t = mesh.nodes
    c2 = norms(report.solution, 2.0).c2ma
    slack = report.solution.values - t * (1.0 - t) * c2
    assert np.min(slack) > -1e-6


def test_margin_stable_under_refinement(unit_weight):
    margins = []
    for n in (200, 400):
        mesh = production_mesh(2.0, n)
        A = assemble(mesh, 2.0, unit_weight)
        eig = principal_eigenpair(A)
        rep = find_positive_solution(A, SQUARE, eig)
        margins.append(nondegeneracy(A, SQUARE, rep.solution).margin)
    assert abs(margins[0] - margins[1]) / margins[1] < 0.1


@pytest.fixture(scope="module")
def classical_solution(classical, unit_weight):
    mesh, A, eig = classical
    return mesh, find_positive_solution(A, SQUARE, eig)


def test_zero_length_continuation(classical_solution, unit_weight):
    mesh, start = classical_solution
    trace = continue_alpha(start, assemble(mesh, 2.0, unit_weight), 2.0, SQUARE)
    assert trace.status == "completed"
    assert len(trace.steps) == 1
    assert np.array_equal(trace.steps[0].solution.values, start.solution.values)


def test_continuation_trace_invariants(classical_solution, unit_weight):
    mesh, start = classical_solution
    trace = continue_alpha(start, assemble(mesh, 2.0, unit_weight), 1.96,
                           SQUARE, initial_step=0.01)
    assert trace.status == "completed"
    alphas = [s.alpha for s in trace.steps]
    assert alphas == sorted(alphas, reverse=True)
    assert alphas[-1] == 1.96
    for step in trace.steps:
        assert step.residual <= 1e-10 or step is trace.steps[0]
        assert step.margin > 0.0
        assert np.all(step.solution.values[1:-1] > 0.0)
    # continuity along the trace: bounded difference quotient
    sups = [np.max(np.abs(a.solution.values - b.solution.values))
            / abs(a.alpha - b.alpha)
            for a, b in zip(trace.steps[:-1], trace.steps[1:])]
    scale = np.max(np.abs(start.solution.values))
    assert max(sups) < 100.0 * scale


def test_continuation_step_doubling_stays_on_branch(classical_solution,
                                                    unit_weight):
    # fixed steps of 0.01 take 4 to reach 1.96; doubled after easy correctors
    # they take fewer, and the secant-predicted endpoint is the solution a
    # direct Newton solve at 1.96 reaches from the start
    mesh, start = classical_solution
    trace = continue_alpha(start, assemble(mesh, 2.0, unit_weight), 1.96,
                           SQUARE, initial_step=0.01)
    assert trace.status == "completed"
    assert trace.rejected_steps == 0
    assert len(trace.steps) - 1 < 4
    assert {s.det_sign for s in trace.steps} == {trace.steps[0].det_sign}
    end = trace.steps[-1].solution.values
    direct = newton_solve(assemble(mesh, 1.96, unit_weight), SQUARE,
                          start.solution)
    assert np.max(np.abs(end - direct.solution.values)) <= (
        1e-9 * np.max(np.abs(end)))


def test_continuation_rejects_a_change_of_det_sign(classical_solution,
                                                   unit_weight, monkeypatch):
    # a corrector that lands on another branch shows it by the sign of det J;
    # flip the first corrector's sign and that step must be rejected, halved
    # and retried, with the rest of the trace on the start's sign
    import fracbvp.superlinear as superlinear
    mesh, start = classical_solution
    nondegeneracy_of, orders = superlinear.nondegeneracy, []

    def flip_first_corrector(A, f, u):
        report = nondegeneracy_of(A, f, u)
        orders.append(A.alpha)
        if len(orders) == 2:
            return dataclasses.replace(report, det_sign=-report.det_sign)
        return report

    monkeypatch.setattr(superlinear, "nondegeneracy", flip_first_corrector)
    trace = continue_alpha(start, assemble(mesh, 2.0, unit_weight), 1.98,
                           SQUARE, initial_step=0.01)
    assert trace.status == "completed"
    assert trace.rejected_steps == 1
    assert orders[:3] == [2.0, 1.99, 1.995]
    assert trace.steps[1].alpha == 1.995
    assert {s.det_sign for s in trace.steps} == {trace.steps[0].det_sign}


def test_continuation_halts_at_the_fold_on_one_branch(tmp_path):
    # the index-1 and index-2 Henon solutions meet in a fold near
    # alpha = 1.933; a step that doubles towards it must not land on the
    # other branch, whose det J has the opposite sign
    out = tmp_path / "fold"
    assert cli_main(["henon-continue", "--scan-points", "200",
                     "--target-alpha", "1.9", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    signs = []
    for k, trace in enumerate(summary["traces"][:2]):
        assert trace["status"] == "halted_diverged"
        assert 1.93 < trace["end_alpha"] < 1.94
        assert trace["rejected_steps"] > 0
        rows = [json.loads(line) for line in
                (out / f"trace_{k}.jsonl").read_text().splitlines()]
        signs.append({row["det_sign"] for row in rows})
    assert signs == [{-1}, {1}]


def test_continuation_pushed_far_reports_diagnostics(unit_weight):
    # pushing well below the starting order must end gracefully: either the
    # branch survives or the trace halts with its status and margins intact
    weight = WeightFamily.power_offset(4.0, 0.5)
    mesh = production_mesh(1.5, 150)
    A2 = assemble(mesh, 2.0, weight)
    eig = principal_eigenpair(A2)
    start = find_positive_solution(A2, SQUARE, eig)
    trace = continue_alpha(start, A2, 1.5, SQUARE,
                           initial_step=0.05, min_step=1e-3)
    assert trace.status in ("completed", "halted_degenerate",
                            "halted_diverged")
    alphas = [s.alpha for s in trace.steps]
    assert alphas == sorted(alphas, reverse=True)
    for step in trace.steps:
        assert np.all(step.solution.values[1:-1] > 0.0)
        assert step.margin > 0.0


def test_continuation_requires_positive_start(classical, unit_weight):
    mesh, A, _ = classical
    f = NonlinearityFamily.power(1.0, 1.0)
    u0 = GridFunction(mesh, 0.1 * np.sin(np.pi * mesh.nodes))
    trivial = newton_solve(A, f, u0)
    with pytest.raises(HypothesisError):
        continue_alpha(trivial, A, 1.9, f)


def test_newton_nonconvergence_budget(classical, unit_weight):
    mesh, A, eig = classical
    u0 = GridFunction(mesh, 2.0 * eig.lambda1 * eig.phi1.values)
    with pytest.raises(ConvergenceError):
        newton_solve(A, SQUARE, u0, tol=1e-10, maxit=1)


def test_newton_holds_one_matrix_buffer(unit_weight, monkeypatch):
    # each iteration's split Jacobian replaces the last one: two alive at
    # once while the next is built would double the peak.  The margin holds
    # the split alone too, also where Lanczos stops short of its tolerance
    from fracbvp import superlinear
    mesh = production_mesh(2.0, 800)
    A = assemble(mesh, 2.0, unit_weight)
    eig = principal_eigenpair(A)
    u0 = GridFunction(mesh, 2.0 * eig.lambda1 * eig.phi1.values)
    m = len(A.mesh.nodes)
    tracemalloc.start()
    try:
        report = newton_solve(A, SQUARE, u0)
        peak = tracemalloc.get_traced_memory()[1]
        assert report.iterations >= 2
        assert peak <= 1.25 * 8 * m * m
        monkeypatch.setattr(superlinear, "MARGIN_MAXIT", 1)
        tracemalloc.reset_peak()
        with pytest.raises(ConvergenceError):
            nondegeneracy(A, SQUARE, report.solution)
        assert tracemalloc.get_traced_memory()[1] <= 1.25 * 8 * m * m
    finally:
        tracemalloc.stop()


def test_split_holds_no_matrix_buffer(unit_weight):
    # of T the split forms only its diagonal blocks and reads the rest from
    # A's panels, so neither the split, nor Newton, nor the margin holds a
    # buffer of A's size beside A: a copy of T took 1.10 of 8 m^2 here
    from fracbvp.superlinear import _SplitJacobian, _fprime
    mesh = production_mesh(2.0, 1600)
    A = assemble(mesh, 2.0, unit_weight)
    eig = principal_eigenpair(A)
    u0 = GridFunction(mesh, 2.0 * eig.lambda1 * eig.phi1.values)
    bound = 0.25 * 8 * len(A.mesh.nodes) ** 2
    tracemalloc.start()
    try:
        _SplitJacobian(A, _fprime(SQUARE, u0.values))
        assert tracemalloc.get_traced_memory()[1] <= bound
        tracemalloc.reset_peak()
        report = newton_solve(A, SQUARE, u0)
        assert tracemalloc.get_traced_memory()[1] <= bound
        tracemalloc.reset_peak()
        assert not nondegeneracy(A, SQUARE, report.solution).degenerate
        assert tracemalloc.get_traced_memory()[1] <= bound
    finally:
        tracemalloc.stop()
    assert report.converged and report.iterations >= 2


def test_newton_and_margin_call_no_native_linalg(classical_solution,
                                                 unit_weight, monkeypatch):
    # tracemalloc does not see the workspaces numpy.linalg allocates
    # natively, so the gate above holds only while Newton, the margin and
    # continuation call no numpy.linalg routine but eigh (of the Lanczos
    # tridiagonal) and norm (of a vector)
    import numpy.linalg._linalg as impl

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy.linalg routine was called")

    for name in np.linalg.__all__:
        if name not in ("eigh", "norm") and not isinstance(
                getattr(np.linalg, name), type):
            for module in (np.linalg, impl):
                monkeypatch.setattr(module, name, refuse, raising=False)
    mesh, start = classical_solution
    A = assemble(mesh, 2.0, unit_weight)
    u0 = GridFunction(mesh, 1.01 * start.solution.values)
    report = newton_solve(A, SQUARE, u0)
    assert report.converged and report.iterations >= 2
    assert not nondegeneracy(A, SQUARE, report.solution).degenerate
    trace = continue_alpha(start, A, 1.99, SQUARE, initial_step=0.005)
    assert trace.status == "completed" and len(trace.steps) == 3


def test_newton_nan_guess_is_not_converged(classical):
    mesh, A, _ = classical
    u0 = GridFunction(mesh, np.full(len(mesh.nodes), np.nan))
    with pytest.raises(ConvergenceError) as info:
        newton_solve(A, SQUARE, u0)
    assert np.isnan(info.value.residual)


def test_failed_solve_names_the_seed(classical):
    # a tolerance below rounding cannot be met; the error says how far the
    # Petviashvili seed got and keeps Newton's last iterate
    mesh, A, eig = classical
    with pytest.raises(ConvergenceError) as info:
        find_positive_solution(A, SQUARE, eig, tol=1e-300, maxit=3)
    assert re.match(r"Newton from the Petviashvili seed \(\d+ steps, last "
                    r"relative step \S+\): ", str(info.value))
    assert 1 <= info.value.iterations <= 3
    assert info.value.last.mesh is mesh


@pytest.mark.parametrize("steps", [{"initial_step": 0.0}, {"min_step": 0.0}])
def test_continuation_rejects_zero_step(classical, classical_solution, steps):
    _, A, _ = classical
    _, start = classical_solution
    with pytest.raises(HypothesisError):
        continue_alpha(start, A, 1.9, SQUARE, **steps)


# the criterion-11 problems: (alpha, weight, f, point u)
CRITERION_11 = [
    (2.0, WeightFamily.constant(1.0), SQUARE,
     lambda t: 12.0 * np.sin(np.pi * t)),
    (1.5, WeightFamily.power_offset(4.0, 0.5),
     NonlinearityFamily.affine_power(2.0, 2.0),
     lambda t: 5.0 * t ** 0.5 * (1.0 - t)),
]


def _problem(alpha, h, f, point, n=400):
    A = assemble(production_mesh(alpha, n), alpha, h)
    u = point(A.mesh.nodes)
    u[0] = u[-1] = 0.0
    return A, f, u


@pytest.mark.parametrize("problem", CRITERION_11)
def test_split_solves_match_dense_lu(problem):
    # J = T - u w^T solved by triangular solves and Sherman-Morrison agrees
    # with an LU of the dense Jacobian, for J and J^T
    from scipy.linalg import lu_factor, lu_solve
    from fracbvp.superlinear import _SplitJacobian, _fprime
    A, f, u = _problem(*problem)
    jac = _SplitJacobian(A, _fprime(f, u))
    assert jac.failure is None
    lu = lu_factor(jacobian(A, f, u))
    rng = np.random.default_rng(3)
    for _ in range(3):
        b = rng.standard_normal(len(u))
        for trans, solve in ((0, jac.solve), (1, jac.solve_t)):
            ref = lu_solve(lu, b, trans=trans)
            rel = np.max(np.abs(solve(b) - ref)) / np.max(np.abs(ref))
            assert rel < 1e-12


@pytest.mark.parametrize("m", [1, 17, 63, 64, 65, 128, 129, 401])
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tri_solve_matches_solve_triangular(m, seed):
    # the blocked solves with T and T^T against scipy's, on every block
    # shape: one block, a partial one, whole ones, whole ones and a partial
    # one.  With u = w = 0 and fp = 1 the split's T is I - tril(A), and the
    # NaN above A's diagonal reaches the upper triangles of T's diagonal
    # blocks, so a solve that read them would not be finite
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.uniform(-1.0, 1.0, (m, m)), -1) / m
    lower += np.diag(rng.uniform(0.5, 2.0, m))
    matrix = np.eye(m) - lower
    matrix[np.triu_indices(m, 1)] = np.nan
    zeros = np.zeros(m)
    _check_tri_solve(matrix, zeros, zeros, np.ones(m), lower, rng)


@pytest.mark.parametrize("m", [1, 17, 63, 64, 65, 128, 129, 401])
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_tri_solve_with_rank_one_part_matches_solve_triangular(m, seed):
    # the same block shapes with random factors (u, v) and fp > 0: below
    # its diagonal blocks T = I + tril((u v^T - A) fp) is read from A's
    # panels and the running dot products of the rank-one part, while the
    # reference forms T densely; A keeps NaN above its diagonal
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 1.0, (2, m)) / np.sqrt(m)
    fp = rng.uniform(0.5, 2.0, m)
    matrix = rng.uniform(0.0, 1.0, (m, m)) / m
    matrix[np.triu_indices(m, 1)] = np.nan
    tri = np.eye(m) + np.tril((np.outer(u, v) - matrix) * fp)
    _check_tri_solve(matrix, u, v, fp, tri, rng)


def _check_tri_solve(matrix, u, v, fp, tri, rng):
    """The split's solves with T and T^T against scipy's on ``tri``."""
    from scipy.linalg import solve_triangular
    from fracbvp.superlinear import _SplitJacobian
    jac = _SplitJacobian(SimpleNamespace(matrix=matrix, factors=(u, v)), fp)
    assert jac.failure is None
    b = rng.standard_normal(len(u))
    for trans in (0, 1):
        ref = solve_triangular(tri, b, trans=trans, lower=True)
        rel = np.max(np.abs(jac._tri_solve(b, trans) - ref)) / np.max(
            np.abs(ref))
        assert rel < 1e-13


@pytest.mark.parametrize("problem", CRITERION_11 + [
    (1.6, WeightFamily.power_offset(1.5, 0.4), SQUARE,
     lambda t: 20.0 * t ** 0.6 * (1.0 - t), 1600)])
def test_margin_matches_svd(problem):
    A, f, u = _problem(*problem)
    report = nondegeneracy(A, f, GridFunction(A.mesh, u))
    svals = np.linalg.svd(jacobian(A, f, u), compute_uv=False)
    assert 1 <= report.iterations
    assert abs(report.margin - svals[-1]) / svals[-1] < 1e-8
    assert report.det_sign == np.linalg.slogdet(jacobian(A, f, u))[0]
    assert report.threshold == pytest.approx(
        1e-6 * np.linalg.norm(jacobian(A, f, u), 1), rel=1e-8)


def test_unconverged_margin_below_the_threshold_is_degenerate(classical,
                                                             monkeypatch):
    # one Lanczos step leaves an upper bound on sigma_min; at the eigenpair
    # it is already below the threshold, so the report is degenerate
    from fracbvp import superlinear
    mesh, A, eig = classical
    f = NonlinearityFamily.power(eig.lambda1, 1.0)
    converged = nondegeneracy(A, f, eig.phi1)
    monkeypatch.setattr(superlinear, "MARGIN_MAXIT", 1)
    report = nondegeneracy(A, f, eig.phi1)
    assert report.degenerate and report.iterations == 1
    assert report.margin >= converged.margin


def test_unconverged_margin_above_the_threshold_raises(classical,
                                                       classical_solution,
                                                       monkeypatch):
    # at a solution one step's bound is far above the threshold and says
    # nothing, so the margin is not reported
    from fracbvp import superlinear
    _, A, _ = classical
    _, start = classical_solution
    monkeypatch.setattr(superlinear, "MARGIN_MAXIT", 1)
    with pytest.raises(ConvergenceError) as info:
        nondegeneracy(A, SQUARE, start.solution)
    assert info.value.iterations == 1


def test_solve_super_exits_3_on_an_unconverged_margin(tmp_path, monkeypatch):
    from fracbvp import superlinear
    from fracbvp.errors import EXIT_NONCONVERGENCE
    monkeypatch.setattr(superlinear, "MARGIN_MAXIT", 1)
    out = tmp_path / "sup"
    assert cli_main(["solve-super", "--alpha", "2", "--weight", "constant:1",
                     "--nonlin", "power:1:2", "--n", "200",
                     "--out", str(out)]) == EXIT_NONCONVERGENCE
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "non_convergence"
    assert error["iterations"] == 1
    assert not (out / "newton_report.json").exists()


def test_split_failures_decide_the_margin():
    # on hand-built operators: J = I - u v^T with v.u = 1 has T = I and a
    # Sherman-Morrison denominator of exactly 0.0, det J = 0; J = -I has a
    # triangular part with diagonal -1, which the split cannot solve with
    from fracbvp.errors import DegeneratePointError
    m = 4
    u, v, zeros = np.full(m, 0.25), np.ones(m), np.zeros(m)
    point = SimpleNamespace(values=np.ones(m))
    f = NonlinearityFamily.power(1.0, 1.0)
    singular = SimpleNamespace(matrix=np.outer(u, v), factors=(u, v))
    report = nondegeneracy(singular, f, point)
    assert (report.margin, report.degenerate) == (0.0, True)
    assert (report.iterations, report.det_sign) == (0, 0)
    unsplit = SimpleNamespace(matrix=2.0 * np.eye(m), factors=(zeros, zeros))
    with pytest.raises(DegeneratePointError) as info:
        nondegeneracy(unsplit, f, point)
    assert "diagonal entry" in str(info.value)


@pytest.mark.parametrize("problem", CRITERION_11)
def test_condition_estimate_matches_svd(problem):
    # ||J||_1 from A's column sums is the dense 1-norm, and the guard's
    # capped Lanczos estimate ||J||_1 / sigma_min is a lower bound within 10%
    # of the one with sigma_min from a dense SVD
    from fracbvp.superlinear import (COND_STEPS, _SplitJacobian, _fprime,
                                     _norm1, _sigma_min)
    A, f, u = _problem(*problem)
    fp = _fprime(f, u)
    jac = _SplitJacobian(A, fp)
    anorm = _norm1(A)(fp)
    J = jacobian(A, f, u)
    assert anorm == pytest.approx(np.linalg.norm(J, 1), rel=1e-13)
    sigma, _, _ = _sigma_min(jac, COND_STEPS, 0.0, False)
    cond = anorm / sigma
    exact = anorm / np.linalg.svd(J, compute_uv=False)[-1]
    assert 0.9 * exact <= cond <= exact * (1.0 + 1e-10)


def test_newton_condition_guard(classical, monkeypatch):
    from fracbvp import superlinear
    from fracbvp.errors import DegeneratePointError
    mesh, A, eig = classical
    monkeypatch.setattr(superlinear, "COND_LIMIT", 1.0)
    u0 = GridFunction(mesh, 2.0 * eig.lambda1 * eig.phi1.values)
    with pytest.raises(DegeneratePointError) as info:
        newton_solve(A, SQUARE, u0)
    assert info.value.iterations == 1
    assert "condition estimate" in str(info.value)


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_newton_guard_stops_on_singular_jacobian(alpha, unit_weight):
    # f(s) = lambda1 s makes J = I - lambda1 A singular, phi1 its null vector
    from fracbvp.errors import DegeneratePointError
    A = assemble(production_mesh(alpha, 200), alpha, unit_weight)
    eig = principal_eigenpair(A, tol=1e-14)
    f = NonlinearityFamily.power(eig.lambda1, 1.0)
    t = A.mesh.nodes
    u0 = GridFunction(A.mesh, eig.phi1.values + 0.1 * np.sin(2.0 * np.pi * t))
    with pytest.raises(DegeneratePointError) as info:
        newton_solve(A, f, u0)
    assert "condition estimate" in str(info.value)


# solve-super jobs of the benchmark's solver_mix seeds 25, 38, 50 (two), 59,
# 65 and 97, and four (alpha, p) of the hypothesis region: Newton from
# phi1 scaled to 1/4-16 times the level where f(s)/s = lambda1 fails on each
PETVIASHVILI_CASES = [
    (1.34405, WeightFamily.power_offset(1.83525, 0.366846), 800, 0.773539, 2.11007),
    (1.46746, WeightFamily.power_offset(1.47272, 0.393422), 400, 0.789337, 2.06514),
    (1.50181, WeightFamily.power_offset(1.68168, 0.422258), 400, 0.74417, 2.04032),
    (1.35928, WeightFamily.power_offset(1.87619, 0.395055), 800, 0.6294, 1.92826),
    (1.40108, WeightFamily.power_offset(1.37043, 0.385059), 200, 1.84242, 2.16184),
    (1.54176, WeightFamily.power_offset(1.95895, 0.457818), 200, 1.68112, 2.17601),
    (1.59276, WeightFamily.power_offset(1.72253, 0.434769), 400, 0.859859, 1.99727),
] + [(alpha, WeightFamily.constant(1.0), 200, 1.0, p)
     for alpha in (1.15, 1.2) for p in (2.5, 3.0)]


def _assert_nondegenerate_solution(A, f, report):
    assert report.converged and report.positive
    assert report.residual < 1e-10
    assert np.all(report.solution.values[1:-1] > 0.0)
    assert not nondegeneracy(A, f, report.solution).degenerate


@pytest.mark.parametrize("alpha, h, n, c, p", PETVIASHVILI_CASES)
def test_petviashvili_seed_solves_where_the_sweep_fails(alpha, h, n, c, p):
    f = NonlinearityFamily.power(c, p)
    A = assemble(production_mesh(alpha, n), alpha, h)
    report = find_positive_solution(A, f, principal_eigenpair(A), maxit=200)
    _assert_nondegenerate_solution(A, f, report)


# affine_power f = lam (s + s^q), lam a share of lambda1: (alpha, h, share,
# q); the last, with sup norm 1e4, is one where scaled phi1 seeds fail
AFFINE_CASES = [
    (1.2, WeightFamily.constant(1.0), 0.3, 2.25),
    (1.6, WeightFamily.power_offset(1.5, 0.4), 0.5, 1.5),
    (1.9, WeightFamily.power_offset(0.8, 0.6), 0.9, 3.0),
    (1.16, WeightFamily.constant(1.0), 0.13, 2.9),
]


@pytest.mark.parametrize("alpha, h, share, q", AFFINE_CASES)
def test_affine_power_solution(alpha, h, share, q):
    A = assemble(production_mesh(alpha, 200), alpha, h)
    eig = principal_eigenpair(A)
    f = NonlinearityFamily.affine_power(share * eig.lambda1, q)
    _assert_nondegenerate_solution(A, f, find_positive_solution(A, f, eig))


def test_affine_power_solution_against_fd_oracle(unit_weight):
    # u'' + lam (u + u^2) = 0 with lam = pi^2 / 2, against the FD oracle
    mesh = make_mesh(2000, "uniform")
    A = assemble(mesh, 2.0, unit_weight)
    lam = np.pi ** 2 / 2.0
    f = NonlinearityFamily.affine_power(lam, 2.0)
    report = find_positive_solution(A, f, principal_eigenpair(A))
    scale = np.max(report.solution.values)
    x, u_fd = fd_newton_bvp(lambda u: lam * (u + u * np.abs(u)),
                            lambda u: lam * (1.0 + 2.0 * np.abs(u)), n=4000,
                            u0=lambda t: scale * np.sin(np.pi * t))
    assert np.max(np.abs(report.solution.interp(x) - u_fd)) / scale < 1e-6


def test_henon_weight_solution():
    # h = |t - 0.5|^4 has several positive solutions at alpha = 2; the one
    # Newton reaches from the Petviashvili seed is positive and nondegenerate
    h = WeightFamily.power_offset(4.0, 0.5)
    A = assemble(production_mesh(2.0, 400), 2.0, h)
    report = find_positive_solution(A, SQUARE, principal_eigenpair(A),
                                    maxit=200)
    _assert_nondegenerate_solution(A, SQUARE, report)
