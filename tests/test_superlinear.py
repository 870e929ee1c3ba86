import numpy as np
import pytest

from fracbvp.errors import ConvergenceError, HypothesisError
from fracbvp.eigen import principal_eigenpair
from fracbvp.grid import GridFunction, make_mesh, norms, production_mesh
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble
from fracbvp.superlinear import (continue_alpha, find_positive_solution,
                                 newton_solve, nondegeneracy)

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
    from fracbvp.superlinear import _jacobian, _residual
    mesh, A, _ = classical
    rng = np.random.default_rng(7)
    u = 5.0 * np.sin(np.pi * mesh.nodes) + 0.5
    u[0] = u[-1] = 0.0
    J = _jacobian(A, SQUARE, u)
    eps = 1e-6
    for _ in range(20):
        v = rng.standard_normal(len(u))
        v /= np.max(np.abs(v))
        fd = (_residual(A, SQUARE, u + eps * v) - _residual(A, SQUARE, u)) / eps
        an = J @ v
        denom = max(np.max(np.abs(an)), 1e-12)
        assert np.max(np.abs(fd - an)) / denom < 1e-4


def test_jacobian_bytes_match_identity_minus_scaled(classical):
    # the one-buffer Jacobian is exactly I - A*f'(u), signed zeros included:
    # the zero boundary rows of A meet both signs of f'(u) here
    from fracbvp.superlinear import _jacobian
    mesh, A, _ = classical
    u = 5.0 * np.sin(3.0 * np.pi * mesh.nodes)
    u[0] = u[-1] = 0.0
    for f in (SQUARE, NonlinearityFamily.power(1.0, 0.5)):
        with np.errstate(invalid="ignore", divide="ignore"):
            fp = np.nan_to_num(f.fprime(np.abs(u)) * np.sign(u),
                               nan=0.0, posinf=0.0, neginf=0.0)
        ref = np.eye(len(u)) - A.matrix * fp[np.newaxis, :]
        assert _jacobian(A, f, u).tobytes() == ref.tobytes()


def test_nondegeneracy_identity_at_zero(classical, unit_weight):
    mesh, A, _ = classical
    report = nondegeneracy(A, SQUARE, GridFunction.zeros(mesh))
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


def test_continuation_pushed_far_reports_diagnostics(unit_weight):
    # pushing well below the starting order must end gracefully: either the
    # branch survives or the trace halts with its status and margins intact
    weight = WeightFamily.power_offset(4.0, 0.5)
    mesh = production_mesh(1.5, 150, weight=weight)
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


def test_newton_nan_guess_is_not_converged(classical):
    mesh, A, _ = classical
    u0 = GridFunction(mesh, np.full(len(mesh.nodes), np.nan))
    with pytest.raises(ConvergenceError) as info:
        newton_solve(A, SQUARE, u0)
    assert np.isnan(info.value.residual)


@pytest.mark.parametrize("steps", [{"initial_step": 0.0}, {"min_step": 0.0}])
def test_continuation_rejects_zero_step(classical, classical_solution, steps):
    _, A, _ = classical
    _, start = classical_solution
    with pytest.raises(HypothesisError):
        continue_alpha(start, A, 1.9, SQUARE, **steps)
