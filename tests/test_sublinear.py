import math

import numpy as np
import pytest

from fracbvp.errors import HypothesisError
from fracbvp.eigen import principal_eigenpair
from fracbvp.grid import norms, production_mesh
from fracbvp.operator import NonlinearityFamily, assemble
from fracbvp.sublinear import (classify_regime, find_bracket, monotone_solve,
                               nonexistence_probe)

from oracles import fd_newton_bvp

SQRT = NonlinearityFamily.power(1.0, 0.5)


@pytest.fixture(scope="module")
def classical(unit_weight):
    mesh = production_mesh(2.0, 400)
    A = assemble(mesh, 2.0, unit_weight)
    return mesh, A, principal_eigenpair(A)


def test_bracket_delta_matches_analytic_threshold(classical, unit_weight):
    # f = sqrt(s): f(s) >= lambda1*s iff s <= 1/lambda1^2 (= 1/pi^4 here)
    mesh, A, eig = classical
    bracket = find_bracket(eig, SQRT, A)
    threshold = 1.0 / eig.lambda1 ** 2
    assert bracket.delta <= threshold * (1.0 + 1e-6)
    assert bracket.delta >= threshold * 0.5
    assert threshold == pytest.approx(1.0 / math.pi ** 4, rel=1e-4)
    assert bracket.m_upper > 1.0


def test_bracket_certifies_discrete_inequalities(classical, unit_weight):
    mesh, A, eig = classical
    bracket = find_bracket(eig, SQRT, A)
    lower_img = A.matrix @ SQRT.f(np.abs(bracket.lower.values))
    upper_img = A.matrix @ SQRT.f(np.abs(bracket.upper.values))
    assert np.all(lower_img >= bracket.lower.values - 1e-12)
    assert np.all(upper_img <= bracket.upper.values + 1e-12)


def test_bracket_rejects_wrong_regime(classical, unit_weight):
    mesh, A, eig = classical
    # saturating with a < lambda1 violates the near-zero ratio condition
    weak = NonlinearityFamily.saturating(eig.lambda1 * 0.5)
    with pytest.raises(HypothesisError):
        find_bracket(eig, weak, A)
    # pure power with p > 1 is the opposite regime
    with pytest.raises(HypothesisError):
        find_bracket(eig, NonlinearityFamily.power(1.0, 2.0), A)
    # linear f has f(s)/s constant: no straddle either way
    with pytest.raises(HypothesisError):
        find_bracket(eig, NonlinearityFamily.power(1.0, 1.0), A)


def test_saturating_above_lambda1_accepted(classical, unit_weight):
    mesh, A, eig = classical
    strong = NonlinearityFamily.saturating(2.0 * eig.lambda1)
    bracket = find_bracket(eig, strong, A)
    report = monotone_solve(bracket, strong, A)
    assert report.from_side == "both_agree"
    assert np.all(report.solution.values[1:-1] > 0.0)


def _solve_sqrt(alpha, unit_weight, tol=1e-9):
    mesh = production_mesh(alpha, 400)
    A = assemble(mesh, alpha, unit_weight)
    eig = principal_eigenpair(A)
    bracket = find_bracket(eig, SQRT, A)
    report = monotone_solve(bracket, SQRT, A, tol=tol)
    return mesh, A, report


@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_monotone_solve_uniqueness_witness(alpha, unit_weight):
    _, A, report = _solve_sqrt(alpha, unit_weight)
    assert report.from_side == "both_agree"
    assert report.residual <= 1e-8
    assert np.all(report.solution.values[1:-1] > 0.0)


def test_monotone_iterates_stay_ordered(classical, unit_weight):
    # re-run the iteration by hand and check the monotonicity invariants
    mesh, A, eig = classical
    bracket = find_bracket(eig, SQRT, A)
    lo = bracket.lower.values.copy()
    hi = bracket.upper.values.copy()
    for _ in range(60):
        lo_next = A.matrix @ SQRT.f(np.abs(lo))
        hi_next = A.matrix @ SQRT.f(np.abs(hi))
        assert np.all(lo_next >= lo - 1e-12)
        assert np.all(hi_next <= hi + 1e-12)
        assert np.all(lo_next <= hi_next + 1e-12)
        lo, hi = lo_next, hi_next


def test_solution_matches_fd_oracle(unit_weight):
    # u'' + sqrt(u) = 0 on a fine FD grid, compared in sup norm
    _, _, report = _solve_sqrt(2.0, unit_weight)
    x, u_fd = fd_newton_bvp(
        lambda u: np.sqrt(np.maximum(u, 0.0)),
        lambda u: 0.5 / np.sqrt(np.maximum(u, 1e-30)), n=4000)
    assert np.max(np.abs(report.solution.interp(x) - u_fd)) < 1e-6


@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_solution_envelope(alpha, unit_weight):
    mesh, _, report = _solve_sqrt(alpha, unit_weight)
    t = mesh.nodes
    u = report.solution.values
    c2 = norms(report.solution, alpha).c2ma
    slack = t ** (2.0 - alpha) * u - (alpha - 1.0) * t * (1.0 - t) * c2
    assert np.min(slack) > -1e-6


def test_sublinear_bracket_golden_alpha_15(unit_weight):
    # regression goldens from the doubling/bisection search at alpha = 1.5
    mesh = production_mesh(1.5, 400)
    A = assemble(mesh, 1.5, unit_weight)
    eig = principal_eigenpair(A)
    bracket = find_bracket(eig, SQRT, A)
    assert bracket.delta == pytest.approx(1.0 / eig.lambda1 ** 2, rel=1e-4)
    assert bracket.m_upper == 2.0


def test_classify_regime(classical, unit_weight):
    _, _, eig = classical
    lam = eig.lambda1
    assert classify_regime(NonlinearityFamily.affine_power(lam, 0.5), lam) == "super"
    assert classify_regime(NonlinearityFamily.power(0.5 * lam, 1.0), lam) == "sub"
    assert classify_regime(NonlinearityFamily.power(lam, 1.0), lam) == "borderline"


def test_probe_super_regime_diverges(classical, unit_weight):
    mesh, A, eig = classical
    f = NonlinearityFamily.affine_power(eig.lambda1, 0.5)
    report = nonexistence_probe(f, A, eig, trials=4)
    assert report.regime == "super"
    assert all(o.outcome == "diverged" for o in report.trials)
    assert "unbounded" in report.verdict


def test_probe_sub_regime_decays_geometrically(classical, unit_weight):
    mesh, A, eig = classical
    f = NonlinearityFamily.power(0.5 * eig.lambda1, 1.0)
    report = nonexistence_probe(f, A, eig, trials=4)
    assert report.regime == "sub"
    assert all(o.outcome == "decayed" for o in report.trials)
    for o in report.trials:
        assert o.last_ratio == pytest.approx(0.5, abs=0.05)


def test_probe_flags_borderline(classical, unit_weight):
    mesh, A, eig = classical
    f = NonlinearityFamily.power(eig.lambda1, 1.0)
    report = nonexistence_probe(f, A, eig, trials=2)
    assert report.regime == "borderline"
    assert "borderline" in report.verdict
