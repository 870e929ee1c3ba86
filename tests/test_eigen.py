import math
from math import gamma

import numpy as np
import pytest

from fracbvp.eigen import (integrate_unit_interval, lambda1_bounds,
                           principal_eigenpair, sweep_alpha)
from fracbvp.errors import ConvergenceError
from fracbvp.grid import production_mesh
from fracbvp.operator import WeightFamily, assemble

from helpers import norms
from oracles import LAMBDA1_UNIT_WEIGHT


def test_classical_eigenpair(classical_eig):
    # n = 400 fixture: discretization error ~1e-5; the tight 1e-5 check at
    # n = 800 lives in the acceptance suite
    mesh, A, eig = classical_eig
    assert eig.lambda1 == pytest.approx(math.pi ** 2, rel=5e-5)
    assert np.max(np.abs(eig.phi1.values - np.sin(math.pi * mesh.nodes))) < 1e-4
    assert np.max(eig.phi1.values) == pytest.approx(1.0, abs=1e-15)
    assert np.all(eig.phi1.values[1:-1] > 0.0)


def test_eigen_residual_small(classical_eig):
    _, A, eig = classical_eig
    img = A.matrix @ eig.phi1.values
    res = np.max(np.abs(eig.lambda1 * img - eig.phi1.values))
    assert res <= 1e-8
    assert eig.residual == pytest.approx(res, abs=1e-14)


def test_weight_scaling_inverse_in_lambda(classical_eig):
    mesh, A, eig = classical_eig
    c = 3.7
    Ac = assemble(mesh, 2.0, WeightFamily.constant(c))
    eig_c = principal_eigenpair(Ac)
    assert eig_c.lambda1 == pytest.approx(eig.lambda1 / c, rel=1e-12)
    assert (np.argmax(eig_c.phi1.values) == np.argmax(eig.phi1.values))


@pytest.mark.parametrize("alpha", sorted(LAMBDA1_UNIT_WEIGHT))
def test_fractional_eigenvalue_goldens(alpha, unit_weight):
    # regression against the frozen n=2000 inverse-iteration oracle
    golden = LAMBDA1_UNIT_WEIGHT[alpha]
    mesh = production_mesh(alpha, 800)
    eig = principal_eigenpair(assemble(mesh, alpha, unit_weight))
    assert eig.lambda1 == pytest.approx(golden, rel=5e-6)


def test_nonconvergence_carries_last_iterate(classical_eig):
    _, A, _ = classical_eig
    with pytest.raises(ConvergenceError) as err:
        principal_eigenpair(A, tol=1e-16, maxit=3)
    assert err.value.last is not None
    assert err.value.iterations == 3


def test_bounds_classical_values(unit_weight):
    b = lambda1_bounds(2.0, unit_weight)
    assert b.lower == pytest.approx(8.0, rel=1e-14)
    assert b.upper == pytest.approx(120.0, rel=1e-10)
    assert b.lower <= math.pi ** 2 <= b.upper


def test_bounds_formula_alpha_15(unit_weight):
    b = lambda1_bounds(1.5, unit_weight)
    expected_lower = 1.5 ** 1.5 * gamma(2.5) / 0.5 ** 0.5
    assert b.lower == pytest.approx(expected_lower, rel=1e-14)
    # moment integral: Beta(alpha+1, alpha+1) = Gamma(2.5)^2 / Gamma(5)
    moment = gamma(2.5) ** 2 / gamma(5.0)
    assert b.upper == pytest.approx(4.0 * gamma(1.5) / (0.25 * moment), rel=1e-10)


def test_bounds_scale_with_weight(unit_weight):
    b1 = lambda1_bounds(1.7, unit_weight)
    bc = lambda1_bounds(1.7, WeightFamily.constant(4.0))
    assert bc.lower == pytest.approx(b1.lower / 4.0, rel=1e-12)
    assert bc.upper == pytest.approx(b1.upper / 4.0, rel=1e-12)


def test_quadrature_helper_exactness():
    # smooth integrand with known value
    val = integrate_unit_interval(lambda s: s ** 2.5 * (1.0 - s) ** 2.5)
    assert val == pytest.approx(gamma(3.5) ** 2 / gamma(7.0), rel=1e-12)


@pytest.mark.parametrize("alpha", (1.1, 1.25, 1.5, 1.75, 2.0))
@pytest.mark.parametrize("weight_spec", ("constant", "henon"))
def test_bound_containment(alpha, weight_spec, unit_weight):
    h = unit_weight if weight_spec == "constant" else WeightFamily.power_offset(4.0, 0.5)
    mesh = production_mesh(alpha, 400)
    eig = principal_eigenpair(assemble(mesh, alpha, h))
    b = lambda1_bounds(alpha, h)
    assert b.lower + 1e-6 <= eig.lambda1 <= b.upper - 1e-6


def test_phi1_envelope(classical_eig):
    mesh, _, eig = classical_eig
    t = mesh.nodes
    c2 = norms(eig.phi1, 2.0).c2ma
    slack = t ** 0.0 * eig.phi1.values - t * (1.0 - t) * c2
    assert np.min(slack) > -1e-6


@pytest.mark.parametrize("alpha,min_ratio", ((2.0, 3.0), (1.5, 2.0)))
def test_eigenvalue_mesh_convergence(alpha, min_ratio, unit_weight):
    lams = [principal_eigenpair(
        assemble(production_mesh(alpha, n), alpha, unit_weight)).lambda1
        for n in (100, 200, 400)]
    ratio = abs(lams[0] - lams[1]) / abs(lams[1] - lams[2])
    assert ratio >= min_ratio


def test_sweep_single_alpha_matches_direct_call(unit_weight):
    rows = sweep_alpha([2.0], unit_weight, n=200)
    mesh = production_mesh(2.0, 200)
    eig = principal_eigenpair(assemble(mesh, 2.0, unit_weight))
    assert len(rows) == 1
    assert rows[0].alpha == 2.0
    assert rows[0].lambda1 == pytest.approx(eig.lambda1, rel=1e-14)
    assert rows[0].lower <= rows[0].lambda1 <= rows[0].upper


def test_sweep_is_sorted_and_continuous(unit_weight):
    alphas = [1.9, 1.95, 2.0, 1.85, 1.8]
    rows = sweep_alpha(alphas, unit_weight, n=150)
    got = [r.alpha for r in rows]
    assert got == sorted(got)
    lams = np.array([r.lambda1 for r in rows])
    assert np.max(np.abs(np.diff(lams))) < 1.0


def test_sweep_alpha_16_golden(unit_weight):
    rows = sweep_alpha([1.6], unit_weight, n=400)
    assert rows[0].lambda1 == pytest.approx(LAMBDA1_UNIT_WEIGHT[1.6], rel=2e-5)
