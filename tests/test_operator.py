import math

import numpy as np
import pytest

from fracbvp.errors import HypothesisError
from fracbvp.grid import GridFunction, make_mesh, norms, production_mesh
from fracbvp.kernel import green_integral
from fracbvp.operator import (NonlinearityFamily, WeightFamily, apply_linear,
                              apply_nonlinear, assemble)


def test_weight_families_evaluate():
    assert WeightFamily.constant(2.0)(0.3) == 2.0
    hp = WeightFamily.power_offset(4.0, 0.5)
    assert hp(0.5) == 0.0
    assert hp(1.0) == pytest.approx(0.5 ** 4)
    poly = WeightFamily.polynomial([1.0, 0.0, 1.0])
    assert poly(0.5) == pytest.approx(1.25)
    assert poly.sup_norm() == pytest.approx(2.0)


def test_weight_rejects_negative_or_zero():
    with pytest.raises(HypothesisError):
        WeightFamily.constant(0.0)
    with pytest.raises(HypothesisError):
        WeightFamily.polynomial([1.0, -4.0])   # negative on part of [0,1]
    mesh = make_mesh(8, "uniform")
    with pytest.raises(HypothesisError):
        WeightFamily.tabulated(GridFunction.zeros(mesh))


def test_nonlinearity_families():
    f = NonlinearityFamily.power(2.0, 0.5)
    assert f.f(4.0) == pytest.approx(4.0)
    assert f.fprime(4.0) == pytest.approx(0.5)
    assert f.ratio_limits() == (math.inf, 0.0)

    g = NonlinearityFamily.affine_power(3.0, 2.0)
    assert g.f(2.0) == pytest.approx(3.0 * 6.0)
    assert g.fprime(2.0) == pytest.approx(3.0 * 5.0)
    assert g.ratio_limits() == (3.0, math.inf)

    s = NonlinearityFamily.saturating(5.0)
    assert s.f(1.0) == pytest.approx(2.5)
    assert s.fprime(0.0) == pytest.approx(5.0)
    assert s.ratio_limits() == (5.0, 0.0)


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0))
def test_assemble_constant_input_reproduces_kernel_integral(alpha):
    # h = 1, x = 1: the integrand is linear, so product integration is exact
    mesh = production_mesh(alpha, 400)
    A = assemble(mesh, alpha, WeightFamily.constant(1.0))
    result = A.matrix @ np.ones(len(A.mesh.nodes))
    exact = green_integral(A.mesh.nodes, alpha)
    assert np.max(np.abs(result - exact)) < 1e-10


def test_assemble_rejects_zero_weight():
    mesh = make_mesh(16, "uniform")
    with pytest.raises(HypothesisError):
        WeightFamily.constant(-1.0)
    table = GridFunction.sample(mesh, lambda t: np.ones_like(t))
    table.values[3] = -0.5
    with pytest.raises(HypothesisError):
        assemble(mesh, 1.5, WeightFamily.tabulated(table))


def test_assemble_inserts_weight_kink():
    mesh = make_mesh(10, "uniform")
    h = WeightFamily.power_offset(2.0, 0.33)
    A = assemble(mesh, 1.5, h)
    assert A.mesh.n == 11
    assert 0.33 in A.mesh.nodes


def test_matrix_structure():
    mesh = production_mesh(1.5, 60)
    A = assemble(mesh, 1.5, WeightFamily.constant(1.0))
    assert np.min(A.matrix) >= 0.0
    assert np.all(A.matrix[0] == 0.0)
    assert np.all(A.matrix[-1] == 0.0)


def test_classical_sine_image():
    # alpha = 2, h = 1: the map sends sin(pi t) to sin(pi t)/pi^2 + O(n^-2)
    mesh = make_mesh(200, "uniform")
    A = assemble(mesh, 2.0, WeightFamily.constant(1.0))
    x = GridFunction.sample(mesh, lambda t: np.sin(np.pi * t))
    y = apply_linear(A, x)
    err = np.max(np.abs(y.values - x.values / math.pi ** 2))
    assert err < 5.0 / 200 ** 2


def test_apply_linear_is_linear_and_positive():
    mesh = production_mesh(1.5, 50)
    A = assemble(mesh, 1.5, WeightFamily.constant(1.0))
    x = GridFunction.sample(mesh, lambda t: np.sin(np.pi * t))
    y = GridFunction.sample(mesh, lambda t: t * (1.0 - t) ** 2)
    lhs = apply_linear(A, GridFunction(mesh, 2.0 * x.values - 3.0 * y.values))
    rhs = 2.0 * apply_linear(A, x).values - 3.0 * apply_linear(A, y).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-14
    assert np.all(apply_linear(A, x).values >= 0.0)
    assert np.all(apply_linear(A, GridFunction.zeros(mesh)).values == 0.0)


def test_apply_linear_mesh_mismatch():
    mesh = production_mesh(1.5, 50)
    other = make_mesh(50, "uniform")
    A = assemble(mesh, 1.5, WeightFamily.constant(1.0))
    with pytest.raises(ValueError):
        apply_linear(A, GridFunction.zeros(other))


def test_apply_nonlinear_trivial_and_guarded():
    mesh = make_mesh(64, "uniform")
    h = WeightFamily.constant(1.0)
    A = assemble(mesh, 2.0, h)
    zero = GridFunction.zeros(mesh)
    for f in (NonlinearityFamily.power(1.0, 2.0),
              NonlinearityFamily.affine_power(1.0, 0.5)):
        out = apply_nonlinear(A, f, zero)
        assert np.all(out.values == 0.0)
    # negative excursions go through |u|
    f = NonlinearityFamily.power(1.0, 0.5)
    u = GridFunction.sample(mesh, lambda t: -np.sin(np.pi * t))
    out = apply_nonlinear(A, f, u)
    assert np.all(np.isfinite(out.values))
    assert np.all(out.values >= 0.0)


def test_apply_nonlinear_linear_f_matches_linear_path():
    mesh = make_mesh(100, "uniform")
    h = WeightFamily.constant(1.0)
    A = assemble(mesh, 2.0, h)
    u = GridFunction.sample(mesh, lambda t: np.sin(np.pi * t))
    out = apply_nonlinear(A, NonlinearityFamily.power(1.0, 1.0), u)
    assert np.max(np.abs(out.values - apply_linear(A, u).values)) < 1e-15


@pytest.mark.parametrize("alpha", (1.25, 1.75))
def test_positivity_improvement_envelope(alpha):
    # image of any nonnegative input obeys the weighted lower envelope
    mesh = production_mesh(alpha, 200)
    A = assemble(mesh, alpha, WeightFamily.constant(1.0))
    for fn in (lambda t: np.ones_like(t),
               lambda t: np.sin(np.pi * t) ** 2,
               lambda t: (t > 0.5).astype(float)):
        y = GridFunction(A.mesh, A.matrix @ fn(A.mesh.nodes))
        t = A.mesh.nodes
        c2 = norms(y, alpha).c2ma
        slack = (t ** (2.0 - alpha) * y.values
                 - (alpha - 1.0) * t * (1.0 - t) * c2)
        assert np.min(slack) > -1e-6


def test_convergence_order_against_refined_reference():
    alpha = 1.5
    h = WeightFamily.constant(1.0)
    fn = lambda t: np.sin(np.pi * t) + t * (1.0 - t)
    ref_mesh = make_mesh(4000, "uniform")
    ref = assemble(ref_mesh, alpha, h).matrix @ fn(ref_mesh.nodes)
    errs = []
    for n in (100, 200, 400):
        mesh = make_mesh(n, "uniform")
        y = assemble(mesh, alpha, h).matrix @ fn(mesh.nodes)
        errs.append(np.max(np.abs(y - np.interp(mesh.nodes, ref_mesh.nodes, ref))))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


def test_symmetry_transport_classical():
    # symmetric weight, alpha = 2: symmetric inputs map to symmetric outputs
    mesh = make_mesh(128, "uniform")
    h = WeightFamily.polynomial([1.0, 1.0, -1.0])   # 1 + t - t^2, symmetric
    A = assemble(mesh, 2.0, h)
    x = np.sin(np.pi * mesh.nodes) ** 2
    y = A.matrix @ x
    assert np.max(np.abs(y - y[::-1])) < 1e-14
