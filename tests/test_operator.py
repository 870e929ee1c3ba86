import math

import numpy as np
import pytest

from fracbvp import operator
from fracbvp.errors import HypothesisError
from fracbvp.grid import GridFunction, make_mesh, production_mesh
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble

from helpers import green_hat_integral, norms, sample, zeros
from oracles import green_integral


def test_weight_families_evaluate():
    assert WeightFamily.constant(2.0)(0.3) == 2.0
    hp = WeightFamily.power_offset(4.0, 0.5)
    assert hp(0.5) == 0.0
    assert hp(1.0) == pytest.approx(0.5 ** 4)
    poly = WeightFamily.polynomial([1.0, 0.0, 1.0])
    assert poly(0.5) == pytest.approx(1.25)
    assert poly.extremes() == pytest.approx((1.0, 2.0))


def test_weight_rejects_negative_or_zero():
    with pytest.raises(HypothesisError):
        WeightFamily.constant(0.0)
    with pytest.raises(HypothesisError):
        WeightFamily.polynomial([1.0, -4.0])   # negative on part of [0,1]
    mesh = make_mesh(8, "uniform")
    with pytest.raises(HypothesisError):
        WeightFamily.tabulated(zeros(mesh))


def test_weight_touching_zero_at_a_double_root_validates():
    # expanded, (t - 0.3)^2 evaluates to 0.0 at its critical point and
    # (3 - t)(t - c)^2 here to -2.2e-16: within Horner's rounding bound,
    # both minima are zero
    c = 0.8132702392002724
    for coeffs in ([0.09, -0.6, 1.0],
                   -np.polynomial.polynomial.polyfromroots([c, c, 3.0])):
        low, high = WeightFamily.polynomial(coeffs).extremes()
        assert low == 0.0 and high > 0.0


def test_polynomial_weight_with_a_rounding_size_leading_term():
    # the derivative's companion matrix would divide by 6.7e-313 and
    # overflow; its leading term of rounding size is dropped first
    weight = WeightFamily.polynomial([1.0, 1.0, 1.0, 2.2250738585e-313])
    assert weight.extremes() == pytest.approx((1.0, 3.0))


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


@pytest.mark.parametrize("alpha", (1.1, 1.5, 1.95, 2.0))
@pytest.mark.parametrize("grading", ("uniform", "graded"))
@pytest.mark.parametrize("weight", [
    WeightFamily.constant(2.5), WeightFamily.power_offset(4.0, 0.37),
    WeightFamily.polynomial([1.0, 0.5, 2.0])], ids=("constant", "kinked",
                                                     "polynomial"))
def test_assemble_bytes_match_hat_integral_columns(alpha, grading, weight):
    # the segment-blocked builder against the one-hat-at-a-time reference:
    # same values, same signs of zero, same C order
    mesh = (make_mesh(80, "uniform") if grading == "uniform"
            else production_mesh(alpha, 80))
    A = assemble(mesh, alpha, weight)
    nodes = A.mesh.nodes
    ref = np.column_stack([green_hat_integral(nodes, j, A.mesh, alpha)
                           for j in range(len(nodes))])
    ref *= weight(nodes)[np.newaxis, :]
    ref[0, :] = 0.0
    ref[-1, :] = 0.0
    np.maximum(ref, 0.0, out=ref)
    assert A.matrix.flags["C_CONTIGUOUS"]
    assert A.matrix.tobytes() == ref.tobytes()


@pytest.mark.parametrize("alpha", (1.3, 2.0))
@pytest.mark.parametrize("weight", [
    WeightFamily.constant(2.5), WeightFamily.power_offset(4.0, 0.37)],
    ids=("constant", "kinked"))
def test_factors_give_the_matrix_above_the_diagonal(alpha, weight):
    # A[i, j] = u_i v_j for j > i, to the rounding of the weight's product,
    # with u zero on the zero boundary rows; the factors are read-only
    A = assemble(production_mesh(alpha, 120), alpha, weight)
    u, v = A.factors
    above = np.triu(np.ones(A.matrix.shape, dtype=bool), k=1)
    assert np.allclose(A.matrix[above], np.outer(u, v)[above], rtol=1e-15,
                       atol=0.0)
    assert u[0] == u[-1] == 0.0
    assert not (u.flags.writeable or v.flags.writeable)


def test_assemble_rejects_zero_weight():
    mesh = make_mesh(16, "uniform")
    with pytest.raises(HypothesisError):
        WeightFamily.constant(-1.0)
    table = sample(mesh, lambda t: np.ones_like(t))
    table.values[3] = -0.5
    with pytest.raises(HypothesisError):
        assemble(mesh, 1.5, WeightFamily.tabulated(table))


def test_assemble_bounds_matrix_memory_before_allocating(monkeypatch):
    # a 51-node matrix (n = 50) fits a bound of exactly its bytes; one node
    # more is refused before the kernel integrals are reached
    monkeypatch.setattr(operator, "MAX_MATRIX_BYTES", 8 * 51 ** 2)
    h = WeightFamily.constant(1.0)
    assert assemble(make_mesh(50), 2.0, h).matrix.shape == (51, 51)

    def unreachable(mesh, alpha, power, c):
        raise AssertionError("green_hat_matrix called above the bound")
    monkeypatch.setattr(operator, "green_hat_matrix", unreachable)
    with pytest.raises(HypothesisError) as info:
        assemble(make_mesh(51), 2.0, h)
    assert info.value.hypothesis == "mesh-size"


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
    x = sample(mesh, lambda t: np.sin(np.pi * t))
    y = A.matrix @ x.values
    err = np.max(np.abs(y - x.values / math.pi ** 2))
    assert err < 5.0 / 200 ** 2


def test_apply_linear_is_linear_and_positive():
    mesh = production_mesh(1.5, 50)
    A = assemble(mesh, 1.5, WeightFamily.constant(1.0))
    x = sample(mesh, lambda t: np.sin(np.pi * t))
    y = sample(mesh, lambda t: t * (1.0 - t) ** 2)
    lhs = A.matrix @ (2.0 * x.values - 3.0 * y.values)
    rhs = 2.0 * (A.matrix @ x.values) - 3.0 * (A.matrix @ y.values)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
    assert np.all(A.matrix @ x.values >= 0.0)
    assert np.all(A.matrix @ zeros(mesh).values == 0.0)


def test_apply_nonlinear_trivial_and_guarded():
    mesh = make_mesh(64, "uniform")
    h = WeightFamily.constant(1.0)
    A = assemble(mesh, 2.0, h)
    zero = zeros(mesh)
    for f in (NonlinearityFamily.power(1.0, 2.0),
              NonlinearityFamily.affine_power(1.0, 0.5)):
        out = A.nonlinear_image(f, zero.values)
        assert np.all(out == 0.0)
    # negative excursions go through |u|
    f = NonlinearityFamily.power(1.0, 0.5)
    u = sample(mesh, lambda t: -np.sin(np.pi * t))
    out = A.nonlinear_image(f, u.values)
    assert np.all(np.isfinite(out))
    assert np.all(out >= 0.0)


def test_apply_nonlinear_linear_f_matches_linear_path():
    mesh = make_mesh(100, "uniform")
    h = WeightFamily.constant(1.0)
    A = assemble(mesh, 2.0, h)
    u = sample(mesh, lambda t: np.sin(np.pi * t))
    out = A.nonlinear_image(NonlinearityFamily.power(1.0, 1.0), u.values)
    assert np.max(np.abs(out - A.matrix @ u.values)) < 1e-15


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
