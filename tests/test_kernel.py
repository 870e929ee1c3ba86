from math import gamma

import mpmath
import numpy as np
import pytest

from fracbvp.grid import make_mesh, production_mesh
from fracbvp.kernel import (_ROW_BLOCK, green_hat_matrix,
                            separable_hat_integrals)

from helpers import green_hat_integral
from oracles import gauss_kernel_hat_integral, green_eval, green_integral

ALPHAS = (1.1, 1.25, 1.5, 1.75, 2.0)


def test_green_classical_point():
    # alpha = 2 reduces to the classical kernel s(1-t) for s <= t
    assert green_eval(0.5, 0.5, 2.0) == pytest.approx(0.25, abs=1e-15)
    assert green_eval(0.7, 0.2, 2.0) == pytest.approx(0.2 * 0.3, abs=1e-15)
    assert green_eval(0.2, 0.7, 2.0) == pytest.approx(0.2 * 0.3, abs=1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_green_vanishes_at_s_boundary(alpha):
    t = np.linspace(0.0, 1.0, 11)
    assert np.all(green_eval(t, np.zeros_like(t), alpha) == 0.0)
    assert np.all(np.abs(green_eval(t, np.ones_like(t), alpha)) < 1e-15)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_green_vanishes_at_t_boundary(alpha):
    s = np.linspace(0.0, 1.0, 11)
    assert np.all(green_eval(np.zeros_like(s), s, alpha) == 0.0)
    assert np.all(np.abs(green_eval(np.ones_like(s), s, alpha)) < 1e-15)


def test_green_integral_closed_form_value():
    # integral over s at t = 0.25, alpha = 1.5: t^(alpha-1)(1-t)/Gamma(alpha+1)
    expected = 0.25 ** 0.5 * 0.75 / gamma(2.5)
    assert green_integral(0.25, 1.5) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.2820948, abs=5e-7)


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0))
@pytest.mark.parametrize("grading", ("uniform", "graded"))
def test_hat_integrals_sum_to_kernel_integral(alpha, grading):
    # hats sum to one, so summing the closed-form hat integrals must
    # reproduce the closed-form kernel integral to rounding
    mesh = (make_mesh(80, "uniform") if grading == "uniform"
            else production_mesh(alpha, 80))
    t = np.linspace(0.0, 1.0, 37)
    total = np.zeros_like(t)
    for j in range(len(mesh.nodes)):
        total += green_hat_integral(t, j, mesh, alpha)
    assert np.max(np.abs(total - green_integral(t, alpha))) < 1e-13


@pytest.mark.parametrize("alpha", ALPHAS)
def test_hat_integrals_vanish_at_t_boundary(alpha):
    mesh = make_mesh(16, "uniform")
    for j in range(len(mesh.nodes)):
        assert abs(green_hat_integral(0.0, j, mesh, alpha)) < 1e-15
        assert abs(green_hat_integral(1.0, j, mesh, alpha)) < 1e-15


@pytest.mark.parametrize("alpha", (1.5, 2.0))
def test_hat_integral_against_quadrature_oracle(alpha):
    # independent composite-Gauss oracle, split at the kink s = t
    mesh = make_mesh(10, "uniform")
    for t in (0.131, 0.5, 0.77):
        for j in (0, 3, 5, 10):
            oracle = gauss_kernel_hat_integral(t, j, mesh.nodes, alpha)
            closed = green_hat_integral(t, j, mesh, alpha)
            assert closed == pytest.approx(oracle, abs=1e-13)


def _mp_hat_integral(t, j, nodes, alpha):
    """int_0^1 G(t, s, alpha) hat_j(s) ds by tanh-sinh quadrature in mpmath,
    split at the hat's nodes and at the kernel's kink s = t."""
    t, a1 = mpmath.mpf(t), mpmath.mpf(alpha) - 1
    lo = nodes[j - 1] if j > 0 else nodes[j]
    hi = nodes[j + 1] if j < len(nodes) - 1 else nodes[j]
    peak = mpmath.mpf(nodes[j])

    def integrand(s):
        hat = (s - lo) / (peak - lo) if s <= peak else (hi - s) / (hi - peak)
        sing = (t - s) ** a1 if s < t else 0
        return ((t * (1 - s)) ** a1 - sing) * hat

    cuts = sorted({mpmath.mpf(x) for x in (lo, peak, hi, t) if lo <= x <= hi})
    return mpmath.quad(integrand, cuts) / mpmath.gamma(alpha)


@pytest.mark.parametrize("alpha", (1.1, 1.5))
def test_hat_integral_against_mpmath_oracle(alpha):
    # the closed form on the graded mesh's smallest segments, next to t = 0,
    # and on the hats that straddle the kink s = t, at a node or between two.
    # The hat pieces are a + b*s with b = +-1/d, so on a segment of width d
    # the closed form cancels terms of size t^(alpha-1) down to the result:
    # its rounding error is a few ulps of t^(alpha-1), not of the result
    # (about 1e-10 relative on the n = 40 graded mesh's first segment)
    mesh = production_mesh(alpha, 40)
    nodes = mesh.nodes
    cases = [(nodes[1], 0), (nodes[1], 1), (nodes[2], 1), (nodes[2], 2),
             (nodes[20], 19), (nodes[20], 20), (nodes[20], 21),
             (0.5 * (nodes[20] + nodes[21]), 20),
             (0.5 * (nodes[20] + nodes[21]), 21)]
    with mpmath.workdps(40):
        for t, j in cases:
            oracle = float(_mp_hat_integral(t, j, nodes, alpha))
            closed = green_hat_integral(t, j, mesh, alpha)
            scale = t ** (alpha - 1.0)
            assert abs(closed - oracle) <= 1e-12 * abs(oracle) + 1e-14 * scale


@pytest.mark.parametrize("alpha, n", [(1.3, 1600), (1.5, 400)])
def test_hat_matrix_against_mpmath_oracle(alpha, n):
    # the assembled matrix at production size, with the oracle's bound: the
    # first rows, the rows on each side of a row-block boundary and a middle
    # row, each in the first column and the columns around the diagonal
    mesh = production_mesh(alpha, n)
    nodes = mesh.nodes
    a = green_hat_matrix(mesh, alpha, nodes ** (alpha - 1.0),
                         separable_hat_integrals(nodes, alpha))
    rows = (1, 2, _ROW_BLOCK - 1, _ROW_BLOCK, len(nodes) // 2)
    cases = sorted({(i, j) for i in rows for j in (0, i - 1, i, i + 1)})
    with mpmath.workdps(40):
        for i, j in cases:
            oracle = float(_mp_hat_integral(nodes[i], j, nodes, alpha))
            scale = nodes[i] ** (alpha - 1.0)
            assert abs(a[i, j] - oracle) <= 1e-12 * abs(oracle) + 1e-14 * scale


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0))
@pytest.mark.parametrize("grading", ("uniform", "graded"))
@pytest.mark.parametrize("kink", (None, 0.37), ids=("smooth", "kinked"))
def test_hat_matrix_above_the_band_is_rank_one(alpha, grading, kink):
    # where t_i <= s_(j-1) the singular branch misses hat j, so the entry is
    # the separable product alone, to the last bit
    mesh = (make_mesh(100, "uniform") if grading == "uniform"
            else production_mesh(alpha, 100))
    if kink is not None:
        mesh = mesh.with_node(kink)
    nodes = mesh.nodes
    power = nodes ** (alpha - 1.0)
    c = separable_hat_integrals(nodes, alpha)
    a = green_hat_matrix(mesh, alpha, power, c)
    product = np.outer(power, c)
    above = np.triu(np.ones(a.shape, dtype=bool), k=1)
    assert np.array_equal(a[above], product[above])


def _property_grid(n_t=41, n_s=41):
    t = np.linspace(0.0, 1.0, n_t)[:, None]
    s = np.linspace(0.0, 1.0, n_s)[None, :]
    return t, s


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_nonnegative(alpha):
    t, s = _property_grid()
    assert np.min(green_eval(t, s, alpha)) >= -1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_hump_bound(alpha):
    t, s = _property_grid()
    g = green_eval(t, s, alpha)
    hump = (s * (1.0 - s)) ** (alpha - 1.0) / gamma(alpha)
    assert np.all(g <= hump + 1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_two_sided_bound(alpha):
    t, s = _property_grid()
    g = green_eval(t, s, alpha)
    lower = ((alpha - 1.0) / gamma(alpha)
             * t ** (alpha - 1.0) * (1.0 - t) * s * (1.0 - s) ** (alpha - 1.0))
    assert np.all(g >= lower - 1e-12)
    # upper envelope: at s = 1 it is +inf for alpha < 2 and holds trivially
    s_in = s[:, :-1]
    upper = (t ** (alpha - 1.0) * (1.0 - t) * (1.0 - s_in) ** (alpha - 2.0)
             / gamma(alpha))
    assert np.all(g[:, :-1] <= upper + 1e-12)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_kernel_weighted_bound(alpha):
    t, s = _property_grid()
    g = green_eval(t, s, alpha)
    weighted = t ** (2.0 - alpha) * g
    lower = ((alpha - 1.0) / gamma(alpha)
             * t * (1.0 - t) * s * (1.0 - s) ** (alpha - 1.0))
    upper = s * (1.0 - s) ** (alpha - 1.0) / gamma(alpha)
    assert np.all(weighted >= lower - 1e-12)
    assert np.all(weighted <= upper + 1e-12)


def test_kernel_continuity_in_alpha():
    t, s = _property_grid(21, 21)
    base = green_eval(t, s, 1.6)
    gaps = [np.max(np.abs(green_eval(t, s, 1.6 + d) - base))
            for d in (0.1, 0.01, 0.001)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_order_validation():
    from fracbvp.errors import HypothesisError
    with pytest.raises(HypothesisError):
        green_eval(0.5, 0.5, 1.0)
    with pytest.raises(HypothesisError):
        green_eval(0.5, 0.5, 2.5)
    with pytest.raises(ValueError):
        green_eval(1.5, 0.5, 1.5)
