"""Property tests of the assembled operator over drawn orders and meshes,
and of the closed-form readings of the two data hypotheses.

Hypothesis draws alpha in (1, 2] and a uniform or graded mesh with at most
64 intervals, nonlinearities of every family, and polynomial weights;
``derandomize=True`` makes every run test the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fracbvp.eigen import lambda1_bounds, principal_eigenpair
from fracbvp.errors import HypothesisError
from fracbvp.grid import MIN_INTERVALS, make_mesh
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble

UNIT = WeightFamily.constant(1.0)
PROPERTY = settings(derandomize=True, database=None, max_examples=25,
                    deadline=None)

alphas = st.floats(min_value=1.0, max_value=2.0, exclude_min=True)
meshes = st.builds(make_mesh, st.integers(MIN_INTERVALS, 64),
                   st.sampled_from(("uniform", "graded")),
                   st.floats(min_value=1.0, max_value=3.0))


@PROPERTY
@given(alpha=alphas, mesh=meshes)
def test_unit_weight_operator_is_nonnegative(alpha, mesh):
    assert np.min(assemble(mesh, alpha, UNIT).matrix) >= 0.0


@PROPERTY
@given(alpha=alphas, mesh=meshes)
def test_unit_weight_row_sums_integrate_the_kernel(alpha, mesh):
    # the hats sum to 1, so row i sums to the integral of G(t_i, s) over s;
    # the bound is the hat closed form's (see the mpmath oracle test in
    # test_kernel.py): it cancels terms of size t^(alpha-1)
    t = mesh.nodes
    row_sums = assemble(mesh, alpha, UNIT).matrix.sum(axis=1)
    exact = (t ** (alpha - 1.0) - t ** alpha) / math.gamma(alpha + 1.0)
    bound = 1e-12 * np.abs(exact) + 1e-14 * t ** (alpha - 1.0)
    assert np.all(np.abs(row_sums - exact) <= bound)


@PROPERTY
@given(alpha=alphas, mesh=meshes)
def test_principal_eigenvalue_within_closed_form_bounds(alpha, mesh):
    lam = principal_eigenpair(assemble(mesh, alpha, UNIT)).lambda1
    bounds = lambda1_bounds(alpha, UNIT)
    assert bounds.lower <= lam <= bounds.upper


# exponents 1 or at least 0.1 away from it, so that at s = 1e-100 and
# 1e100 the power part of f(s)/s is within a factor 1e-10 of its limit
exponents = st.one_of(st.just(1.0), st.floats(0.1, 0.9), st.floats(1.1, 3.0))
nonlinearities = st.one_of(
    st.builds(NonlinearityFamily.power, st.floats(0.1, 10.0), exponents),
    st.builds(NonlinearityFamily.affine_power, st.floats(0.1, 10.0),
              exponents),
    st.builds(NonlinearityFamily.saturating, st.floats(0.1, 10.0)))


@PROPERTY
@given(f=nonlinearities)
def test_ratio_is_monotone_and_tends_to_its_limits(f):
    # classify_regime reads the ratio hypothesis from the two limits alone,
    # which holds because f(s)/s runs monotonically between them
    s = np.geomspace(1e-100, 1e100, 401)
    r = f.f(s) / s
    rounding = 1e-12 * r
    assert np.all(np.diff(r) <= rounding[1:]) or np.all(
        np.diff(r) >= -rounding[1:])
    scale = float(f.f(1.0))
    for value, limit in zip((r[0], r[-1]), f.ratio_limits()):
        if limit == math.inf:
            assert value >= 1e9 * scale
        else:
            assert abs(value - limit) <= 1e-9 * scale
    low, high = sorted(f.ratio_limits())
    assert np.all((low - rounding <= r) & (r <= high + rounding))


@PROPERTY
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
       c0=st.floats(0.0, 2.0))
def test_polynomial_weight_extremes_match_dense_evaluation(coeffs, c0):
    # each of the two evaluations is within Horner's bound of the exact
    # value; the dense grid also misses an extreme by up to max|p''| h^2 / 8
    coeffs = [c0] + coeffs
    t = np.linspace(0.0, 1.0, 100_001)
    dense = np.polynomial.polynomial.polyval(t, coeffs)
    bound = 2.0 * (len(coeffs) - 1) * np.finfo(float).eps * np.sum(
        np.abs(coeffs))
    curvature = np.sum([k * (k - 1) * abs(c) for k, c in enumerate(coeffs)])
    slack = 2.0 * bound + curvature * (t[1] - t[0]) ** 2 / 8.0
    try:
        low, high = WeightFamily.polynomial(coeffs).extremes()
    except HypothesisError:
        # refused: negative beyond Horner's bound, or zero everywhere
        assert np.min(dense) < slack or np.max(dense) <= 2.0 * bound
        return
    assert low - 2.0 * bound <= np.min(dense) <= low + slack
    assert high - slack <= np.max(dense) <= high + 2.0 * bound
