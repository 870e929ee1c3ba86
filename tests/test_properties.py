"""Property tests of the assembled operator over drawn orders and meshes.

Hypothesis draws alpha in (1, 2] and a uniform or graded mesh with at most
64 intervals; ``derandomize=True`` makes every run test the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fracbvp.eigen import lambda1_bounds, principal_eigenpair
from fracbvp.grid import MIN_INTERVALS, make_mesh
from fracbvp.operator import WeightFamily, assemble

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
