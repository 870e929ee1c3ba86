import numpy as np
import pytest

from fracbvp.errors import HypothesisError
from fracbvp.grid import (RTOL, GridFunction, Mesh, boundary_weight,
                          default_grading_exponent, make_mesh,
                          production_mesh, settled)

from helpers import norms, sample, zeros


def test_make_mesh_uniform():
    mesh = make_mesh(8, "uniform")
    assert np.allclose(mesh.nodes, np.arange(9) / 8.0)
    assert mesh.n == 8


def test_make_mesh_graded_definition():
    mesh = make_mesh(100, "graded", 2.0)
    assert mesh.nodes[37] == pytest.approx((37 / 100) ** 2, rel=1e-15)
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0


def test_make_mesh_rejects_small_n():
    with pytest.raises(HypothesisError):
        make_mesh(4)


def test_make_mesh_rejects_unbuildable_meshes():
    # the size bound applies before np.arange: 10^11 nodes are 745 GiB
    with pytest.raises(HypothesisError) as info:
        make_mesh(10 ** 11)
    assert info.value.hypothesis == "mesh-size"
    # (i/n)^q underflows to 0 for the first nodes, so they coincide
    for q in (1e3, np.inf):
        with pytest.raises(HypothesisError) as info:
            make_mesh(100, "graded", q)
        assert info.value.hypothesis == "mesh-grading"


def test_mesh_rejects_bad_nodes():
    with pytest.raises(ValueError):
        Mesh(np.linspace(0.0, 0.9, 12))
    nodes = np.linspace(0.0, 1.0, 12)
    nodes[5] = nodes[4]
    with pytest.raises(ValueError):
        Mesh(nodes)


def test_with_node_insertion_and_dedup():
    mesh = make_mesh(10, "uniform")
    augmented = mesh.with_node(0.55)
    assert augmented.n == 11
    assert 0.55 in augmented.nodes
    assert mesh.with_node(0.5) is mesh


def test_default_grading_exponent():
    assert default_grading_exponent(2.0) == 2.0
    assert default_grading_exponent(1.5) == 3.0   # 2/(alpha-1) = 4, capped
    assert default_grading_exponent(1.9999) == pytest.approx(2.0, rel=1e-3)


def test_norms_zero_function():
    mesh = make_mesh(16, "uniform")
    w = norms(zeros(mesh), 1.5)
    assert (w.sup, w.c2ma, w.enorm) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("alpha", (1.1, 1.5, 2.0))
def test_norms_of_gauge_function(alpha):
    # u = t^(alpha-1)(1-t): e-norm is exactly 1, weighted norm peaks at 1/4
    mesh = make_mesh(64, "uniform")
    u = GridFunction(mesh, boundary_weight(mesh, alpha))
    w = norms(u, alpha)
    assert w.enorm == pytest.approx(1.0, rel=1e-12)
    assert w.c2ma == pytest.approx(0.25, rel=1e-12)   # max of t(1-t)


def test_norms_positive_homogeneity():
    mesh = make_mesh(32, "uniform")
    u = sample(mesh, lambda t: np.sin(np.pi * t) * (1.0 + t))
    base = norms(u, 1.5)
    for c in (2.0, -3.5, 0.25):
        scaled = norms(GridFunction(mesh, c * u.values), 1.5)
        assert scaled.sup == pytest.approx(abs(c) * base.sup, rel=1e-14)
        assert scaled.c2ma == pytest.approx(abs(c) * base.c2ma, rel=1e-14)
        assert scaled.enorm == pytest.approx(abs(c) * base.enorm, rel=1e-14)


@pytest.mark.parametrize("alpha", (1.25, 1.75, 2.0))
def test_sup_below_enorm_for_vanishing_functions(alpha):
    # discrete version of ||u||_inf <= ||u||_e
    mesh = production_mesh(alpha, 50)
    for fn in (lambda t: np.sin(np.pi * t),
               lambda t: t ** (alpha - 1.0) * (1.0 - t) ** 2,
               lambda t: np.sin(3 * np.pi * t) * t * (1.0 - t)):
        u = sample(mesh, fn)
        w = norms(u, alpha)
        assert w.sup <= w.enorm * (1.0 + 1e-12)


def test_norms_refinement_monotonicity():
    fn = lambda t: np.sin(2.3 * np.pi * t) * (1.0 - t)
    mesh = make_mesh(16, "uniform")
    fine = make_mesh(32, "uniform")
    for alpha in (1.5, 2.0):
        coarse = norms(sample(mesh, fn), alpha)
        refined = norms(sample(fine, fn), alpha)
        assert refined.sup >= coarse.sup - 1e-15
        assert refined.c2ma >= coarse.c2ma - 1e-15


def test_gridfunction_csv_roundtrip(tmp_path):
    mesh = make_mesh(12, "graded", 1.5)
    u = sample(mesh, lambda t: np.cos(t) * t * (1.0 - t))
    path = tmp_path / "u.csv"
    u.to_csv(path)
    back = GridFunction.from_csv(path)
    assert np.array_equal(back.mesh.nodes, mesh.nodes)
    assert np.array_equal(back.values, u.values)


def test_gridfunction_length_mismatch():
    mesh = make_mesh(10, "uniform")
    with pytest.raises(ValueError):
        GridFunction(mesh, np.zeros(5))


@pytest.mark.parametrize("rtol", [1e-4, 1e-6])
@pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
def test_settled_stops_a_geometric_sequence_near_its_limit(rho, rtol):
    # u_k = u* + c rho^k, iterated as a solver would: the stop must land
    # within rtol ||u*|| of the limit, and not on the first step.  The steps
    # near the stop, rtol (1 - rho) ||u*||, stay far above rounding here; at
    # rho = 0.999 and rtol = 1e-12 they are a few ulps and the step ratio is
    # noise
    limit = np.linspace(1.0, 2.0, 7)
    c = np.linspace(-3.0, 5.0, 7)
    prev, last_step = limit + c, np.nan
    for k in range(1, 100000):
        cur = limit + c * rho ** k
        step = np.max(np.abs(cur - prev))
        if settled(step, step / last_step, np.max(np.abs(cur)), rtol):
            break
        prev, last_step = cur, step
    assert k > 1
    assert np.max(np.abs(cur - limit)) <= rtol * np.max(limit)


def test_settled_needs_a_ratio_below_one_unless_the_step_is_zero():
    for step in (1e-300, 1e-20, 1.0):
        assert not settled(step, np.nan, 1.0, RTOL)    # a first step
        assert not settled(step, 1.0, 1.0, RTOL)
        assert not settled(step, 2.0, 1.0, RTOL)
    assert settled(0.0, np.nan, 1.0, RTOL)
    assert settled(1e-20, 0.5, 1.0, RTOL)
