import numpy as np
import pytest

from fracbvp.errors import HorizonError, HypothesisError
from fracbvp.grid import make_mesh
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble
from fracbvp.shooting import (HenonParams, first_zero, ivp_integrate,
                              rescale_to_unit, variational_solve,
                              weight_offset, z_prime)
from fracbvp.superlinear import newton_solve


def test_params_validation():
    with pytest.raises(HypothesisError):
        HenonParams(l=0.5, p=2.0)
    with pytest.raises(HypothesisError):
        HenonParams(l=4.0, p=1.0)
    assert HenonParams(l=4.0, p=2.0).meets_multiplicity_condition()
    assert not HenonParams(l=1.5, p=2.0).meets_multiplicity_condition()


def test_trajectory_starts_upward(henon_params):
    traj = ivp_integrate(2.0, henon_params, x_max=0.0)
    x = np.linspace(-1.0, -0.9, 20)
    assert np.all(np.diff(traj.u(x)) > 0.0)
    assert traj.u(-1.0) == 0.0
    assert traj.du(-1.0) == pytest.approx(2.0)


def test_trajectory_concave_where_positive(henon_params):
    z = first_zero(1.0, henon_params)
    traj = ivp_integrate(1.0, henon_params, x_max=z)
    x = np.linspace(-0.999, z - 1e-3, 200)
    pos = traj.u(x) > 0.0
    du = traj.du(x)
    assert np.all(np.diff(du[pos]) <= 1e-12)


def test_tolerance_self_convergence(henon_params):
    # halved tolerance changes the state at x = 0 by far less than 1e-8
    t1 = ivp_integrate(1.0, henon_params, x_max=0.5, rtol=1e-10, atol=1e-12)
    t2 = ivp_integrate(1.0, henon_params, x_max=0.5, rtol=5e-11, atol=5e-13)
    assert abs(t1.u(0.0) - t2.u(0.0)) < 1e-8


def test_first_zero_transversal(henon_params):
    for beta in (0.5, 5.0, 50.0):
        z = first_zero(beta, henon_params)
        assert z > -1.0
        # the zero is polished on the trajectory that located it
        res = variational_solve(beta, henon_params)
        traj = res.trajectory
        assert abs(traj.x_end - z) < 1e-9
        assert traj.du(traj.x_end) < 0.0
        assert abs(traj.u(traj.x_end)) < 1e-11


def test_first_zero_horizon_error(henon_params):
    with pytest.raises(HorizonError):
        first_zero(1.0, henon_params, x_max=0.2)


def test_z_bracketing_small_and_large_beta(henon_params):
    # z > 1 for small beta, z < 1 for large beta
    assert first_zero(0.01, henon_params) > 1.0
    assert first_zero(500.0, henon_params) < 1.0


def test_z_continuity(henon_params):
    for beta in (0.7, 30.0):
        z0 = first_zero(beta, henon_params)
        z1 = first_zero(beta + 1e-6, henon_params)
        assert abs(z1 - z0) < 1e-4


def test_z_prime_matches_finite_differences(henon_params):
    for beta in (0.5, 20.0):
        zp = z_prime(beta, henon_params)
        h = 1e-5
        fd = (first_zero(beta + h, henon_params)
              - first_zero(beta - h, henon_params)) / (2.0 * h)
        assert zp == pytest.approx(fd, rel=1e-4)


def test_three_crossings_found(henon_crossings):
    assert len(henon_crossings) >= 3
    betas = [r.beta for r in henon_crossings]
    assert betas == sorted(betas)
    for r in henon_crossings:
        assert abs(r.z - 1.0) <= 1e-9


def test_crossing_count_parity_odd(henon_params, henon_crossings):
    # scan endpoints straddle the level, so the crossing count is odd
    assert first_zero(1e-3, henon_params) > 1.0
    assert first_zero(1e3, henon_params) < 1.0
    assert len(henon_crossings) % 2 == 1


def test_even_solution_morse_index_two(henon_params, henon_crossings):
    # the crossing with minimal |u'(0)| is the even solution: Morse index 2,
    # variational solution positive at the right endpoint, z' > 0
    slopes = []
    for r in henon_crossings:
        traj = ivp_integrate(r.beta, henon_params, x_max=0.0)
        slopes.append(abs(traj.du(0.0)))
    even = henon_crossings[int(np.argmin(slopes))]
    assert even.morse_index == 2
    assert even.w_end_sign == "positive"
    assert even.z_prime > 0.0
    assert not even.degenerate


def test_z_prime_signs_alternate(henon_crossings):
    signs = [np.sign(r.z_prime) for r in henon_crossings]
    for a, b in zip(signs[:-1], signs[1:]):
        assert a * b < 0.0


def test_crossings_nondegenerate(henon_crossings):
    for r in henon_crossings:
        assert r.w_end_sign != "zero-ish"
        assert abs(r.z_prime) >= 1e-6


def test_variational_verdicts_consistent(henon_params, henon_crossings):
    # |w(z)| and |z'| give the same (non)degeneracy verdict
    for r in henon_crossings:
        res = variational_solve(r.beta, henon_params)
        wscale = np.max(np.abs(res.trajectory.w(res.trajectory.step_points())))
        assert (abs(res.w_at_z) > 1e-6 * wscale) == (abs(r.z_prime) > 1e-6)
        assert res.zero_count == r.morse_index


def test_morse_count_stable_under_tol_tightening(henon_params, henon_crossings):
    r = henon_crossings[1]
    loose = variational_solve(r.beta, henon_params, rtol=1e-10, atol=1e-12)
    tight = variational_solve(r.beta, henon_params, rtol=1e-12, atol=1e-14)
    assert loose.zero_count == tight.zero_count
    z_loose = first_zero(r.beta, henon_params, rtol=1e-10, atol=1e-12)
    z_tight = first_zero(r.beta, henon_params, rtol=1e-12, atol=1e-14)
    assert abs(z_loose - z_tight) < 1e-7


def test_weight_offset_formula():
    assert weight_offset(1.0) == 0.0
    assert weight_offset(1.1) == pytest.approx(0.1 / (2.0 * 2.1), rel=1e-12)
    with pytest.raises(ValueError):
        weight_offset(-1.0)


def test_rescale_picks_substitution_exponent(henon_params, henon_crossings):
    mesh = make_mesh(200, "uniform")
    unit = rescale_to_unit(henon_crossings[0], 1.0, henon_params, mesh)
    # direct substitution forces (l+2)/(p-1); the alternative fails loudly
    assert unit.scale_exponent_used == pytest.approx(6.0)
    assert unit.delta == 0.0
    assert unit.profile.values[0] == 0.0 and unit.profile.values[-1] == 0.0
    assert np.all(unit.profile.values[1:-1] > 0.0)


def test_rescale_residual_below_tolerance(henon_params, henon_crossings):
    # recompute the acceptance residual on the default check mesh
    mesh = make_mesh(3072, "uniform")
    unit = rescale_to_unit(henon_crossings[1], 1.0, henon_params, mesh)
    weight = WeightFamily.power_offset(4.0, 0.5)
    A = assemble(mesh, 2.0, weight)
    v = unit.profile.values
    rel = (np.max(np.abs(v - A.matrix @ np.abs(v) ** 2.0))
           / max(1.0, np.max(np.abs(v))))
    assert rel <= 1e-6


def test_rescaled_solutions_feed_newton(henon_params, henon_crossings):
    # cross-module agreement: Newton at alpha = 2 polishes each rescaled
    # profile in a few steps without leaving a (relative) 1e-4 neighborhood,
    # and the matrix nondegeneracy verdict matches the shooting one (w(z))
    from fracbvp.superlinear import nondegeneracy
    mesh = make_mesh(400, "uniform")
    weight = WeightFamily.power_offset(4.0, 0.5)
    f = NonlinearityFamily.power(1.0, 2.0)
    A = assemble(mesh, 2.0, weight)
    for record in henon_crossings:
        unit = rescale_to_unit(record, 1.0, henon_params, mesh)
        report = newton_solve(A, f, unit.profile)
        assert report.converged
        assert report.iterations <= 5
        scale = max(1.0, np.max(np.abs(unit.profile.values)))
        drift = np.max(np.abs(report.solution.values - unit.profile.values))
        assert drift / scale <= 1e-4
        margin = nondegeneracy(A, f, report.solution)
        shooting_nondeg = record.w_end_sign != "zero-ish"
        assert (not margin.degenerate) == shooting_nondeg
