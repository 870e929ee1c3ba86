import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fracbvp import shooting
from fracbvp.errors import HorizonError, HypothesisError, ScalingError
from fracbvp.grid import make_mesh
from fracbvp.kernel import classical_image
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble
from fracbvp.shooting import (HenonParams, crossing_record, find_crossings,
                              first_zero, ivp_integrate, rescale_to_unit,
                              unit_problem, weight_offset)
from fracbvp.superlinear import newton_solve

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench/workloads.py"


def _henon_continue_betas(seed, points=200):
    """The log-spaced scan of the benchmark's seed-``seed`` henon-continue
    job, at ``points`` points."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argv = workloads.henon_continue(seed)[0].argv
    lo = float(argv[argv.index("--beta-min") + 1])
    hi = float(argv[argv.index("--beta-max") + 1])
    return np.geomspace(lo, hi, points)


def _serial_zero(beta, params, x_max=shooting.X_MAX_DEFAULT):
    """z(beta) from scipy's serial RK45 shot of u alone, an oracle for the
    lanes: the same tableau, controller and tolerances, legs split at
    x = 0, and scipy's event locator on the downward zero of u."""
    def rhs(x, y):
        return (y[1], -abs(x) ** params.l * abs(y[0]) ** (params.p - 1.0) * y[0])

    def zero(x, y):
        return y[0]

    zero.terminal, zero.direction = True, -1.0
    y = [0.0, float(beta)]
    legs = [x for x in (-1.0, 0.0) if x < x_max] + [x_max]
    for x0, x1 in zip(legs[:-1], legs[1:]):
        sol = solve_ivp(rhs, (x0, x1), y, method="RK45",
                        rtol=shooting.RTOL_DEFAULT, atol=shooting.ATOL_DEFAULT,
                        events=zero)
        if sol.status == 1:
            return float(sol.t_events[0][0])
        y = sol.y[:, -1]
    raise HorizonError(f"no zero before {x_max}")


def test_params_validation():
    with pytest.raises(HypothesisError):
        HenonParams(l=0.5, p=2.0)
    with pytest.raises(HypothesisError):
        HenonParams(l=4.0, p=1.0)


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


def test_trajectory_matches_scipy_dense_output(henon_params):
    # the lane's quartics for (u, u', w) against scipy's serial RK45 shot
    # with dense output, legs split at x = 0, through the first zero of u
    l, p = henon_params.l, henon_params.p

    def rhs(x, y):
        a, up = abs(x) ** l, abs(y[0]) ** (p - 1.0)
        return (y[1], -a * up * y[0], y[3], -a * p * up * y[2])

    traj = ivp_integrate(30.0, henon_params, x_max=1.5)
    assert traj.x_end == 1.5 and traj.u(1.5) < 0.0
    y = [0.0, 30.0, 0.0, 1.0]
    for x0, x1 in ((-1.0, 0.0), (0.0, 1.5)):
        sol = solve_ivp(rhs, (x0, x1), y, method="RK45", dense_output=True,
                        rtol=shooting.RTOL_DEFAULT, atol=shooting.ATOL_DEFAULT)
        x = np.linspace(x0, x1, 201)
        for want, got in zip(sol.sol(x), (traj.u, traj.du, traj.w)):
            assert np.max(np.abs(got(x) - want)) <= 1e-10 * np.max(np.abs(want))
        y = sol.y[:, -1]


def test_first_zero_transversal(henon_params):
    for beta in (0.5, 5.0, 50.0):
        z = first_zero(beta, henon_params)
        assert z > -1.0
        # the variational shot, on its own steps, ends at nearly the same zero
        _, (traj,) = shooting._lanes([beta], henon_params,
                                     shooting.X_MAX_DEFAULT, variational=True,
                                     dense=True)
        assert abs(traj.x_end - z) < 1e-9
        assert traj.du(traj.x_end) < 0.0
        assert abs(traj.u(traj.x_end)) < 1e-11


def test_first_zero_is_the_dense_shot_zero(henon_params):
    # first_zero keeps only the zero; the dense shot of u ends at the same
    # float.  Where u is negative there, bisecting the dense output for its
    # root gives that float back, so no polish after the step's bisection
    # is needed.
    below = 0
    for beta in np.geomspace(1e-3, 1e3, 25):
        (z,), (traj,) = shooting._lanes([beta], henon_params,
                                        shooting.X_MAX_DEFAULT, dense=True)
        assert first_zero(beta, henon_params) == z == traj.x_end
        lo = z - 1e-6 * (1.0 + abs(z))
        if traj.u(lo) > 0.0 > traj.u(z):
            below += 1
            assert brentq(traj.u, lo, z, xtol=1e-14) == z
    assert below >= 5


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
        zp = crossing_record(beta, henon_params).z_prime
        h = 1e-5
        fd = (first_zero(beta + h, henon_params)
              - first_zero(beta - h, henon_params)) / (2.0 * h)
        assert zp == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("l, p", ((4.0, 2.0), (2.0, 3.0)))
def test_scan_lanes_match_first_zero(l, p, seed):
    # each lane of the vectorized scan is scipy's serial shot, up to the
    # order in which stage sums and powers round.  The error is taken
    # relative to 1 + |z|: z passes through 0 inside these ranges, where the
    # serial shots agree with each other only to a few ulps of 1
    params = HenonParams(l=l, p=p)
    betas = _henon_continue_betas(seed)
    z, _, horizon = shooting._shots(betas, params, shooting.X_MAX_DEFAULT)
    ref = np.array([_serial_zero(b, params) for b in betas])
    assert horizon == shooting.X_MAX_DEFAULT
    assert np.all(np.abs(z - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    assert np.array_equal(np.sign(z - 1.0), np.sign(ref - 1.0))


def test_scan_enlarges_the_horizon_per_lane(henon_params):
    # every zero lies beyond x_max = 0.5, so every lane runs again with a
    # larger horizon, and each matches the serial shot's 4x enlargement
    def serial(beta, x_max):
        while True:
            try:
                return _serial_zero(beta, henon_params, x_max), x_max
            except HorizonError:
                x_max *= 4.0

    betas = np.geomspace(1e-3, 50.0, 40)
    z, _, horizon = shooting._shots(betas, henon_params, 0.5)
    ref = [serial(b, 0.5) for b in betas]
    assert all(r[0] > 0.5 for r in ref)
    assert horizon == max(r[1] for r in ref) > 0.5
    ref_z = np.array([r[0] for r in ref])
    assert np.all(np.abs(z - ref_z) <= 1e-12 * (1.0 + np.abs(ref_z)))


def test_scan_horizon_cap(henon_params, monkeypatch):
    monkeypatch.setattr(shooting, "X_MAX_CAP", 1.0)
    with pytest.raises(HorizonError):
        shooting._shots(np.geomspace(1e-3, 1.0, 5), henon_params, 0.5)


def test_polish_takes_few_shots_inside_the_bracket(henon_params, monkeypatch):
    # the polish shoots variational lanes, the scan lanes of u alone; it
    # starts from the scan's values at the bracket ends, so it never shoots
    # at one
    shots = []
    lanes = shooting._lanes

    def counted(betas, *args, **kwargs):
        if kwargs.get("variational"):
            shots.extend(betas)
        return lanes(betas, *args, **kwargs)

    monkeypatch.setattr(shooting, "_lanes", counted)
    records = find_crossings(1.0, henon_params, scan_points=2000)
    betas = np.geomspace(1e-3, 1e3, 2000)
    bracket = np.searchsorted(betas, shots)
    counts = np.unique(bracket, return_counts=True)[1]
    assert len(records) == len(counts) == 3
    assert np.all(counts <= 10)
    assert not np.isin(shots, betas).any()


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
    # |w(z)| and |z'| give the same (non)degeneracy verdict, and the sign
    # changes of w sampled on a fine grid give the recorded Morse index
    for r in henon_crossings:
        z, traj = r.z, r.trajectory
        wscale = np.max(np.abs(traj.w(traj.step_points())))
        assert (abs(traj.w(z)) > 1e-6 * wscale) == (abs(r.z_prime) > 1e-6)
        w = traj.w(np.linspace(-1.0, z, 20001)[1:-1])
        assert np.count_nonzero(w[:-1] * w[1:] < 0.0) == r.morse_index


def test_morse_count_stable_under_tol_tightening(henon_params, henon_crossings):
    r = henon_crossings[1]
    counts = []
    for rtol, atol in ((1e-10, 1e-12), (1e-12, 1e-14)):
        _, (traj,) = shooting._lanes([r.beta], henon_params,
                                     shooting.X_MAX_DEFAULT, variational=True,
                                     dense=True, rtol=rtol, atol=atol)
        counts.append(shooting._count_zeros(traj))
    assert counts[0] == counts[1] == r.morse_index
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
    assert unit_problem(1.0, henon_params)[0] == 0.0
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


def test_rescale_rejects_residual_above_tolerance(henon_params,
                                                  henon_crossings):
    # the verdict's failure path on a real crossing: the discretization
    # residual of the true profile (O(n^-2), under 1e-6) exceeds 1e-12
    mesh = make_mesh(200, "uniform")
    with pytest.raises(ScalingError) as info:
        rescale_to_unit(henon_crossings[0], 1.0, henon_params, mesh,
                        residual_tol=1e-12)
    assert info.value.exponent == 6.0
    assert 1e-12 < info.value.residual <= 1e-6


@pytest.mark.parametrize("zeta", (1.0, 1.1))
def test_check_image_matches_dense_operator(zeta):
    # the O(n) alpha = 2 image against the assembled operator on the
    # default check mesh; at zeta = 1.1 the weight kink is not a mesh node
    weight = WeightFamily.power_offset(4.0, 0.5 - weight_offset(zeta))
    f = NonlinearityFamily.power(1.0, 2.0)
    A = assemble(make_mesh(3072, "uniform"), 2.0, weight)
    t = A.mesh.nodes
    v = 40.0 * np.sin(np.pi * t) * (1.0 + t ** 3)
    v[-1] = 0.0
    dense = A.nonlinear_image(f, v)
    fast = classical_image(t, weight(t) * f.f(np.abs(v)))
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


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
