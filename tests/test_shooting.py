import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fracbvp import shooting
from fracbvp.errors import (HorizonError, HypothesisError, IntegrationError,
                            ScalingError)
from fracbvp.grid import make_mesh, production_mesh
from fracbvp.kernel import classical_image
from fracbvp.operator import NonlinearityFamily, WeightFamily, assemble
from fracbvp.shooting import (HenonParams, ShootingRecord, continue_crossings,
                              find_crossings, rescale_to_unit, unit_problem)
from fracbvp.superlinear import continue_alpha, newton_solve

from helpers import first_zero

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


def _serial_zero(beta, params, x_max=shooting.X_MAX):
    """z(beta) from scipy's serial DOP853 shot of u alone, an oracle for the
    lanes: the same tableau, error norm, controller and tolerances, legs
    split at x = 0, and scipy's event locator on the downward zero of u."""
    def rhs(x, y):
        return (y[1], -abs(x) ** params.l * abs(y[0]) ** (params.p - 1.0) * y[0])

    def zero(x, y):
        return y[0]

    zero.terminal, zero.direction = True, -1.0
    y = [0.0, float(beta)]
    legs = [x for x in (-1.0, 0.0) if x < x_max] + [x_max]
    for x0, x1 in zip(legs[:-1], legs[1:]):
        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853",
                        rtol=shooting.LANE_RTOL, atol=shooting.LANE_ATOL,
                        events=zero)
        if sol.status == 1:
            return float(sol.t_events[0][0])
        y = sol.y[:, -1]
    raise HorizonError(f"no zero before {x_max}")


def _shot(beta, params):
    """The dense shot of (u, u', w, w') from x = -1 to the first zero of u."""
    return shooting._lanes([beta], params, variational=True)[1][0]


def test_params_validation():
    with pytest.raises(HypothesisError):
        HenonParams(l=0.5, p=2.0)
    with pytest.raises(HypothesisError):
        HenonParams(l=4.0, p=1.0)


def test_trajectory_starts_upward(henon_params):
    traj = _shot(2.0, henon_params)
    x = np.linspace(-1.0, -0.9, 20)
    assert np.all(np.diff(traj.u(x)) > 0.0)
    assert traj.u(-1.0) == 0.0
    assert traj.du(-1.0) == pytest.approx(2.0)


def test_trajectory_concave_where_positive(henon_params):
    z = first_zero(1.0, henon_params)
    traj = _shot(1.0, henon_params)
    x = np.linspace(-0.999, z - 1e-3, 200)
    pos = traj.u(x) > 0.0
    du = traj.du(x)
    assert np.all(np.diff(du[pos]) <= 1e-12)


def test_tolerance_self_convergence(henon_params, monkeypatch):
    # halved tolerance changes the state at x = 0 by far less than 1e-8
    t1 = _shot(1.0, henon_params)
    monkeypatch.setattr(shooting, "LANE_RTOL", shooting.LANE_RTOL / 2.0)
    monkeypatch.setattr(shooting, "LANE_ATOL", shooting.LANE_ATOL / 2.0)
    t2 = _shot(1.0, henon_params)
    assert abs(t1.u(0.0) - t2.u(0.0)) < 1e-8


def test_trajectory_matches_scipy_dense_output(henon_params):
    # the lane's dense output for (u, u', w) against scipy's serial DOP853
    # shot with dense output, legs split at x = 0, up to the first zero z of
    # u, where the lane ends
    l, p = henon_params.l, henon_params.p

    def rhs(x, y):
        a, up = abs(x) ** l, abs(y[0]) ** (p - 1.0)
        return (y[1], -a * up * y[0], y[3], -a * p * up * y[2])

    traj = _shot(30.0, henon_params)
    z = traj.x_end
    assert 0.0 < z < 1.5
    y = [0.0, 30.0, 0.0, 1.0]
    for x0, x1 in ((-1.0, 0.0), (0.0, z)):
        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853", dense_output=True,
                        rtol=shooting.LANE_RTOL, atol=shooting.LANE_ATOL)
        x = np.linspace(x0, x1, 201)
        for want, got in zip(sol.sol(x), (traj.u, traj.du, traj.w)):
            assert np.max(np.abs(got(x) - want)) <= 1e-10 * np.max(np.abs(want))
        y = sol.y[:, -1]


def test_first_zero_transversal(henon_params):
    for beta in (0.5, 5.0, 50.0):
        z = first_zero(beta, henon_params)
        assert z > -1.0
        # the variational shot, on its own steps, ends at nearly the same zero
        traj = _shot(beta, henon_params)
        assert abs(traj.x_end - z) < 1e-9
        assert traj.du(traj.x_end) < 0.0
        assert abs(traj.u(traj.x_end)) < 1e-11


def test_first_zero_is_the_dense_shot_zero(henon_params):
    # the variational shot's trajectory ends at its lane's zero.  Where u is
    # negative there, bisecting the dense output for its root gives that
    # float back, so no polish after the step's bisection is needed.
    below = 0
    for beta in np.geomspace(1e-3, 1e3, 25):
        (z,), (traj,) = shooting._lanes([beta], henon_params,
                                        variational=True)
        assert z == traj.x_end
        lo = z - 1e-6 * (1.0 + abs(z))
        if traj.u(lo) > 0.0 > traj.u(z):
            below += 1
            assert brentq(traj.u, lo, z, xtol=1e-14) == z
    assert below >= 5


def test_first_zero_horizon_error(henon_params, monkeypatch):
    monkeypatch.setattr(shooting, "X_MAX", 0.2)
    with pytest.raises(HorizonError, match=r"beta=1\.0\b"):
        first_zero(1.0, henon_params)


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
        zp = shooting._record(beta, _shot(beta, henon_params)).z_prime
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
    z = shooting._lanes(betas, params)[0]
    ref = np.array([_serial_zero(b, params) for b in betas])
    assert np.all(np.abs(z - ref) <= 1e-12 * (1.0 + np.abs(ref)))
    assert np.array_equal(np.sign(z - 1.0), np.sign(ref - 1.0))


def test_scan_finds_far_zeros_in_one_pass():
    # at l = 2, p = 3 the zeros of slopes below 1e-5 lie beyond x = 100;
    # one pass of lanes finds them beside the near ones, and each matches
    # the serial shot at the same horizon
    params = HenonParams(l=2.0, p=3.0)
    betas = np.geomspace(1e-7, 50.0, 40)
    z = shooting._lanes(betas, params)[0]
    ref = np.array([_serial_zero(b, params) for b in betas])
    assert np.count_nonzero(ref > 100.0) >= 8 and np.any(ref < 1.0)
    assert np.all(np.abs(z - ref) <= 1e-12 * (1.0 + np.abs(ref)))


@pytest.mark.parametrize("beta_range, points",
                         [((1e-3, 1e3), 200), ((1e-4, 1e4), 2000)])
def test_overflowing_trial_steps_warn_nothing(beta_range, points):
    # at l = 8, p = 20 the trial stages of steep lanes overflow; those steps
    # are rejected through their non-finite error norm, and their dense
    # coefficients are never read, without a warning
    params = HenonParams(l=8.0, p=20.0)
    plain = find_crossings(1.0, params, beta_range, points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = find_crossings(1.0, params, beta_range, points)
    assert len(plain) == 3
    assert [(r.beta, r.morse_index) for r in strict] == [
        (r.beta, r.morse_index) for r in plain]


def test_scan_memory_per_beta_stays_under_its_bound():
    # the MAX_SCAN_POINTS comment bounds the scan's peak by 90 doubles per
    # beta, so its 1e5-point cap holds 72 MB; measured on 1e4 lanes
    betas = np.geomspace(1e-3, 1e3, 10_000)
    tracemalloc.start()
    try:
        shooting._lanes(betas, HenonParams(l=4.0, p=2.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * 8 * betas.size


def test_scan_horizon_cap(henon_params, monkeypatch):
    # below the horizon no slope of the scan has its zero: the error names
    # the first one
    monkeypatch.setattr(shooting, "X_MAX", 1.0)
    with pytest.raises(HorizonError, match=r"beta=0\.001\b"):
        find_crossings(1.0, henon_params, beta_range=(1e-3, 1.0),
                       scan_points=5)


def _logged_passes(monkeypatch):
    """(variational, betas) of every pass of ``shooting._lanes`` from now."""
    passes = []
    lanes = shooting._lanes

    def logged(betas, *args, **kwargs):
        passes.append((kwargs.get("variational", False), np.array(betas)))
        return lanes(betas, *args, **kwargs)

    monkeypatch.setattr(shooting, "_lanes", logged)
    return passes


def test_polish_takes_few_shots_inside_the_bracket(henon_params, monkeypatch):
    # a pass of lanes costs about the same for 3 lanes as for 200, so the
    # polish shoots many lanes in few passes: on the default 200-point scan,
    # one pass of u alone, then one zoom pass over each bracket with its ends
    # and one record round, strictly inside the brackets
    passes = _logged_passes(monkeypatch)
    records = find_crossings(1.0, henon_params, scan_points=200)
    scan = np.geomspace(1e-3, 1e3, 200)
    assert len(records) == 3
    assert [v for v, _ in passes].count(False) == 1 and not passes[0][0]
    variational = [b for v, b in passes if v]
    assert len(variational) <= 2
    k = np.searchsorted(scan, [r.beta for r in records])
    zoom = variational[0].reshape(len(records), -1)
    assert np.array_equal(zoom[:, 0], scan[k - 1])
    assert np.array_equal(zoom[:, -1], scan[k])
    assert np.all(np.diff(zoom, axis=1) > 0.0)
    for betas in variational[1:]:
        assert set(np.searchsorted(scan, betas)) <= set(k)
        assert not np.isin(betas, scan).any()


def test_polish_falls_back_to_its_record_rounds(henon_params, monkeypatch):
    # a zoom pass of the bracket ends alone leaves the work to the record
    # rounds: the same crossings, in more passes
    ref = find_crossings(1.0, henon_params, scan_points=200)
    monkeypatch.setattr(shooting, "ZOOM_LANES", 2)
    passes = _logged_passes(monkeypatch)
    records = find_crossings(1.0, henon_params, scan_points=200)
    assert [v for v, _ in passes].count(True) >= 3
    assert [(r.morse_index, r.w_end_sign) for r in records] == [
        (r.morse_index, r.w_end_sign) for r in ref]
    for r, q in zip(records, ref):
        assert r.beta == pytest.approx(q.beta, rel=1e-7)
        assert abs(r.z - 1.0) <= shooting.POLISH_TOL


def test_zoom_lanes_read_the_records_z_prime(henon_params):
    # without trajectories a variational lane reads z and z' from the
    # dense output that bisected z: the record's floats
    for beta in (0.5, 20.0, 237.2):
        z, zp = shooting._lanes([beta], henon_params, variational=True,
                                trajectories=False)
        r = shooting._record(beta, _shot(beta, henon_params))
        assert (z[0], zp[0]) == (r.z, r.z_prime)


HERMITE = settings(derandomize=True, database=None, max_examples=200,
                   deadline=None)
ends = st.floats(min_value=-50.0, max_value=50.0)
widths = st.floats(min_value=1e-6, max_value=10.0)


@HERMITE
@given(a=ends, h=widths, frac=st.floats(0.01, 0.99),
       k=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
       b=st.floats(0.0, 5.0), e=st.floats(-1.0, 1.0))
def test_hermite_root_is_exact_on_a_cubic(a, h, frac, k, b, e):
    # g = k h (x + e x^2 + b x^3), x = (s - r)/h, is its own Hermite
    # interpolant: a cubic with one root r, kept monotone on the bracket by
    # e^2 <= 1.5 b, so the root is found to rounding
    c = a + h
    r = a + frac * h
    e *= np.sqrt(1.5 * b)

    def g(s):
        x = (s - r) / h
        return k * h * (x + e * x * x + b * x ** 3)

    def dg(s):
        x = (s - r) / h
        return k * (1.0 + 2.0 * e * x + 3.0 * b * x * x)

    root = shooting._hermite_root(*(np.array([v]) for v in (
        a, c, g(a), g(c), dg(a), dg(c))))[0]
    assert abs(root - r) <= 1e-12 * h + 4.0 * np.spacing(max(abs(a), abs(c)))


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                   max_value=1e300)


@HERMITE
@given(a=ends, h=widths, ga=finite, gc=finite, da=finite, dc=finite)
def test_hermite_root_lies_strictly_inside(a, h, ga, gc, da, dc):
    root = shooting._hermite_root(*(np.array([v]) for v in (
        a, a + h, ga, gc, da, dc)))[0]
    assert a < root < a + h


@HERMITE
@given(a=ends, h=widths, ga=finite, gc=finite, slope=finite,
       bad=st.sampled_from((np.nan, np.inf, -np.inf)), which=st.booleans())
def test_hermite_root_bisects_without_a_finite_slope(a, h, ga, gc, slope,
                                                    bad, which):
    da, dc = (bad, slope) if which else (slope, bad)
    root = shooting._hermite_root(*(np.array([v]) for v in (
        a, a + h, ga, gc, da, dc)))[0]
    assert root == 0.5 * (a + (a + h))


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
        slopes.append(abs(r.trajectory.du(0.0)))
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


def test_degeneracy_is_the_relative_test_on_w_end():
    # a record is degenerate when w(z) = 0 relative to max |w|, whatever
    # the size of z' (which scales with beta)
    def record(sign, z_prime):
        return shooting.ShootingRecord(beta=1.0, z=1.0, morse_index=1,
                                       w_end_sign=sign, z_prime=z_prime,
                                       trajectory=None)

    assert record("zero-ish", 1e-3).degenerate
    assert not record("positive", 1e-7).degenerate
    assert not record("negative", -1e-7).degenerate


def test_variational_verdicts_consistent():
    # over sweeps of shots, |w(z)| and |z'| give the same (non)degeneracy
    # verdict, and the sign changes of w sampled on a fine grid give the
    # Morse index the record reads from the Prufer angle; each sweep has a
    # shot of index 2 (at p = 20 only for beta near 1.4 and near 3, hence
    # the finer sweep of [1, 4]).  p = 7 and p = 20 turn the angle fastest
    # per step, by up to about pi
    betas = np.union1d(np.geomspace(1e-3, 1e3, 30), np.geomspace(1.0, 4.0, 20))
    for l, p in ((4.0, 2.0), (2.0, 3.0), (6.0, 3.0), (4.0, 7.0), (1.1, 20.0),
                 (8.0, 20.0)):
        trajs = shooting._lanes(betas, HenonParams(l=l, p=p),
                                variational=True)[1]
        indices = []
        for beta, traj in zip(betas, trajs):
            r = shooting._record(beta, traj)
            w_end = abs(traj.w(r.z))
            wscale = max(np.max(np.abs(traj.y[2])), w_end)
            assert (w_end > 1e-6 * wscale) == (abs(r.z_prime) > 1e-6)
            w = traj.w(np.linspace(-1.0, r.z, 20001)[1:-1])
            assert np.count_nonzero(w[:-1] * w[1:] < 0.0) == r.morse_index
            indices.append(r.morse_index)
        assert 2 in indices


def test_morse_count_stable_under_tol_tightening(henon_params, henon_crossings,
                                                 monkeypatch):
    r = henon_crossings[1]
    counts = [shooting._record(r.beta, _shot(r.beta, henon_params)).morse_index]
    z_loose = first_zero(r.beta, henon_params)
    monkeypatch.setattr(shooting, "LANE_RTOL", 1e-12)
    monkeypatch.setattr(shooting, "LANE_ATOL", 1e-14)
    counts.append(
        shooting._record(r.beta, _shot(r.beta, henon_params)).morse_index)
    z_tight = first_zero(r.beta, henon_params)
    assert counts[0] == counts[1] == r.morse_index
    assert abs(z_loose - z_tight) < 1e-7


def test_record_rejects_step_turning_prufer_angle_past_pi():
    # over one step the dense output turns theta = atan2(w, w') by 2.05 pi,
    # so its ends alone read a turn of 0.05 pi.  Its samples at 1/4 and 1/2
    # are 1.3 pi apart, a turn that unwrapping reads as -0.7 pi: the record
    # refuses the shot instead of reading the Morse index from it
    x = np.array([0.25, 0.5, 0.75, 1.0])
    theta = np.array([0.2, 1.5, 1.6, 2.05]) * np.pi
    # the dense output is linear in F: fit F[:4] of (w, w') to the angles
    basis = np.column_stack([shooting._dense(0.0, np.eye(7)[k], x)
                             for k in range(4)])
    F = np.zeros((7, 4, 1))
    F[:4, 2, 0] = np.linalg.solve(basis, np.sin(theta))
    F[:4, 3, 0] = np.linalg.solve(basis, np.cos(theta) - 1.0)
    traj = shooting.Trajectory(t=np.array([-1.0]), h=np.array([2.0]),
                               y=np.array([[0.0], [1.0], [0.0], [1.0]]), F=F,
                               x_end=1.0)
    ends = np.arctan2(traj.w([-1.0, 1.0]), traj.dw([-1.0, 1.0]))
    assert np.diff(ends)[0] == pytest.approx(0.05 * np.pi)
    with pytest.raises(IntegrationError, match="beta = 2.0"):
        shooting._record(2.0, traj)


def test_weight_offset_formula(henon_params):
    assert unit_problem(1.0, henon_params)[0] == 0.0
    assert unit_problem(1.1, henon_params)[0] == pytest.approx(
        0.1 / (2.0 * 2.1), rel=1e-12)
    with pytest.raises(ValueError):
        unit_problem(-1.0, henon_params)


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
                                                  henon_crossings,
                                                  monkeypatch):
    # the verdict's failure path on a real crossing: the discretization
    # residual of the true profile (O(n^-2), under 1e-6) exceeds 1e-12
    monkeypatch.setattr(shooting, "RESCALE_RTOL", 1e-12)
    mesh = make_mesh(200, "uniform")
    with pytest.raises(ScalingError) as info:
        rescale_to_unit(henon_crossings[0], 1.0, henon_params, mesh)
    assert info.value.exponent == 6.0
    assert 1e-12 < info.value.residual <= 1e-6


@pytest.mark.parametrize("zeta", (1.0, 1.1))
def test_check_image_matches_dense_operator(henon_params, zeta):
    # the O(n) alpha = 2 image against the assembled operator on the
    # default check mesh; at zeta = 1.1 the weight kink is not a mesh node
    delta = unit_problem(zeta, henon_params)[0]
    weight = WeightFamily.power_offset(4.0, 0.5 - delta)
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
        assert report.positive
        assert report.iterations <= 5
        scale = max(1.0, np.max(np.abs(unit.profile.values)))
        drift = np.max(np.abs(report.solution.values - unit.profile.values))
        assert drift / scale <= 1e-4
        margin = nondegeneracy(A, f, report.solution)
        shooting_nondeg = record.w_end_sign != "zero-ish"
        assert (not margin.degenerate) == shooting_nondeg


@pytest.fixture(scope="module")
def small_continuation():
    # the CLI's henon-continue at --n 100 and 20 scan points, to order 1.99
    params = HenonParams(l=4.0, p=2.0)
    _, weight, f = unit_problem(1.0, params)
    records = find_crossings(1.0, params, scan_points=20)
    A2 = assemble(production_mesh(1.99, 100), 2.0, weight)
    return params, f, records, A2


def _step_bytes(step):
    return (step.alpha, step.residual, step.margin, step.newton_iterations,
            step.det_sign, step.solution.values.tobytes())


def test_continue_crossings_matches_the_hand_written_pipeline(
        small_continuation):
    params, f, records, A2 = small_continuation
    assert len(records) == 3 and not any(r.degenerate for r in records)
    branches, _ = continue_crossings(records, 1.0, params, A2, 1.99,
                                     initial_step=0.005, min_step=1e-5,
                                     tol=1e-10)
    assert [record for record, _, _ in branches] == records
    for record, unit, trace in branches:
        hand_unit = rescale_to_unit(record, 1.0, params, A2.mesh)
        start = newton_solve(A2, f, hand_unit.profile, tol=1e-10)
        hand = continue_alpha(start, A2, 1.99, f, initial_step=0.005,
                              min_step=1e-5, tol=1e-10)
        assert unit.scale_exponent_used == hand_unit.scale_exponent_used
        assert unit.profile.values.tobytes() == \
            hand_unit.profile.values.tobytes()
        assert (trace.status, trace.rejected_steps) == \
            (hand.status, hand.rejected_steps)
        assert [_step_bytes(s) for s in trace.steps] == \
            [_step_bytes(s) for s in hand.steps]


def test_continue_crossings_distances_are_symmetric(small_continuation):
    params, _, records, A2 = small_continuation
    branches, distances = continue_crossings(records, 1.0, params, A2, 1.99)
    ends = [trace.steps[-1].solution.values for _, _, trace in branches]
    d = np.array(distances)
    assert d.shape == (len(branches), len(branches))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert d[0, 1] == np.max(np.abs(ends[0] - ends[1])) > 0.0


def test_continue_crossings_skips_degenerate_records(small_continuation,
                                                     monkeypatch):
    # w(z) = 0: the record is skipped before its trajectory is read
    params, _, records, A2 = small_continuation
    rescaled = []

    def spy(record, *args):
        rescaled.append(record)
        return rescale_to_unit(record, *args)

    monkeypatch.setattr(shooting, "rescale_to_unit", spy)
    degenerate = ShootingRecord(beta=1.0, z=1.0, morse_index=1,
                                w_end_sign="zero-ish", z_prime=0.0,
                                trajectory=None)
    assert continue_crossings([degenerate], 1.0, params, A2, 1.99) == ([], [])
    branches, _ = continue_crossings([degenerate, records[0]], 1.0, params,
                                     A2, 1.99)
    assert rescaled == [records[0]]
    assert [record for record, _, _ in branches] == [records[0]]


def test_continue_crossings_of_no_records(small_continuation):
    params, _, _, A2 = small_continuation
    assert continue_crossings([], 1.0, params, A2, 1.99) == ([], [])
