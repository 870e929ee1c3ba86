"""Shooting pipeline for the classical Henon problem on (-1, zeta).

The initial value problem u'' + |x|^l |u|^(p-1) u = 0, u(-1) = 0,
u'(-1) = beta is integrated with an adaptive embedded Runge-Kutta pair; the
first zero z(beta) of u is located by event detection, and the variational
solution w (same equation linearized along u, with w(-1) = 0, w'(-1) = 1)
is co-integrated.  The beta scan runs every beta as a lane of one NumPy
Dormand-Prince pass that reproduces the serial shot lane by lane; each
sign change of z(beta) - zeta it brackets is polished by a safeguarded
secant (Illinois regula falsi in log beta) on serial shots.  The
derivative of the shooting map is z'(beta) = -w(z)/u'(z), the Morse index
of the boundary-value solution on (-1, z) equals the number of zeros of w
inside the interval, and the solution is nondegenerate exactly when w(z)
is nonzero.

``crossing_record`` computes all of these from one co-integrated shot; it
is the one path to them, for ``find_crossings`` and for any other caller.
Crossings of z(beta) = zeta enumerate the positive solutions of the
Dirichlet problem on (-1, zeta); each one is rescaled to the unit interval
where it solves v'' + |t - 1/2 + delta|^l v^p = 0 with
delta = (zeta-1)/(2(1+zeta)).
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from .errors import (ConvergenceError, HorizonError, HypothesisError,
                     IntegrationError, ScalingError, TransversalityError)
from .grid import GridFunction, make_mesh
from .kernel import classical_image
from .operator import NonlinearityFamily, WeightFamily

RTOL_DEFAULT = 1e-10
ATOL_DEFAULT = 1e-12
X_MAX_DEFAULT = 100.0
X_MAX_CAP = 1e5
ZPRIME_DEGENERATE = 1e-6
WSIGN_REL_THRESHOLD = 1e-6
POLISH_TOL = 1e-9           # |z(beta) - zeta| of a polished crossing
MAX_POLISH_SHOTS = 50      # serial shots per bracket of the secant polish
ZERO_SUBSAMPLES = 8         # samples of w per step when counting its zeros
TANGENCY_REFINE = 64        # and around a near-tangency
CHECK_MESH_N = 3072         # rescale check mesh: O(n^-2) residual, 2x margin
# scipy's RK step controller, which the lane-wise scan reproduces
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class HenonParams:
    l: float
    p: float

    def __post_init__(self):
        if not (1.0 < self.l < np.inf and 1.0 < self.p < np.inf):
            raise HypothesisError(
                "multiplicity-parameter-condition",
                f"need finite l > 1 and p > 1, got l={self.l}, p={self.p}")


@dataclass(frozen=True)
class ShootingRecord:
    beta: float
    z: float
    morse_index: int
    w_end_sign: str         # "positive" | "negative" | "zero-ish"
    z_prime: float

    @property
    def degenerate(self):
        return abs(self.z_prime) < ZPRIME_DEGENERATE


@dataclass(frozen=True)
class UnitSolution:
    profile: GridFunction
    scale_exponent_used: float


class Trajectory:
    """Dense piecewise trajectory of (u, u') and optionally (w, w')."""

    def __init__(self, legs):
        self.legs = legs        # list of scipy OdeSolution objects
        self.x_start = legs[0].t_min
        self.x_end = legs[-1].t_max

    def _eval(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(np.clip(x, self.x_start, self.x_end))
        out = np.empty((len(self.legs[0](self.legs[0].t_min)), len(x)))
        for leg in self.legs:
            mask = (x >= leg.t_min) & (x <= leg.t_max)
            if np.any(mask):
                out[:, mask] = leg(x[mask])
        return out[:, 0] if scalar else out

    def u(self, x):
        return self._eval(x)[0]

    def du(self, x):
        return self._eval(x)[1]

    def w(self, x):
        return self._eval(x)[2]

    def step_points(self):
        return np.unique(np.concatenate([leg.ts for leg in self.legs]))


def _rhs(l, p, variational):
    if variational:
        def rhs(x, y):
            a = abs(x) ** l
            up = abs(y[0]) ** (p - 1.0)
            return (y[1], -a * up * y[0], y[3], -a * p * up * y[2])
    else:
        def rhs(x, y):
            a = abs(x) ** l
            return (y[1], -a * abs(y[0]) ** (p - 1.0) * y[0])
    return rhs


def _downward_zero(x, y):
    return y[0]


_downward_zero.terminal = True
_downward_zero.direction = -1.0


def _integrate(beta, params, x_max, variational, dense=True, stop_at_zero=True,
               rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """``(z, trajectory)`` of one shot, integrated in legs split at x = 0.

    The integrator is forced to place a step endpoint at x = 0, where the
    weight |x|^l is continuous but not smooth, so the scheme keeps its order.
    The nonlinearity uses |u|^(p-1) u, keeping negative excursions defined.
    With ``stop_at_zero`` the shot ends at the first downward zero z of u,
    where scipy's event locator puts it, and ``HorizonError`` is raised if u
    has none before ``x_max``; otherwise z is None.  The trajectory is None
    unless ``dense``: a shot read only for z keeps no interpolants.
    """
    if beta <= 0.0:
        raise ValueError("initial slope beta must be positive")
    if x_max <= -1.0:
        raise ValueError("x_max must exceed the left endpoint -1")
    rhs = _rhs(params.l, params.p, variational)
    y = [0.0, float(beta), 0.0, 1.0] if variational else [0.0, float(beta)]
    legs = []
    breakpoints = [x for x in (-1.0, 0.0) if x < x_max] + [float(x_max)]
    for x0, x1 in zip(breakpoints[:-1], breakpoints[1:]):
        sol = solve_ivp(rhs, (x0, x1), y, method="RK45", rtol=rtol, atol=atol,
                        dense_output=dense,
                        events=_downward_zero if stop_at_zero else None)
        if sol.status == -1:
            raise IntegrationError(
                f"integrator failed on [{x0}, {x1}]: {sol.message}")
        legs.append(sol.sol)
        if sol.status == 1:    # terminal event fired
            z = float(sol.t_events[0][0])
            return z, Trajectory(legs) if dense else None
        y = sol.y[:, -1]
    if stop_at_zero:
        raise HorizonError(f"u(., beta={beta}) has no zero before x_max={x_max}")
    return None, Trajectory(legs) if dense else None


def ivp_integrate(beta, params, x_max, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """Dense trajectory of (u, u', w, w') up to ``x_max``, through any zero."""
    return _integrate(beta, params, x_max, variational=True,
                      stop_at_zero=False, rtol=rtol, atol=atol)[1]


def first_zero(beta, params, x_max=X_MAX_DEFAULT, rtol=RTOL_DEFAULT,
               atol=ATOL_DEFAULT):
    """Smallest zero z(beta) of u(., beta) in (-1, infinity).

    This is the per-beta shot of the secant polish (the scan's lanes
    reproduce it to rounding), so it integrates u alone and keeps only the
    event root: no dense output, no ``Trajectory``.  The steps, and so the
    root, are those of the dense shot that ``rescale_to_unit`` samples.
    Raises ``HorizonError`` when no sign change occurs before ``x_max``; the
    caller is expected to enlarge the horizon.
    """
    return _integrate(beta, params, x_max, variational=False, dense=False,
                      rtol=rtol, atol=atol)[0]


def _count_zeros(traj, z):
    """Transversal zeros of w in the open interval (-1, z)."""
    pts = traj.step_points()
    pts = pts[(pts > -1.0) & (pts < z)]
    xs = np.unique(np.concatenate([
        np.linspace(a, b, ZERO_SUBSAMPLES + 1)
        for a, b in zip(np.concatenate([[-1.0], pts]),
                        np.concatenate([pts, [z]]))]))
    ws = traj.w(xs)
    scale = float(np.max(np.abs(ws))) or 1.0
    edge = 1e-9 * (1.0 + abs(z))

    roots = []
    for i in range(len(xs) - 1):
        w0, w1 = ws[i], ws[i + 1]
        if w0 == 0.0:
            continue        # counted from the interval to its left
        if w0 * w1 < 0.0:
            roots.append(brentq(traj.w, xs[i], xs[i + 1], xtol=1e-13))
        elif abs(w1) < 1e-7 * scale and w1 != 0.0:
            # near-tangency: refine to catch a double crossing
            fine = np.linspace(xs[i], xs[min(i + 2, len(xs) - 1)], TANGENCY_REFINE)
            wf = traj.w(fine)
            for k in range(len(fine) - 1):
                if wf[k] * wf[k + 1] < 0.0:
                    r = brentq(traj.w, fine[k], fine[k + 1], xtol=1e-13)
                    if not roots or abs(r - roots[-1]) > 1e-9:
                        roots.append(r)
    roots = [r for r in roots if -1.0 + edge < r < z - edge]
    return len(roots)


def _z_of_beta(beta, params, x_max):
    """z(beta) with automatic horizon enlargement."""
    while True:
        try:
            return first_zero(beta, params, x_max=x_max), x_max
        except HorizonError:
            x_max *= 4.0
            if x_max > X_MAX_CAP:
                raise


def _scan_zeros(betas, params, x_max):
    """``(z, horizon)``: z(beta) for every beta of the scan at once.

    A lane whose u has no zero before ``x_max`` runs again with a 4x larger
    horizon, as ``_z_of_beta`` does, and ``HorizonError`` is raised past
    ``X_MAX_CAP``.  ``horizon`` is the largest one any lane needed.
    """
    betas = np.asarray(betas, dtype=float)
    z = _lane_zeros(betas, params, x_max)
    miss = np.isnan(z)
    while np.any(miss):
        if 4.0 * x_max > X_MAX_CAP:
            raise HorizonError(f"u(., beta={betas[miss][0]}) has no zero "
                               f"before x_max={x_max}")
        x_max *= 4.0
        z[miss] = _lane_zeros(betas[miss], params, x_max)
        miss = np.isnan(z)
    return z, x_max


def _lane_zeros(betas, params, x_max):
    """First downward zero of u for every beta, NaN where none is < x_max.

    Each beta is one lane of a NumPy integration by the integrator of
    ``first_zero``: scipy's RK45 (Dormand & Prince 1980) with its tableau,
    RMS error norm, initial-step rule and step controller applied per lane,
    the same legs split at x = 0 (the initial step is chosen again at the
    start of the second), and the same event: u going from >= 0 to <= 0
    over a step, whose zero is then found on that step's quartic dense
    output.  So every lane gives ``first_zero(beta, params, x_max)`` up to
    rounding: NumPy's array power and the lane-wise stage sums round in
    their own way.
    """
    rtol, atol = RTOL_DEFAULT, ATOL_DEFAULT
    order = RK45.error_estimator_order + 1     # of the controlled error
    ode = _rhs(params.l, params.p, variational=False)

    def rhs(x, y):
        return np.asarray(ode(x, y))

    def rms(v):
        return np.sqrt(v[0] * v[0] + v[1] * v[1]) / np.sqrt(2.0)

    def initial_step(t, y, f, t_bound):
        # scipy.integrate._ivp.common.select_initial_step, lane-wise
        span = t_bound - t
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        d2 = rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        with np.errstate(divide="ignore"):
            h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                          (0.01 / np.maximum(d1, d2)) ** (1.0 / order))
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    n = len(betas)
    leg_end = min(0.0, x_max)
    lane = np.arange(n)
    t = np.full(n, -1.0)
    y = np.stack((np.zeros(n), betas))
    f = rhs(t, y)
    t_bound = np.full(n, leg_end)
    h_abs = initial_step(t, y, f, t_bound)
    rejected = np.zeros(n, dtype=bool)
    # the step each lane's zero lies in: start, end, u at start, u's dense
    # output coefficients (scipy's Q row)
    ev_t0, ev_t1, ev_u0 = np.full(n, np.nan), np.empty(n), np.empty(n)
    ev_q = np.empty((n, RK45.P.shape[1]))
    K = np.empty((RK45.n_stages + 1, 2, n))
    while lane.size:
        min_step = 10.0 * np.abs(np.nextafter(t, np.inf) - t)
        small = h_abs < min_step
        if np.any(small & rejected):
            raise IntegrationError(
                f"step size fell below its minimum at beta="
                f"{betas[lane[small & rejected][0]]}")
        h_abs = np.where(small, min_step, h_abs)
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        K[0] = f
        for s in range(1, RK45.n_stages):
            dy = np.tensordot(RK45.A[s, :s], K[:s], axes=1) * h
            K[s] = rhs(t + RK45.C[s] * h, y + dy)
        y_new = y + h * np.tensordot(RK45.B, K[:-1], axes=1)
        K[-1] = f_new = rhs(t + h, y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = rms(np.tensordot(RK45.E, K, axes=1) * h / scale)
        ok = err < 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * err ** (-1.0 / order)
        factor = np.where(ok, np.where(err == 0.0, _MAX_FACTOR,
                                       np.minimum(_MAX_FACTOR, factor)),
                          np.maximum(_MIN_FACTOR, factor))
        factor = np.where(ok & rejected, np.minimum(1.0, factor), factor)
        h_abs = h * factor
        rejected = ~ok

        fired = ok & (y[0] >= 0.0) & (y_new[0] <= 0.0)
        if np.any(fired):
            i = lane[fired]
            ev_t0[i], ev_t1[i], ev_u0[i] = t[fired], t_new[fired], y[0, fired]
            ev_q[i] = K[:, 0, fired].T @ RK45.P
        t = np.where(ok, t_new, t)
        y = np.where(ok, y_new, y)
        f = np.where(ok, f_new, f)
        ended = ok & ~fired & (t == t_bound)
        next_leg = ended & (t_bound < x_max)
        if np.any(next_leg):
            t_bound[next_leg] = x_max
            h_abs[next_leg] = initial_step(t[next_leg], y[:, next_leg],
                                           f[:, next_leg], x_max)
        done = fired | (ended & ~next_leg)
        if np.any(done):
            keep = ~done
            lane, t, y, f = lane[keep], t[keep], y[:, keep], f[:, keep]
            t_bound, h_abs = t_bound[keep], h_abs[keep]
            rejected = rejected[keep]
            K = np.empty((RK45.n_stages + 1, 2, lane.size))

    # bisect each lane's dense output for its zero, down to adjacent floats
    # (solve_ivp's brentq stops within 4 eps)
    z = np.full(n, np.nan)
    hit = ~np.isnan(ev_t0)
    t0, lo, hi, u0 = ev_t0[hit], ev_t0[hit], ev_t1[hit], ev_u0[hit]
    q, step = ev_q[hit].T, hi - lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        x = (mid - t0) / step
        u = u0 + step * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))
        above = u > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    z[hit] = hi
    return z


def _polish(bracket, zeta, params, x_max):
    """A beta inside the scan ``bracket`` (lo, g(lo), hi, g(hi)), where
    g = z - zeta changes sign, with |g(beta)| <= ``POLISH_TOL``.

    Illinois regula falsi in log beta: the secant root of the bracket,
    with the value kept at an end halved when that end survives twice in
    a row.  It starts from the scan's end values, so no shot repeats a
    bracket end.  ``ConvergenceError`` after ``MAX_POLISH_SHOTS`` shots.
    """
    lo, g_lo, hi, g_hi = bracket
    a, ga, c, gc = np.log(lo), g_lo, np.log(hi), g_hi
    side = 0
    for _ in range(MAX_POLISH_SHOTS):
        s = c - gc * (c - a) / (gc - ga)
        if not a < s < c:
            s = 0.5 * (a + c)
        beta = float(np.exp(s))
        g = _z_of_beta(beta, params, x_max)[0] - zeta
        if abs(g) <= POLISH_TOL:
            return beta
        if g * gc > 0.0:
            c, gc = s, g
            if side == -1:
                ga *= 0.5
            side = -1
        else:
            a, ga = s, g
            if side == 1:
                gc *= 0.5
            side = 1
    raise ConvergenceError(
        f"crossing bracket beta in [{lo:.17g}, {hi:.17g}] not polished in "
        f"{MAX_POLISH_SHOTS} shots: last |z(beta) - zeta| = {abs(g):.3e}, "
        f"tolerance {POLISH_TOL:g}",
        iterations=MAX_POLISH_SHOTS, residual=abs(g))


def crossing_record(beta, params, x_max=X_MAX_DEFAULT):
    """The ``ShootingRecord`` of slope ``beta``: z, the Morse index, the sign
    of w(z) and z'(beta) = -w(z)/u'(z), all from one shot of u and w (w is
    the beta derivative of u, so no finite differencing is involved)."""
    z, traj = _integrate(beta, params, x_max, variational=True)
    w_end = float(traj.w(z))
    wscale = float(np.max(np.abs(traj.w(traj.step_points())))) or 1.0
    if abs(w_end) <= WSIGN_REL_THRESHOLD * wscale:
        sign = "zero-ish"
    elif w_end > 0.0:
        sign = "positive"
    else:
        sign = "negative"
    up = float(traj.du(z))      # away from zero at a transversal zero
    if abs(up) < 1e-10:
        raise TransversalityError(
            f"|u'(z)| = {abs(up):.3e} at beta = {beta}; zero is not transversal")
    return ShootingRecord(beta=float(beta), z=z,
                          morse_index=_count_zeros(traj, z),
                          w_end_sign=sign, z_prime=-w_end / up)


def find_crossings(zeta, params, beta_range=(1e-3, 1e3), scan_points=2000):
    """All transversal crossings of z(beta) = zeta over a log-spaced scan.

    The scan integrates every beta at once, as lanes of one Dormand-Prince
    pass (``_scan_zeros``).  Every sign change of z(beta) - zeta in it is
    bracketed and polished by a safeguarded secant (``_polish``) to
    |z(beta) - zeta| <= ``POLISH_TOL``; each polished root is returned as a
    full ``ShootingRecord``.  A bracket that does not polish raises
    ``ConvergenceError``.  Finding fewer crossings than expected is reported
    through the list length, not an exception.
    """
    _check_zeta(zeta)
    if not (0.0 < beta_range[0] < beta_range[1] < np.inf):
        raise HypothesisError(
            "shooting-range", "beta_range must be positive, finite and increasing")
    scan_points = int(scan_points)
    if scan_points < 2:
        # one point brackets nothing: the scan would report no crossing
        raise HypothesisError(
            "shooting-range", f"scan_points must be at least 2, got {scan_points}")
    betas = np.geomspace(beta_range[0], beta_range[1], scan_points)
    zs, horizon = _scan_zeros(betas, params, X_MAX_DEFAULT)
    gvals = zs - zeta

    records = []
    for i in range(len(betas) - 1):
        g0, g1 = gvals[i], gvals[i + 1]
        if g0 == 0.0:
            b_hat = betas[i]
        elif g0 * g1 < 0.0:
            b_hat = _polish((betas[i], g0, betas[i + 1], g1), zeta, params,
                            horizon)
        else:
            continue
        records.append(crossing_record(b_hat, params, horizon))
    return records


def rescale_to_unit(record, zeta, params, mesh, residual_tol=1e-6):
    """Map a crossing solution on (-1, zeta) to the unit interval.

    The profile is v(t) = (1+zeta)^E u((1+zeta) t - 1) with
    E = (l+2)/(p-1), the exponent that direct substitution of the change of
    variables forces, and solves the problem ``unit_problem(zeta, params)``
    builds.  It is sampled from one dense shot of u alone, which ends at the
    zero that ``first_zero`` returns.  The profile lives on ``mesh`` with the
    weight kink inserted.  It is accepted when the relative residual of the
    discrete integral equation on the uniform check mesh (kink inserted) is
    below ``residual_tol``; ``ScalingError`` surfaces the discrepancy otherwise.
    The check is at order 2, where the product-integration image is an O(n)
    prefix sum (``kernel.classical_image``), so no dense operator is built.
    """
    z, traj = _integrate(record.beta, params, X_MAX_DEFAULT, variational=False)
    if abs(z - zeta) > 1e-6 * (1.0 + abs(zeta)):
        raise ValueError(
            f"record's zero z = {z} is not at the requested zeta = {zeta}")
    _, weight, f = unit_problem(zeta, params)
    stretch = 1.0 + zeta
    exponent = (params.l + 2.0) / (params.p - 1.0)
    scale = stretch ** exponent

    def sample(target_mesh):
        x = np.clip(stretch * target_mesh.nodes - 1.0, -1.0, traj.x_end)
        vals = scale * traj.u(x)
        vals[0] = 0.0
        vals[-1] = 0.0
        return vals

    check_mesh = make_mesh(CHECK_MESH_N, "uniform").with_kinks(weight)
    v = sample(check_mesh)
    image = classical_image(check_mesh.nodes,
                            weight(check_mesh.nodes) * f.f(np.abs(v)))
    rel = float(np.max(np.abs(v - image)) / max(1.0, np.max(np.abs(v))))
    if rel > residual_tol:
        raise ScalingError(
            f"scale exponent {exponent:g} does not reproduce the unit-interval "
            f"equation within {residual_tol:g}: residual {rel:g}",
            exponent=exponent, residual=rel)
    profile_mesh = mesh.with_kinks(weight)
    return UnitSolution(profile=GridFunction(profile_mesh, sample(profile_mesh)),
                        scale_exponent_used=exponent)


def unit_problem(zeta, params):
    """(delta, weight, f) of v'' + |t - 1/2 + delta|^l v^p = 0 on (0, 1)."""
    delta = weight_offset(zeta)
    return (delta, WeightFamily.power_offset(params.l, 0.5 - delta),
            NonlinearityFamily.power(1.0, params.p))


def weight_offset(zeta):
    """Offset delta = (zeta-1)/(2(1+zeta)) of the rescaled weight."""
    _check_zeta(zeta)
    return (zeta - 1.0) / (2.0 * (1.0 + zeta))


def _check_zeta(zeta):
    if not -1.0 < zeta < np.inf:
        raise HypothesisError(
            "shooting-range", f"zeta must be finite and exceed -1, got {zeta!r}")
