"""Shooting pipeline for the classical Henon problem on (-1, zeta).

The initial value problem u'' + |x|^l |u|^(p-1) u = 0, u(-1) = 0,
u'(-1) = beta is integrated with an adaptive embedded Runge-Kutta pair; the
first zero z(beta) of u is located by event detection, and the variational
solution w (same equation linearized along u, with w(-1) = 0, w'(-1) = 1)
is co-integrated.  The derivative of the shooting map is
z'(beta) = -w(z)/u'(z), the Morse index of the boundary-value solution on
(-1, z) equals the number of zeros of w inside the interval, and the
solution is nondegenerate exactly when w(z) is nonzero.

Crossings of z(beta) = zeta enumerate the positive solutions of the
Dirichlet problem on (-1, zeta); each one is rescaled to the unit interval
where it solves v'' + |t - 1/2 + delta|^l v^p = 0 with
delta = (zeta-1)/(2(1+zeta)).
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (HorizonError, HypothesisError, IntegrationError,
                     ScalingError, TransversalityError)
from .grid import GridFunction, make_mesh
from .operator import NonlinearityFamily, WeightFamily, assemble

RTOL_DEFAULT = 1e-10
ATOL_DEFAULT = 1e-12
X_MAX_DEFAULT = 100.0
X_MAX_CAP = 1e5
ZPRIME_DEGENERATE = 1e-6
WSIGN_REL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class HenonParams:
    l: float
    p: float

    def __post_init__(self):
        if not (self.l > 1.0 and self.p > 1.0):
            raise HypothesisError(
                "multiplicity-parameter-condition",
                f"need l > 1 and p > 1, got l={self.l}, p={self.p}")

    def meets_multiplicity_condition(self):
        """(p-1)*l >= 4, the regime with three guaranteed solutions."""
        return (self.p - 1.0) * self.l >= 4.0


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
class VariationalResult:
    trajectory: "Trajectory"
    zero_count: int
    w_at_z: float


@dataclass(frozen=True)
class UnitSolution:
    profile: GridFunction
    delta: float
    scale_exponent_used: float


class Trajectory:
    """Dense piecewise trajectory of (u, u') and optionally (w, w')."""

    def __init__(self, legs, has_variational):
        self.legs = legs        # list of scipy OdeSolution objects
        self.has_variational = has_variational
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
        if not self.has_variational:
            raise ValueError("trajectory was integrated without the variational state")
        return self._eval(x)[2]

    def dw(self, x):
        if not self.has_variational:
            raise ValueError("trajectory was integrated without the variational state")
        return self._eval(x)[3]

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


def _integrate(beta, params, x_max, rtol, atol, variational, stop_at_zero):
    """Integrate in legs split at x = 0 (weight kink) with optional zero event."""
    rhs = _rhs(params.l, params.p, variational)
    y = [0.0, float(beta), 0.0, 1.0] if variational else [0.0, float(beta)]
    legs = []
    breakpoints = [x for x in (-1.0, 0.0, float(x_max)) if x <= x_max]
    if breakpoints[-1] != x_max:
        breakpoints.append(float(x_max))
    event = None
    if stop_at_zero:
        def event(x, yv):      # noqa: ANN001 - scipy event signature
            return yv[0]
        event.terminal = True
        event.direction = -1.0
    zero_x = None
    for x0, x1 in zip(breakpoints[:-1], breakpoints[1:]):
        if x0 >= x1:
            continue
        sol = solve_ivp(rhs, (x0, x1), y, method="RK45", rtol=rtol, atol=atol,
                        dense_output=True, events=event)
        if sol.status == -1:
            partial_legs = legs + ([sol.sol] if sol.sol is not None else [])
            raise IntegrationError(
                f"integrator failed on [{x0}, {x1}]: {sol.message}",
                partial=Trajectory(partial_legs, variational) if partial_legs else None)
        legs.append(sol.sol)
        if sol.status == 1:    # terminal event fired
            zero_x = float(sol.t_events[0][0])
            break
        y = sol.y[:, -1]
    return Trajectory(legs, variational), zero_x


def ivp_integrate(beta, params, x_max, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT,
                  include_variational=True):
    """Dense trajectory of the shooting problem up to ``x_max``.

    The integrator is forced to place a step endpoint at x = 0, where the
    weight |x|^l is continuous but not smooth, so the scheme keeps its order.
    The nonlinearity uses |u|^(p-1) u, keeping negative excursions defined.
    """
    if beta <= 0.0:
        raise ValueError("initial slope beta must be positive")
    if x_max <= -1.0:
        raise ValueError("x_max must exceed the left endpoint -1")
    traj, _ = _integrate(beta, params, x_max, rtol, atol,
                         include_variational, stop_at_zero=False)
    return traj


def _shoot_to_zero(beta, params, x_max, rtol, atol, variational):
    if beta <= 0.0:
        raise ValueError("initial slope beta must be positive")
    traj, zero_x = _integrate(beta, params, x_max, rtol, atol, variational,
                              stop_at_zero=True)
    if zero_x is None:
        raise HorizonError(
            f"u(., beta={beta}) has no zero before x_max={x_max}", x_max=x_max)
    # polish on the dense output; the event locator already lands at
    # |u| ~ eps, brentq only tightens a marginal bracket
    lo = max(traj.x_start, zero_x - 1e-6 * (1.0 + abs(zero_x)))
    if traj.u(lo) > 0.0 > traj.u(traj.x_end):
        zero_x = brentq(traj.u, lo, traj.x_end, xtol=1e-14)
    return float(zero_x), traj


def first_zero(beta, params, x_max=X_MAX_DEFAULT, rtol=RTOL_DEFAULT,
               atol=ATOL_DEFAULT):
    """Smallest zero of u(., beta) in (-1, infinity).

    Raises ``HorizonError`` when no sign change occurs before ``x_max``; the
    caller is expected to enlarge the horizon.
    """
    z, _ = _shoot_to_zero(beta, params, x_max, rtol, atol, variational=False)
    return z


def _count_zeros(traj, z, subsamples=8, refine=64):
    """Transversal zeros of w in the open interval (-1, z)."""
    pts = traj.step_points()
    pts = pts[(pts > -1.0) & (pts < z)]
    xs = np.unique(np.concatenate([
        np.linspace(a, b, subsamples + 1)
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
            fine = np.linspace(xs[i], xs[min(i + 2, len(xs) - 1)], refine)
            wf = traj.w(fine)
            for k in range(len(fine) - 1):
                if wf[k] * wf[k + 1] < 0.0:
                    r = brentq(traj.w, fine[k], fine[k + 1], xtol=1e-13)
                    if not roots or abs(r - roots[-1]) > 1e-9:
                        roots.append(r)
    roots = [r for r in roots if -1.0 + edge < r < z - edge]
    return len(roots)


def variational_solve(beta, params, z=None, x_max=X_MAX_DEFAULT,
                      rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """Co-integrate the variational equation and count its interior zeros.

    Returns the trajectory, the number of transversal zeros of w in
    (-1, z) (the Morse index of the boundary-value solution on (-1, z)),
    and w(z).  The solution is nondegenerate exactly when w(z) is away
    from zero relative to the scale of w.
    """
    z_found, traj = _shoot_to_zero(beta, params, x_max, rtol, atol,
                                   variational=True)
    if z is None:
        z = z_found
    z = min(float(z), traj.x_end)
    return VariationalResult(trajectory=traj,
                             zero_count=_count_zeros(traj, z),
                             w_at_z=float(traj.w(z)))


def z_prime(beta, params, x_max=X_MAX_DEFAULT, rtol=RTOL_DEFAULT,
            atol=ATOL_DEFAULT):
    """Derivative of the shooting map: z'(beta) = -w(z)/u'(z).

    The variational solution has the same initial data as the beta
    derivative of the trajectory, so no finite differencing is involved.
    """
    z, traj = _shoot_to_zero(beta, params, x_max, rtol, atol, variational=True)
    return -float(traj.w(z)) / _transversal_slope(traj, z, beta)


def _transversal_slope(traj, z, beta):
    """u'(z), which must be away from zero for z to be a transversal zero."""
    up = float(traj.du(z))
    if abs(up) < 1e-10:
        raise TransversalityError(
            f"|u'(z)| = {abs(up):.3e} at beta = {beta}; zero is not transversal")
    return up


def _z_of_beta(beta, params, x_max, rtol, atol):
    """z(beta) with automatic horizon enlargement."""
    while True:
        try:
            return first_zero(beta, params, x_max=x_max, rtol=rtol, atol=atol), x_max
        except HorizonError:
            x_max *= 4.0
            if x_max > X_MAX_CAP:
                raise


def _record_at(beta, params, x_max, rtol, atol):
    z, traj = _shoot_to_zero(beta, params, x_max, rtol, atol, variational=True)
    w_end = float(traj.w(z))
    wscale = float(np.max(np.abs(traj.w(traj.step_points())))) or 1.0
    if abs(w_end) <= WSIGN_REL_THRESHOLD * wscale:
        sign = "zero-ish"
    elif w_end > 0.0:
        sign = "positive"
    else:
        sign = "negative"
    up = _transversal_slope(traj, z, beta)
    return ShootingRecord(beta=float(beta), z=z,
                          morse_index=_count_zeros(traj, z),
                          w_end_sign=sign, z_prime=-w_end / up)


def find_crossings(zeta, params, beta_range=(1e-3, 1e3), scan_points=2000,
                   x_max=X_MAX_DEFAULT, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT,
                   polish_tol=1e-9, max_bisections=200):
    """All transversal crossings of z(beta) = zeta over a log-spaced scan.

    Every sign change of z(beta) - zeta in the scan is bracketed and
    polished by bisection to |z(beta) - zeta| <= ``polish_tol``; each
    polished root is returned as a full ``ShootingRecord``.  Finding fewer
    crossings than expected is reported through the list length, not an
    exception.
    """
    _check_zeta(zeta)
    if not (0.0 < beta_range[0] < beta_range[1] < np.inf):
        raise HypothesisError(
            "shooting-range", "beta_range must be positive, finite and increasing")
    betas = np.geomspace(beta_range[0], beta_range[1], int(scan_points))
    gvals = np.empty_like(betas)
    horizon = x_max
    for i, b in enumerate(betas):
        z, horizon = _z_of_beta(b, params, horizon, rtol, atol)
        gvals[i] = z - zeta

    records = []
    for i in range(len(betas) - 1):
        g0, g1 = gvals[i], gvals[i + 1]
        if g0 == 0.0:
            b_hat = betas[i]
        elif g0 * g1 < 0.0:
            lo, hi, g_lo = betas[i], betas[i + 1], g0
            b_hat, g_hat = lo, g_lo
            for _ in range(max_bisections):
                mid = 0.5 * (lo + hi)
                g_mid = _z_of_beta(mid, params, horizon, rtol, atol)[0] - zeta
                b_hat, g_hat = mid, g_mid
                if abs(g_mid) <= polish_tol:
                    break
                if g_lo * g_mid <= 0.0:
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
            if abs(g_hat) > polish_tol:
                continue    # bracket exhausted without meeting the tolerance
        else:
            continue
        records.append(_record_at(b_hat, params, horizon, rtol, atol))
    return records


def rescale_to_unit(record, zeta, params, mesh, residual_tol=1e-6,
                    x_max=X_MAX_DEFAULT, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT,
                    check_mesh=None):
    """Map a crossing solution on (-1, zeta) to the unit interval.

    The profile is v(t) = (1+zeta)^E u((1+zeta) t - 1) with
    E = (l+2)/(p-1), the exponent that direct substitution of the change of
    variables forces, and solves v'' + |t - 1/2 + delta|^l v^p = 0 with
    delta = ``weight_offset(zeta)``.  The profile lives on ``mesh`` with the
    weight kink inserted.  It is accepted when the relative residual of the
    discrete integral equation on ``check_mesh`` is below ``residual_tol``;
    ``ScalingError`` surfaces the discrepancy otherwise.
    """
    z, traj = _shoot_to_zero(record.beta, params, x_max, rtol, atol,
                             variational=False)
    if abs(z - zeta) > 1e-6 * (1.0 + abs(zeta)):
        raise ValueError(
            f"record's zero z = {z} is not at the requested zeta = {zeta}")
    delta = weight_offset(zeta)
    weight = WeightFamily.power_offset(params.l, 0.5 - delta)
    if check_mesh is None:
        # the verdict mesh must push the O(n^-2) discretization residual of
        # the true profile below residual_tol; n = 3072 leaves a 2x margin
        check_mesh = make_mesh(3072, "uniform")
    stretch = 1.0 + zeta
    exponent = (params.l + 2.0) / (params.p - 1.0)
    scale = stretch ** exponent

    def sample(target_mesh):
        x = np.clip(stretch * target_mesh.nodes - 1.0, -1.0, traj.x_end)
        vals = scale * traj.u(x)
        vals[0] = 0.0
        vals[-1] = 0.0
        return vals

    A = assemble(check_mesh, 2.0, weight)
    v = sample(A.mesh)
    image = A.nonlinear_image(NonlinearityFamily.power(1.0, params.p), v)
    rel = float(np.max(np.abs(v - image)) / max(1.0, np.max(np.abs(v))))
    if rel > residual_tol:
        raise ScalingError(
            f"scale exponent {exponent:g} does not reproduce the unit-interval "
            f"equation within {residual_tol:g}: residual {rel:g}",
            residuals={exponent: rel})
    profile_mesh = mesh.with_kinks(weight)
    return UnitSolution(profile=GridFunction(profile_mesh, sample(profile_mesh)),
                        delta=delta, scale_exponent_used=exponent)


def weight_offset(zeta):
    """Offset delta = (zeta-1)/(2(1+zeta)) of the rescaled weight."""
    _check_zeta(zeta)
    return (zeta - 1.0) / (2.0 * (1.0 + zeta))


def _check_zeta(zeta):
    if not -1.0 < zeta < np.inf:
        raise HypothesisError(
            "shooting-range", f"zeta must be finite and exceed -1, got {zeta!r}")
