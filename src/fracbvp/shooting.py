"""Shooting pipeline for the classical Henon problem on (-1, zeta).

The initial value problem u'' + |x|^l |u|^(p-1) u = 0, u(-1) = 0,
u'(-1) = beta runs on one integrator, ``_lanes``: the Dormand-Prince 5(4)
pair with Shampine's quartic dense output and an adaptive step per lane,
for many betas at once as lanes of one NumPy pass.  A lane can carry the
variational solution w (the same equation linearized along u, with
w(-1) = 0, w'(-1) = 1) and keep its steps' dense coefficients as a
``Trajectory``.  The first zero z(beta) of u is found by bisecting the
quartic of the step over which u turns nonpositive.  The derivative of the
shooting map is z'(beta) = -w(z)/u'(z), the Morse index of the
boundary-value solution on (-1, z) equals the number of zeros of w inside
the interval, and the solution is nondegenerate exactly when w(z) is
nonzero.

``find_crossings`` shoots every beta of its log-spaced scan as a lane of
one pass of u alone.  ``polish_crossings`` then runs a safeguarded Newton
iteration in log beta inside every sign change of z(beta) - zeta the scan
brackets, one pass of variational lanes per round for all brackets; a
bracket's last shot is its ``ShootingRecord``.  Crossings of z(beta) = zeta
enumerate the positive solutions of the Dirichlet problem on (-1, zeta);
each one is rescaled from its record's trajectory to the unit interval,
where it solves v'' + |t - 1/2 + delta|^l v^p = 0 with
delta = (zeta-1)/(2(1+zeta)).
"""

from dataclasses import dataclass, field
from functools import partialmethod

import numpy as np

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
MAX_POLISH_SHOTS = 50      # shots per bracket of the Newton polish
# the scan peaks at about 72 doubles per beta (tracemalloc, 1e4 betas; the
# seven stages alone are 14), so 1e5 points, 50x the default, take 58 MB
MAX_SCAN_POINTS = 100_000
ZERO_SUBSAMPLES = 8         # samples of w per step when counting its zeros
TANGENCY_REFINE = 64        # and around a near-tangency
CHECK_MESH_N = 3072         # rescale check mesh: O(n^-2) residual, 2x margin

# Dormand & Prince (1980), first same as last: stage s is f at x + C[s] h,
# y + h A[s] K, and the last row of A is the fifth-order solution, so the
# last stage is f at the step's end.  h E K estimates the local error (fifth
# minus fourth order), and y(x + th) = y + h (K^T P)(t, t^2, t^3, t^4) is
# Shampine's (1986) quartic dense output.
_C = np.array([0.0, 1/5, 3/10, 4/5, 8/9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1/5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3/40, 9/40, 0.0, 0.0, 0.0, 0.0],
    [44/45, -56/15, 32/9, 0.0, 0.0, 0.0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0.0, 0.0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656, 0.0],
    [35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84]])
_E = np.array([-71/57600, 0.0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1.0, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0.0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0.0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0.0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0.0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# step controller: h *= 0.9 err^(-1/5), clipped to [0.2, 10]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, 0.2


def __getattr__(name):
    # no shot here calls solve_ivp; perfbench/spans.py looks
    # ``shooting.solve_ivp`` up by name in its traced runs, so the name
    # resolves, and imports scipy.integrate, on that lookup only
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    # the shot of u and w the record was read from, ending at z
    trajectory: "Trajectory" = field(repr=False, compare=False)

    @property
    def degenerate(self):
        return abs(self.z_prime) < ZPRIME_DEGENERATE


@dataclass(frozen=True)
class UnitSolution:
    profile: GridFunction
    scale_exponent_used: float


class Trajectory:
    """One lane's dense output, Shampine's quartic on each accepted step.

    Step k starts at ``t[k]`` in state ``y[:, k]`` (u, u' and, on a
    variational lane, w, w'), has length ``h[k]`` and dense coefficients
    ``q[:, :, k]``.  The trajectory ends at ``x_end``.
    """

    def __init__(self, t, h, y, q, x_end):
        self.t, self.h, self.y, self.q = t, h, y, q
        self.x_end = float(x_end)

    def _eval(self, i, x):
        x = np.clip(np.asarray(x, dtype=float), self.t[0], self.x_end)
        k = np.searchsorted(self.t, x, side="right") - 1
        return _quartic(self.y[i, k], self.h[k], self.q[:, i, k],
                        (x - self.t[k]) / self.h[k])

    u = partialmethod(_eval, 0)
    du = partialmethod(_eval, 1)
    w = partialmethod(_eval, 2)

    def step_points(self):
        return np.append(self.t, self.x_end)


def _quartic(y0, h, q, x):
    """Dense output y0 + h (q0 x + q1 x^2 + q2 x^3 + q3 x^4) at the step
    fraction x."""
    return y0 + h * x * (q[0] + x * (q[1] + x * (q[2] + x * q[3])))


def _bisect(fn, lo, hi):
    """The sign change of ``fn`` in each [lo, hi], halved down to adjacent
    floats: the first float at which fn has left the sign of fn(lo)."""
    side = fn(lo) > 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = (fn(mid) > 0.0) == side
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return hi


def _lanes(betas, params, x_max, variational=False, dense=False,
           to_zero=True, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """``(z, trajectories)``: one shot of u, and of w if ``variational``, per
    beta, all run as lanes of one NumPy Dormand-Prince pass.

    Each lane has its own step: the initial-step rule of Hairer, Norsett &
    Wanner (Sec. II.4), the RMS error norm of atol + rtol |y|, and a step
    factor capped at 1 right after a rejection.  A step ends at x = 0, where
    the weight |x|^l is continuous but not smooth, and the initial step is
    chosen again there, so the scheme keeps its order.  |u|^(p-1) u keeps
    negative excursions defined.  With ``to_zero`` a lane ends at the first
    downward zero z of u: the first step over which u goes from >= 0 to
    <= 0, bisected on its quartic; z is NaN where u has none before
    ``x_max``.  Otherwise every lane runs to ``x_max`` and z is all NaN.
    ``trajectories`` holds a ``Trajectory`` per lane if ``dense``, else it
    is None.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0.0) or x_max <= -1.0:
        raise ValueError("need slopes beta > 0 and x_max > -1")
    l, p = params.l, params.p
    d = 4 if variational else 2

    def rhs(na, y, out):
        # na = -|x|^l: (u', na |u|^(p-1) u) and (w', p na |u|^(p-1) w)
        up = np.abs(y[0]) ** (p - 1.0)
        out[0] = y[1]
        np.multiply(na * up, y[0], out=out[1])
        if variational:
            out[2] = y[3]
            np.multiply(p * na * up, y[2], out=out[3])
        return out

    def rms(v):
        return np.sqrt((v * v).sum(axis=0) / d)

    def initial_step(t, y, f, t_bound):
        span = t_bound - t
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1 = rhs(-np.abs(t + h0) ** l, y + h0 * f, np.empty_like(y))
        d2 = rms((f1 - f) / scale) / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        with np.errstate(divide="ignore"):
            h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                          (0.01 / np.maximum(d1, d2)) ** _ERR_EXP)
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    n = len(betas)
    lane = np.arange(n)
    t = np.full(n, -1.0)
    y = np.zeros((d, n))
    y[1] = betas
    if variational:
        y[3] = 1.0
    K = np.empty((len(_C), d, n))       # stages; K[0] is f at (t, y)
    rhs(-np.abs(t) ** l, y, K[0])
    t_bound = np.full(n, min(0.0, x_max))
    h_abs = initial_step(t, y, K[0], t_bound)
    rejected = np.zeros(n, dtype=bool)
    events, steps = [], []
    while lane.size:
        m = lane.size
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        if (h_abs < min_step).any():
            if (rejected & (h_abs < min_step)).any():
                raise IntegrationError(
                    f"step size fell below its minimum at beta="
                    f"{betas[lane[rejected & (h_abs < min_step)][0]]}")
            h_abs = np.maximum(h_abs, min_step)
        t_new = np.minimum(t + h_abs, t_bound)
        h = t_new - t
        na = -np.abs(t + _C[1:, None] * h) ** l
        stages = K.reshape(len(_C), -1)
        for s in range(1, len(_C)):
            y_new = y + h * np.dot(_A[s, :s], stages[:s]).reshape(d, m)
            rhs(na[s - 1], y_new, K[s])
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err = rms(np.dot(_E, stages).reshape(d, m) * h / scale)
        ok = err < 1.0
        with np.errstate(divide="ignore"):
            factor = _SAFETY * err ** -_ERR_EXP
        factor = np.minimum(np.maximum(factor, _MIN_FACTOR), _MAX_FACTOR)
        h_abs = h * np.where(ok & rejected, np.minimum(1.0, factor), factor)
        rejected = ~ok

        fired = ok & (y[0] >= 0.0) & (y_new[0] <= 0.0) & to_zero
        if dense or fired.any():
            Q = np.dot(_P.T, stages).reshape(4, d, m)
            if fired.any():
                events.append((lane[fired], t[fired], t_new[fired],
                               y[0, fired], Q[:, 0, fired]))
            if dense:
                steps.append((lane[ok], t[ok], h[ok], y[:, ok], Q[..., ok]))
        np.copyto(t, t_new, where=ok)
        np.copyto(y, y_new, where=ok)
        np.copyto(K[0], K[-1], where=ok)
        ended = ok & (t == t_bound) & ~fired
        if (ended | fired).any():
            leg = ended & (t_bound < x_max)     # go on past x = 0
            t_bound[leg] = x_max
            h_abs[leg] = initial_step(t[leg], y[:, leg], K[0][:, leg], x_max)
            keep = leg | ~(ended | fired)
            lane, t, y, f = lane[keep], t[keep], y[:, keep], K[0][:, keep]
            t_bound, h_abs, rejected = t_bound[keep], h_abs[keep], rejected[keep]
            K = np.empty((len(_C), d, lane.size))
            K[0] = f

    z = np.full(n, np.nan)
    if events:
        i, lo, hi, u0, q = (np.concatenate(e, axis=-1) for e in zip(*events))
        z[i] = _bisect(lambda x: _quartic(u0, hi - lo, q, (x - lo) / (hi - lo)),
                       lo, hi)
    if not dense:
        return z, None
    i, start, length, state, coef = (np.concatenate(s, axis=-1)
                                     for s in zip(*steps))
    x_end = np.where(np.isnan(z), x_max, z)
    return z, [Trajectory(start[i == k], length[i == k], state[:, i == k],
                          coef[..., i == k], x_end[k]) for k in range(n)]


def _shots(betas, params, x_max, enlarge=True, **options):
    """``(z, trajectories, horizon)`` of ``_lanes`` with z found for every
    beta: a lane whose u has no zero before ``x_max`` runs again with a 4x
    larger horizon, and ``HorizonError`` is raised past ``X_MAX_CAP`` (at
    once, unless ``enlarge``).  ``horizon`` is the largest one any lane
    needed."""
    betas = np.asarray(betas, dtype=float)
    z, trajs = _lanes(betas, params, x_max, **options)
    miss = np.isnan(z)
    while np.any(miss):
        if not enlarge or 4.0 * x_max > X_MAX_CAP:
            raise HorizonError(f"u(., beta={betas[miss][0]}) has no zero "
                               f"before x_max={x_max}")
        x_max *= 4.0
        z[miss], again = _lanes(betas[miss], params, x_max, **options)
        if trajs is not None:
            for k, traj in zip(np.flatnonzero(miss), again):
                trajs[k] = traj
        miss = np.isnan(z)
    return z, trajs, x_max


def ivp_integrate(beta, params, x_max, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """Dense trajectory of (u, u', w, w') up to ``x_max``, through any zero."""
    return _lanes([beta], params, x_max, variational=True, dense=True,
                  to_zero=False, rtol=rtol, atol=atol)[1][0]


def first_zero(beta, params, x_max=X_MAX_DEFAULT, rtol=RTOL_DEFAULT,
               atol=ATOL_DEFAULT):
    """Smallest zero z(beta) of u(., beta) in (-1, infinity), from a shot of
    u alone.  Raises ``HorizonError`` when no sign change occurs before
    ``x_max``; the caller is expected to enlarge the horizon.
    """
    return float(_shots([beta], params, x_max, enlarge=False, rtol=rtol,
                        atol=atol)[0][0])


def _count_zeros(traj):
    """Transversal zeros of w in the open interval (-1, z), z = x_end."""
    z = traj.x_end
    pts = traj.step_points()
    pts = pts[(pts > -1.0) & (pts < z)]
    xs = np.unique(np.linspace(np.append(-1.0, pts), np.append(pts, z),
                               ZERO_SUBSAMPLES + 1, axis=1))
    ws = traj.w(xs)
    scale = float(np.max(np.abs(ws))) or 1.0
    edge = 1e-9 * (1.0 + abs(z))

    w0, w1 = ws[:-1], ws[1:]
    cross = w0 * w1 < 0.0
    roots = list(_bisect(traj.w, xs[:-1][cross], xs[1:][cross]))
    # near-tangency: refine to catch a double crossing
    near = ~cross & (w0 != 0.0) & (w1 != 0.0) & (np.abs(w1) < 1e-7 * scale)
    for i in np.flatnonzero(near):
        fine = np.linspace(xs[i], xs[min(i + 2, len(xs) - 1)], TANGENCY_REFINE)
        wf = traj.w(fine)
        k = np.flatnonzero(wf[:-1] * wf[1:] < 0.0)
        for r in _bisect(traj.w, fine[k], fine[k + 1]):
            if all(abs(r - q) > 1e-9 for q in roots):
                roots.append(r)
    return sum(bool(-1.0 + edge < r < z - edge) for r in roots)


def _record(beta, traj):
    """The ``ShootingRecord`` of a variational shot ``traj`` that ends at
    the zero z of u: the Morse index, the sign of w(z) and
    z'(beta) = -w(z)/u'(z) (w is the beta derivative of u, so no finite
    differencing is involved)."""
    z = traj.x_end
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
                          morse_index=_count_zeros(traj),
                          w_end_sign=sign, z_prime=-w_end / up, trajectory=traj)


def crossing_record(beta, params, x_max=X_MAX_DEFAULT):
    """The ``ShootingRecord`` of slope ``beta``: z, the Morse index, the sign
    of w(z) and z'(beta), all from one shot of u and w."""
    trajs = _shots([beta], params, x_max, enlarge=False, variational=True,
                   dense=True)[1]
    return _record(beta, trajs[0])


def polish_crossings(brackets, zeta, params, x_max=X_MAX_DEFAULT):
    """The ``ShootingRecord`` of a root of g = z - zeta in each bracket
    (lo, g(lo), hi, g(hi)) of the scan, polished to |g| <= ``POLISH_TOL``.

    g changes sign over a bracket, or lo = hi where the scan hit g = 0.
    Newton's method in log beta, on dg/dlog(beta) = beta z'(beta) from the
    variational shot, kept in the bracket: each shot shrinks it, and a step
    that would leave it bisects it instead.  It starts at the secant root
    of the scan's end values, so no shot repeats the end of a bracket with
    lo < hi.  Each round shoots every open bracket as a lane of one pass,
    and a bracket's last shot is its record.  ``ConvergenceError`` after
    ``MAX_POLISH_SHOTS`` rounds.
    """
    lo, ga, hi, gc = np.array(brackets, dtype=float).reshape(-1, 4).T
    a, c = np.log(lo), np.log(hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = c - gc * (c - a) / (gc - ga)
    s = np.where((a < s) & (s < c), s, 0.5 * (a + c))
    records, last = [None] * len(s), np.zeros(len(s))
    todo, shots = list(range(len(s))), 0
    while todo:
        if shots == MAX_POLISH_SHOTS:
            i = todo[0]
            raise ConvergenceError(
                f"crossing bracket beta in [{lo[i]:.17g}, {hi[i]:.17g}] not "
                f"polished in {shots} shots: last |z(beta) - zeta| = "
                f"{abs(last[i]):.3e}, tolerance {POLISH_TOL:g}",
                iterations=shots, residual=abs(last[i]))
        shots += 1
        betas = np.exp(s[todo])
        z, trajs, x_max = _shots(betas, params, x_max, variational=True,
                                 dense=True)
        for i, beta, g, traj in zip(todo, betas, z - zeta, trajs):
            if abs(g) <= POLISH_TOL:
                records[i] = _record(beta, traj)
                continue
            last[i] = g
            if g * gc[i] > 0.0:
                c[i], gc[i] = s[i], g
            else:
                a[i], ga[i] = s[i], g
            with np.errstate(divide="ignore", invalid="ignore"):
                step = s[i] + g * traj.du(traj.x_end) / (beta * traj.w(traj.x_end))
            s[i] = step if a[i] < step < c[i] else 0.5 * (a[i] + c[i])
        todo = [i for i in todo if records[i] is None]
    return records


def find_crossings(zeta, params, beta_range=(1e-3, 1e3), scan_points=2000):
    """All transversal crossings of z(beta) = zeta over a log-spaced scan.

    The scan shoots every beta at once, as lanes of one pass of u alone.
    Every sign change of z(beta) - zeta in it is bracketed and polished by
    ``polish_crossings`` to |z(beta) - zeta| <= ``POLISH_TOL``; each
    polished root is returned as a full ``ShootingRecord``.  A bracket that
    does not polish raises ``ConvergenceError``.  Finding fewer crossings
    than expected is reported through the list length, not an exception.
    """
    _check_zeta(zeta)
    if not (0.0 < beta_range[0] < beta_range[1] < np.inf):
        raise HypothesisError(
            "shooting-range", "beta_range must be positive, finite and increasing")
    scan_points = int(scan_points)
    if not 2 <= scan_points <= MAX_SCAN_POINTS:
        # one point brackets nothing: the scan would report no crossing
        raise HypothesisError(
            "shooting-range", f"scan_points must lie in [2, {MAX_SCAN_POINTS}], "
            f"got {scan_points}")
    betas = np.geomspace(beta_range[0], beta_range[1], scan_points)
    zs, _, horizon = _shots(betas, params, X_MAX_DEFAULT)
    g = zs - zeta
    i = np.flatnonzero((g[:-1] == 0.0) | (g[:-1] * g[1:] < 0.0))
    j = np.where(g[i] == 0.0, i, i + 1)     # a scan point on the root
    return polish_crossings(np.column_stack((betas[i], g[i], betas[j], g[j])),
                            zeta, params, horizon)


def rescale_to_unit(record, zeta, params, mesh, residual_tol=1e-6):
    """Map a crossing solution on (-1, zeta) to the unit interval.

    The profile is v(t) = (1+zeta)^E u((1+zeta) t - 1) with
    E = (l+2)/(p-1), the exponent that direct substitution of the change of
    variables forces, and solves the problem ``unit_problem(zeta, params)``
    builds.  It is sampled from the record's trajectory, which ends at its
    zero z.  The profile lives on ``mesh`` with the weight kink inserted.
    It is accepted when the relative residual of the discrete integral
    equation on the uniform check mesh (kink inserted) is below
    ``residual_tol``; ``ScalingError`` surfaces the discrepancy otherwise.
    The check is at order 2, where the product-integration image is an O(n)
    prefix sum (``kernel.classical_image``), so no dense operator is built.
    """
    if abs(record.z - zeta) > 1e-6 * (1.0 + abs(zeta)):
        raise ValueError(
            f"record's zero z = {record.z} is not at the requested zeta = {zeta}")
    _, weight, f = unit_problem(zeta, params)
    stretch = 1.0 + zeta
    exponent = (params.l + 2.0) / (params.p - 1.0)
    scale = stretch ** exponent

    def sample(target_mesh):
        vals = scale * record.trajectory.u(stretch * target_mesh.nodes - 1.0)
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
