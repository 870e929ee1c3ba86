"""Shooting pipeline for the classical Henon problem on (-1, zeta).

The initial value problem u'' + |x|^l |u|^(p-1) u = 0, u(-1) = 0,
u'(-1) = beta runs on one integrator, ``_lanes``: the DOP853 pair of
Dormand and Prince (order 8, error estimates of orders 5 and 3) with its
seventh-order dense output and an adaptive step per lane, for many betas at
once as lanes of one NumPy pass.  A pass costs about the same for a few
lanes as for hundreds, so shooting cost follows the number of passes and
their steps.  A variational lane also carries w (the same equation
linearized along u, with w(-1) = 0, w'(-1) = 1) and keeps its steps' dense
output as a ``Trajectory``, or, without trajectories, only z'(beta).  The
first zero z(beta) of u is found by bisecting the dense output of the step
over which u turns nonpositive; every shot has the horizon ``X_MAX``, and a
slope whose u has no zero before it raises ``HorizonError``.

A shot's verdicts are read from its own states: z'(beta) = -w(z)/u'(z),
the solution is nondegenerate exactly when w(z) is nonzero, and the Morse
index of the boundary-value solution on (-1, z) is the number of zeros of
w inside the interval.  w solves w'' + q w = 0 with q = p|x|^l|u|^(p-1) >= 0,
so w = w' = 0 at one point forces w = 0: every zero is simple (no tangency
occurs), and the Prufer angle theta = atan2(w, w') only grows, by pi from
one zero to the next, so the index is floor(theta(z)/pi), unwrapped over
samples of the dense output (``_record``).

``find_crossings`` shoots every beta of its log-spaced scan as a lane of
one pass of u alone.  ``polish_crossings`` then zooms into every sign
change of z(beta) - zeta the scan brackets with one pass of many
variational lanes without trajectories, and closes each from the cubic
Hermite root of the sub-bracket it finds, in record rounds of one pass of
variational lanes for all brackets; a bracket's last shot is its
``ShootingRecord``.  Crossings of z(beta) = zeta enumerate the positive
solutions of the Dirichlet problem on (-1, zeta); each one is rescaled from
its record's trajectory to the unit interval, where it solves
v'' + |t - 1/2 + delta|^l v^p = 0 with delta = (zeta-1)/(2(1+zeta)).
``continue_crossings`` continues every nondegenerate one from there in alpha.
"""

from dataclasses import dataclass, field
from functools import partial, partialmethod

import numpy as np

from .errors import (ConvergenceError, FracBVPError, HorizonError,
                     HypothesisError, IntegrationError, ScalingError,
                     TransversalityError)
from .grid import RTOL, GridFunction, make_mesh
from .kernel import classical_image
from .operator import NonlinearityFamily, WeightFamily
from .superlinear import continue_alpha, newton_solve

LANE_RTOL = 1e-10           # every lane's tolerances
LANE_ATOL = 1e-12
# the horizon of every shot; a lane stops at its zero, so a far horizon
# costs nothing (the farthest zero the benchmark's scans reach is 24.8)
X_MAX = 25600.0
WSIGN_REL_THRESHOLD = 1e-6
POLISH_TOL = 1e-9           # |z(beta) - zeta| of a polished crossing
MAX_POLISH_SHOTS = 50      # passes of the polish, its zoom pass the first
ZOOM_LANES = 24             # lanes per bracket of the zoom pass, ends included
# the scan peaks below 90 doubles per beta (tracemalloc: 81.2 at 1e4 betas;
# the thirteen stages alone are 26), so 1e5 points, 50x the default, take
# at most 72 MB
MAX_SCAN_POINTS = 100_000
CHECK_MESH_N = 3072         # rescale check mesh: O(n^-2) residual, 2x margin
RESCALE_RTOL = 1e-6         # its accepted relative residual


def _table(rows, width):
    """The array of ``rows``, each a dict of its nonzero entries by column."""
    out = np.zeros((len(rows), width))
    for r, row in enumerate(rows):
        out[r, list(row)] = list(row.values())
    return out


# Dormand & Prince's DOP853 (Hairer, Norsett & Wanner, Sec. II.10), with the
# floats of scipy.integrate's copy.  First same as last: stage s is f at
# x + C[s] h, y + h A[s] K, and row 12 of A is the eighth-order solution, so
# stage 12 is f at the step's end.  E K gives the fifth- and third-order
# error estimates, combined as in Hairer's code; E weighs stage 12 by 0, so
# an end stage that overflowed makes them NaN and rejects the step.  Stages
# 13-15 feed the seventh-order dense output only, whose coefficients D K
# follow three that come from the step's ends (``_lanes``).
_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516,
               0.1183503419072274, 0.2816496580927726, 0.3333333333333333,
               0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
               0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
_A = _table((
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932,
     11: 0.0003825710908356584, 12: -0.00034046500868740456,
     13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
), 16)
_E = _table((
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294},
    {0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.02265179219836082},
), 13)
_D = _table((
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
), 16)
# step controller: h *= 0.9 err^(-1/8), clipped to [0.2, 10]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXP = 0.9, 0.2, 10.0, 0.125
# the step fractions at which ``_record`` samples the Prufer angle
_SAMPLES = np.array([0.0, 0.25, 0.5, 0.75])


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
        """w(z) = 0 relative to max |w|: the solution on (-1, z) is
        degenerate."""
        return self.w_end_sign == "zero-ish"


@dataclass(frozen=True)
class UnitSolution:
    profile: GridFunction
    scale_exponent_used: float


class Trajectory:
    """One lane's dense output, the seventh-order DOP853 interpolant on each
    accepted step.

    Step k starts at ``t[k]`` in state ``y[:, k]`` (u, u', w, w'), has
    length ``h[k]`` and interpolant coefficients ``F[:, :, k]`` (``_dense``).
    The trajectory ends at the zero of u, ``x_end``.
    """

    def __init__(self, t, h, y, F, x_end):
        self.t, self.h, self.y, self.F = t, h, y, F
        self.x_end = float(x_end)

    def _eval(self, i, x):
        x = np.clip(np.asarray(x, dtype=float), self.t[0], self.x_end)
        k = np.searchsorted(self.t, x, side="right") - 1
        return _dense(self.y[i, k], self.F[:, i, k],
                      (x - self.t[k]) / self.h[k])

    u = partialmethod(_eval, 0)
    du = partialmethod(_eval, 1)
    w = partialmethod(_eval, 2)
    dw = partialmethod(_eval, 3)


def _dense(y0, F, x):
    """The dense output y0 + x (F0 + (1-x) (F1 + x (F2 + ... + x F6))) at
    the step fraction x, with factors x and 1 - x in turn."""
    r = 1.0 - x
    return y0 + x * (F[0] + r * (F[1] + x * (F[2] + r * (
        F[3] + x * (F[4] + r * (F[5] + x * F[6]))))))


def _bisect(fn, lo, hi):
    """The sign change of ``fn`` in each [lo, hi], halved down to adjacent
    floats: the first float at which fn has left the sign of fn(lo)."""
    side = fn(lo) > 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = (fn(mid) > 0.0) == side
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return hi


# no floating-point exception here needs a warning: a trial step that
# overflows has a non-finite err, so it is rejected with the smallest factor
# (fmax: NaN as well), and a division by zero gives an inf clipped or unused
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _lanes(betas, params, variational=False, trajectories=True):
    """``(z, trajectories)``: one shot of u, and of w if ``variational``, per
    beta, all run as lanes of one NumPy DOP853 pass.

    Each lane has its own step: the initial-step rule of Hairer, Norsett &
    Wanner (Sec. II.4), the error norm of their DOP853 code,
    |h| |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) d) on the error estimates
    scaled by ``LANE_ATOL`` + ``LANE_RTOL`` |y| (0 where both are 0), and a
    step factor capped at 1 right after a rejection.  A step ends at x = 0,
    where the weight |x|^l is continuous but not smooth, and the initial
    step is chosen again there, so the scheme keeps its order.
    |u|^(p-1) u keeps negative excursions defined.  A lane ends at the first
    downward zero z of u: the first step over which u goes from >= 0 to
    <= 0, bisected on its dense output, and ``HorizonError`` names the
    first beta whose u has none before ``X_MAX``.  The dense output takes
    three more stages, so it is built only on those zero steps and on the
    steps of kept trajectories.  A variational lane keeps its steps as a
    ``Trajectory`` that ends at its z; ``trajectories`` is None for lanes of
    u alone.  Without ``trajectories``, variational lanes keep no step and
    return z'(beta) = -w(z)/u'(z) in its place, read from the dense output
    that bisected z.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas <= 0.0):
        raise ValueError("need slopes beta > 0")
    l, p = params.l, params.p
    x_max, rtol, atol = X_MAX, LANE_RTOL, LANE_ATOL
    d = 4 if variational else 2
    dense_steps = variational and trajectories

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
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        f1 = rhs(-np.abs(t + h0) ** l, y + h0 * f, np.empty_like(y))
        d2 = rms((f1 - f) / scale) / h0
        flat = (d1 <= 1e-15) & (d2 <= 1e-15)
        h1 = np.where(flat, np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.maximum(d1, d2)) ** _ERR_EXP)
        return np.minimum(np.minimum(100.0 * h0, h1), span)

    def combine(c, K, alone=False):
        # c K over the first len(c) stages, in the layout of y; ``alone``
        # sums each lane in one product of its own, as a serial shot does
        s = len(c)
        if alone:
            return np.matmul(c, np.ascontiguousarray(
                K[:s].transpose(2, 0, 1))).T
        return np.dot(c, K[:s].reshape(s, -1)).reshape(K.shape[1:])

    def interpolant(t, h, y, y_new, K):
        # the dense output's F of steps (t, h) from y to y_new, stages K
        X = np.empty((len(_C),) + y.shape)
        X[:13] = K
        for s in range(13, len(_C)):
            rhs(-np.abs(t + _C[s] * h) ** l, y + h * combine(_A[s, :s], X),
                X[s])
        F = np.empty((7,) + y.shape)
        F[0] = y_new - y
        F[1] = h * X[0] - F[0]
        F[2] = 2.0 * F[0] - h * (X[12] + X[0])
        F[3:] = h * np.dot(_D, X.reshape(len(_C), -1)).reshape(F[3:].shape)
        return F

    n = len(betas)
    lane = np.arange(n)
    t = np.full(n, -1.0)
    y = np.zeros((d, n))
    y[1] = betas
    if variational:
        y[3] = 1.0
    K = np.empty((13, d, n))            # stages; K[0] is f at (t, y)
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
        na = -np.abs(t + _C[1:13, None] * h) ** l
        # from u = 0 the u part of a first step's error estimate is the
        # rounding of sums that cancel, and it picks the steps that follow:
        # there each lane sums on its own, as a serial shot does, so no
        # lane's steps hang on how the lanes beside it round
        alone = t.min() == -1.0
        for s in range(1, 13):
            y_new = y + h * combine(_A[s, :s], K, alone)
            rhs(na[s - 1], y_new, K[s])
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5, e3 = ((combine(e, K, alone) / scale) ** 2 for e in _E)
        e5, e3 = e5.sum(axis=0), e3.sum(axis=0)
        denom = e5 + 0.01 * e3
        err = np.where(denom == 0.0, 0.0, h * e5 / np.sqrt(denom * d))
        ok = err < 1.0
        factor = np.fmin(np.fmax(_SAFETY * err ** -_ERR_EXP, _MIN_FACTOR),
                         _MAX_FACTOR)
        h_abs = h * np.where(ok & rejected, np.minimum(1.0, factor), factor)
        rejected = ~ok

        fired = ok & (y[0] >= 0.0) & (y_new[0] <= 0.0)
        built = ok if dense_steps else fired
        if built.any():
            F = interpolant(t[built], h[built], y[:, built], y_new[:, built],
                            K[..., built])
            if fired.any():
                events.append((lane[fired], t[fired], t_new[fired],
                               y[:, fired], F[..., fired[built]]))
            if dense_steps:
                steps.append((lane[ok], t[ok], h[ok], y[:, ok], F))
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
            del K, na                   # before the next stage array
            K = np.empty((13, d, lane.size))
            K[0] = f

    z, zp = np.full(n, np.nan), np.full(n, np.nan)
    if events:
        i, lo, hi, y0, F = (np.concatenate(e, axis=-1) for e in zip(*events))

        def dense(k, x):
            return _dense(y0[k], F[:, k], (x - lo) / (hi - lo))

        z[i] = _bisect(partial(dense, 0), lo, hi)
        if variational and not trajectories:
            zp[i] = -dense(2, z[i]) / dense(1, z[i])
    if np.isnan(z).any():
        raise HorizonError(f"u(., beta={betas[np.isnan(z)][0]}) has no zero "
                           f"before x_max={x_max}")
    if not dense_steps:
        return z, (zp if variational else None)
    i, start, length, state, coef = (np.concatenate(s, axis=-1)
                                     for s in zip(*steps))
    return z, [Trajectory(start[i == k], length[i == k], state[:, i == k],
                          coef[..., i == k], z[k]) for k in range(n)]


def _record(beta, traj):
    """The ``ShootingRecord`` of a variational shot ``traj`` that ends at
    the zero z of u, read from its dense output.

    z'(beta) = -w(z)/u'(z), as w is the beta derivative of u.  The Prufer
    angle theta = atan2(w, w') is unwrapped over the step states, the dense
    output at 1/4, 1/2 and 3/4 of each step (those before z) and its value
    at z, so it must turn by less than pi from one sample to the next: a
    DOP853 step turns it by up to about pi where p is large, and a sum of
    turns mod 2 pi would add 2 pi where one rounds slightly negative (w'
    about 0 at x = 0 or where u is).  theta only grows, so an unwrapped turn
    below -1e-6 is one that exceeded pi, and ``IntegrationError`` is raised.
    """
    z = traj.x_end
    x = traj.t + _SAMPLES[:, None] * traj.h
    before = (x < z).ravel(order="F")
    w, dw = (np.append(_dense(traj.y[i], traj.F[:, i], _SAMPLES[:, None])
                       .ravel(order="F")[before], traj._eval(i, z))
             for i in (2, 3))
    theta = np.unwrap(np.arctan2(w, dw))
    if (np.diff(theta) < -1e-6).any():
        raise IntegrationError(f"the Prufer angle turned by more than pi "
                               f"between samples at beta = {beta}")
    w_end = float(w[-1])
    wscale = float(np.max(np.abs(w))) or 1.0
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
                          morse_index=int(np.floor(theta[-1] / np.pi)),
                          w_end_sign=sign, z_prime=-w_end / up, trajectory=traj)


@np.errstate(invalid="ignore", over="ignore")
def _hermite_root(a, c, ga, gc, da, dc):
    """The root in each (a, c) of the cubic Hermite interpolant of the values
    ``ga``, ``gc`` and slopes ``da``, ``dc`` at its ends, bisected to
    adjacent floats on the unit step fraction; the midpoint where a slope is
    not finite or the root does not lie strictly inside."""
    h = c - a
    ha, hc = h * da, h * dc
    c2, c3 = 3.0 * (gc - ga) - 2.0 * ha - hc, 2.0 * (ga - gc) + ha + hc
    r = a + h * _bisect(lambda x: ga + x * (ha + x * (c2 + x * c3)),
                        np.zeros_like(h), np.ones_like(h))
    inside = np.isfinite(da) & np.isfinite(dc) & (a < r) & (r < c)
    return np.where(inside, r, 0.5 * (a + c))


def polish_crossings(brackets, zeta, params):
    """The ``ShootingRecord`` of a root of g = z - zeta in each bracket
    (lo, hi) of the scan, polished to |g| <= ``POLISH_TOL``.

    g changes sign over a bracket, or lo = hi where the scan hit g = 0.  A
    shot's cost is per pass, not per lane, so the polish runs many lanes in
    few passes.  The zoom pass shoots ``ZOOM_LANES`` variational lanes
    without trajectories per bracket, log-uniform over [lo, hi] with the
    ends, for g and dg/dlog(beta) = beta z'(beta); the first pair of lanes
    over which g changes sign (else the lane of least |g|) becomes the
    bracket.  Each record round then shoots every open bracket at the root
    of the cubic Hermite interpolant of (g, dg/dlog(beta)) over it, or at
    its midpoint where that root fails (``_hermite_root``), as a lane of one
    pass with trajectories.  A shot within ``POLISH_TOL`` is the bracket's
    record, and one outside it replaces the bracket's end of its sign.
    ``ConvergenceError`` after ``MAX_POLISH_SHOTS`` passes, the zoom pass
    the first.
    """
    lo, hi = np.array(brackets, dtype=float).reshape(-1, 2).T
    n, lanes = len(lo), ZOOM_LANES
    zoom = np.geomspace(lo, hi, lanes, axis=-1)
    z, zp = _lanes(zoom.ravel(), params, variational=True, trajectories=False)
    g, d = z.reshape(n, lanes) - zeta, zoom * zp.reshape(n, lanes)
    change = g[:, :-1] * g[:, 1:] <= 0.0
    has = change.any(axis=1)
    k = np.where(has, change.argmax(axis=1), np.argmin(np.abs(g), axis=1))
    (a, c), (ga, gc), (da, dc) = (
        np.take_along_axis(v, np.column_stack((k, k + has)), axis=1).T
        for v in (np.log(zoom), g, d))
    last = np.minimum(np.abs(ga), np.abs(gc))
    records, todo, shots = [None] * n, list(range(n)), 1
    while todo:
        if shots == MAX_POLISH_SHOTS:
            i = todo[0]
            raise ConvergenceError(
                f"crossing bracket beta in [{lo[i]:.17g}, {hi[i]:.17g}] not "
                f"polished in {shots} shots: last |z(beta) - zeta| = "
                f"{last[i]:.3e}, tolerance {POLISH_TOL:g}",
                iterations=shots, residual=last[i])
        shots += 1
        s = _hermite_root(a[todo], c[todo], ga[todo], gc[todo], da[todo],
                          dc[todo])
        betas = np.exp(s)
        for i, si, beta, traj in zip(todo, s, betas, _lanes(
                betas, params, variational=True)[1]):
            rec = _record(beta, traj)
            gi = rec.z - zeta
            if abs(gi) <= POLISH_TOL:
                records[i] = rec
                continue
            last[i] = abs(gi)
            if gi * gc[i] > 0.0:
                c[i], gc[i], dc[i] = si, gi, beta * rec.z_prime
            else:
                a[i], ga[i], da[i] = si, gi, beta * rec.z_prime
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
    if not -1.0 < zeta < np.inf:
        raise HypothesisError(
            "shooting-range", f"zeta must be finite and exceed -1, got {zeta!r}")
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
    g = _lanes(betas, params)[0] - zeta
    i = np.flatnonzero((g[:-1] == 0.0) | (g[:-1] * g[1:] < 0.0))
    j = np.where(g[i] == 0.0, i, i + 1)     # a scan point on the root
    return polish_crossings(np.column_stack((betas[i], betas[j])), zeta,
                            params)


def rescale_to_unit(record, zeta, params, mesh):
    """Map a crossing solution on (-1, zeta) to the unit interval.

    The profile is v(t) = (1+zeta)^E u((1+zeta) t - 1) with
    E = (l+2)/(p-1), the exponent that direct substitution of the change of
    variables forces, and solves the problem ``unit_problem(zeta, params)``
    builds.  It is sampled from the record's trajectory, which ends at its
    zero z.  The profile lives on ``mesh``, the operator's (``A.mesh``, where
    ``assemble`` inserted the weight kink).  ``ScalingError`` rejects it
    unless the relative residual of the discrete integral equation on the
    uniform check mesh (kink inserted) is at most ``RESCALE_RTOL``.  The
    check is at order 2, where the product-integration image is an O(n)
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
    if rel > RESCALE_RTOL:
        raise ScalingError(
            f"scale exponent {exponent:g} does not reproduce the unit-interval "
            f"equation within {RESCALE_RTOL:g}: residual {rel:g}",
            exponent=exponent, residual=rel)
    return UnitSolution(profile=GridFunction(mesh, sample(mesh)),
                        scale_exponent_used=exponent)


def continue_crossings(records, zeta, params, A2, target_alpha,
                       initial_step=0.005, min_step=1e-5, tol=RTOL):
    """``(branches, distances)``: each nondegenerate record rescaled onto
    ``A2.mesh`` (``A2`` is the order-2 operator of ``unit_problem``'s
    weight), solved there from its profile by ``newton_solve`` and continued
    to ``target_alpha`` by ``continue_alpha``, as a branch ``(record, unit,
    trace)``, and the sup-norm distances between every two branch ends.
    A branch that raises a ``FracBVPError`` passes it on with the branches
    finished before it as its ``branches``."""
    f = unit_problem(zeta, params)[2]
    branches = []
    try:
        for record in (r for r in records if not r.degenerate):
            unit = rescale_to_unit(record, zeta, params, A2.mesh)
            start = newton_solve(A2, f, unit.profile, tol=tol)
            branches.append((record, unit, continue_alpha(
                start, A2, target_alpha, f, initial_step=initial_step,
                min_step=min_step, tol=tol)))
    except FracBVPError as exc:
        exc.branches = branches
        raise
    ends = [trace.steps[-1].solution.values for *_, trace in branches]
    return branches, [[float(np.max(np.abs(a - b))) for b in ends]
                      for a in ends]


def unit_problem(zeta, params):
    """(delta, weight, f) of v'' + |t - 1/2 + delta|^l v^p = 0 on (0, 1),
    with the offset delta = (zeta-1)/(2(1+zeta)) of the rescaled weight,
    whose center 1/(1+zeta) lies in (0, 1] only for zeta >= 0."""
    if not 0.0 <= zeta < np.inf:
        raise HypothesisError("shooting-range", "the rescaled weight needs "
                              f"finite zeta >= 0, got {zeta!r}")
    delta = (zeta - 1.0) / (2.0 * (1.0 + zeta))
    return (delta, WeightFamily.power_offset(params.l, 0.5 - delta),
            NonlinearityFamily.power(1.0, params.p))
