"""Existence and uniqueness in the sublinear regime by monotone iteration.

When f(s)/s descends through the principal eigenvalue (large near 0, small
near infinity), scaled copies of the principal eigenfunction bracket a fixed
point: delta*phi1 from below and M*phi1 from above.  Picard iteration
u <- T f(u) started at either end is monotone because f is nondecreasing on
the bracket range, and the two one-sided limits coincide exactly when the
positive solution is unique; their agreement is reported as the uniqueness
witness.

The nonexistence probe is the falsification companion: when f(s)/s stays on
one side of the eigenvalue, iterates from any positive start either blow up
or die out, and the probe reports that evidence.  It certifies nothing.
Every solver takes the assembled operator A (and its eigenpair if needed).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HypothesisError, MonotonicityError
from .grid import GridFunction, boundary_weight

DELTA_FLOOR = 1e-12
M_CAP = 2.0 ** 40


@dataclass(frozen=True)
class Bracket:
    delta: float
    m_upper: float
    lower: GridFunction
    upper: GridFunction


@dataclass(frozen=True)
class SolveReport:
    solution: GridFunction
    iterations: int
    residual: float
    from_side: str          # "lower" | "upper" | "both_agree"


@dataclass(frozen=True)
class TrialOutcome:
    amplitude: float
    shape: str
    outcome: str            # "diverged" | "decayed" | "inconclusive"
    iterations: int
    final_norm: float
    last_ratio: float


@dataclass(frozen=True)
class ProbeReport:
    regime: str             # "super" | "sub" | "borderline"
    lambda1: float
    trials: tuple
    verdict: str


def find_bracket(eig, f, A):
    """Sub/super-solution pair (delta*phi1, M*phi1) for the sublinear regime.

    delta is located by bisection on the analytic condition f(s) >= lambda1*s
    on (0, delta], checked on a log grid; M by doubling until the discrete
    super-solution inequality holds nodewise.  Both inequalities are then
    verified against the assembled operator so the monotone iteration starts
    from certified data.
    """
    lim0, liminf = f.ratio_limits()
    lam = eig.lambda1
    if not (lim0 > lam > liminf):
        raise HypothesisError(
            "sublinear-ratio-condition",
            f"need f(s)/s -> ({lim0}, {liminf}) to straddle lambda1 = {lam} "
            "from above then below")
    phi = eig.phi1.values

    def sub_ok(d):
        s = np.geomspace(max(d * 1e-14, 1e-300), d, 257)
        return bool(np.all(f.f(s) >= lam * s * (1.0 - 1e-12)))

    delta = 0.99
    while not sub_ok(delta):
        delta *= 0.5
        if delta < DELTA_FLOOR:
            raise HypothesisError(
                "sublinear-ratio-condition",
                "no sub-solution amplitude above the floor; the ratio "
                "condition fails near s = 0")
    if delta < 0.99:
        lo, hi = delta, 2.0 * delta
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if sub_ok(mid):
                lo = mid
            else:
                hi = mid
        delta = lo

    # certify the discrete sub-solution inequality, shrinking if the eigen
    # residual eats the analytic margin
    slack = 1e-12
    for _ in range(60):
        lower_vals = delta * phi
        if np.all(A.nonlinear_image(f, lower_vals) >= lower_vals - slack):
            break
        delta *= 0.5
        if delta < DELTA_FLOOR:
            raise HypothesisError(
                "sublinear-ratio-condition",
                "discrete sub-solution inequality unattainable")

    m_upper = 2.0
    while True:
        upper_vals = m_upper * phi
        if np.all(A.nonlinear_image(f, upper_vals) <= upper_vals + slack):
            break
        m_upper *= 2.0
        if m_upper > M_CAP:
            raise HypothesisError(
                "sublinear-ratio-condition",
                "no super-solution multiple below the cap; the problem does "
                "not look sublinear at infinity")

    return Bracket(delta=delta, m_upper=m_upper,
                   lower=GridFunction(A.mesh, delta * phi),
                   upper=GridFunction(A.mesh, m_upper * phi))


def monotone_solve(bracket, f, A, tol=1e-9, maxit=20000):
    """Monotone Picard iteration from both ends of the bracket.

    The lower start produces a nondecreasing sequence and the upper start a
    nonincreasing one; both stop when consecutive iterates differ by less
    than ``tol`` in sup norm.  If the two limits agree within ``10*tol`` the
    report says ``both_agree``, the computational witness that the positive
    solution is unique.
    """
    lo = bracket.lower.values.copy()
    hi = bracket.upper.values.copy()
    mono_slack = 1e-12 * max(1.0, float(np.max(hi)))

    its = {"lower": 0, "upper": 0}
    done = {"lower": False, "upper": False}
    state = {"lower": lo, "upper": hi}
    for _ in range(maxit):
        if done["lower"] and done["upper"]:
            break
        for side, sign in (("lower", 1.0), ("upper", -1.0)):
            if done[side]:
                continue
            cur = state[side]
            nxt = A.nonlinear_image(f, cur)
            if np.any(sign * (nxt - cur) < -mono_slack):
                raise MonotonicityError(
                    f"iteration from the {side} start lost monotonicity; "
                    "the nonlinearity is not nondecreasing on the bracket")
            its[side] += 1
            if np.max(np.abs(nxt - cur)) < tol:
                done[side] = True
            state[side] = nxt
        if np.any(state["lower"] > state["upper"] + mono_slack):
            raise MonotonicityError(
                "lower iterate overtook the upper iterate")
    else:
        raise ConvergenceError(
            f"monotone iteration did not converge in {maxit} sweeps",
            last=GridFunction(A.mesh, state["lower"]),
            iterations=maxit)

    gap = float(np.max(np.abs(state["lower"] - state["upper"])))
    res = {side: float(np.max(np.abs(
        state[side] - A.nonlinear_image(f, state[side]))))
        for side in ("lower", "upper")}
    if gap <= 10.0 * tol:
        side = "both_agree"
        solution = state["lower"]
        residual = res["lower"]
    else:
        side = "lower" if res["lower"] <= res["upper"] else "upper"
        solution = state[side]
        residual = res[side]
    return SolveReport(solution=GridFunction(A.mesh, solution),
                       iterations=max(its.values()), residual=residual,
                       from_side=side)


def classify_regime(f, lambda1, s_lo=1e-8, s_hi=1e8, samples=2001):
    """Which side of lambda1 the ratio f(s)/s stays on over a wide grid."""
    s = np.geomspace(s_lo, s_hi, samples)
    r = f.f(s) / s
    if np.min(r) > lambda1 * (1.0 + 1e-12):
        return "super"
    if np.max(r) < lambda1 * (1.0 - 1e-12):
        return "sub"
    return "borderline"


def nonexistence_probe(f, A, eig, trials=10, divergence_cap=1e6,
                       decay_floor=1e-10, maxit=100000):
    """Iteration evidence that no positive solution exists.

    Runs Picard iteration from a deterministic spread of positive starts.
    In the super regime (f(s)/s above lambda1 everywhere) every trial is
    expected to blow past ``divergence_cap``; in the sub regime every trial
    should decay below ``decay_floor``.  Purely diagnostic: never raises on
    inconclusive outcomes.  ``eig`` is the principal eigenpair of ``A``.
    """
    regime = classify_regime(f, eig.lambda1)

    e_shape = boundary_weight(A.mesh, A.alpha)
    shapes = {"phi1": eig.phi1.values, "gauge": e_shape / np.max(e_shape)}
    amplitudes = np.geomspace(1e-2, 1e2, trials)

    outcomes = []
    for k, amp in enumerate(amplitudes):
        name = "phi1" if k % 2 == 0 else "gauge"
        u = amp * shapes[name]
        prev_norm = float(np.max(np.abs(u)))
        outcome, ratio = "inconclusive", float("nan")
        it = 0
        for it in range(1, maxit + 1):
            u = A.nonlinear_image(f, u)
            nrm = float(np.max(np.abs(u)))
            ratio = nrm / prev_norm if prev_norm > 0 else float("nan")
            prev_norm = nrm
            if nrm > divergence_cap:
                outcome = "diverged"
                break
            if nrm < decay_floor:
                outcome = "decayed"
                break
        outcomes.append(TrialOutcome(amplitude=float(amp), shape=name,
                                     outcome=outcome, iterations=it,
                                     final_norm=prev_norm, last_ratio=ratio))

    if regime == "super" and all(o.outcome == "diverged" for o in outcomes):
        verdict = "no positive solution detected: all iterates unbounded"
    elif regime == "sub" and all(o.outcome == "decayed" for o in outcomes):
        verdict = "no positive solution detected: all iterates vanish"
    elif regime == "borderline":
        verdict = ("borderline: f(s)/s meets the eigenvalue; the one-sided "
                   "ratio hypothesis fails")
    else:
        verdict = "inconclusive: mixed iteration outcomes"
    return ProbeReport(regime=regime, lambda1=eig.lambda1,
                       trials=tuple(outcomes), verdict=verdict)
