"""Existence and uniqueness in the sublinear regime by monotone iteration.

When f(s)/s descends through the principal eigenvalue (large near 0, small
near infinity, by ``f.ratio_limits``), delta*phi1 and M*phi1 bracket a fixed
point from below and above, delta halved and M doubled until its nodal
inequality holds on the assembled operator.  Picard iteration
u <- T f(u) started at either end is monotone because f is nondecreasing on
the bracket range, and the two one-sided limits coincide exactly when the
positive solution is unique; their agreement is reported as the uniqueness
witness.

The nonexistence probe is the falsification companion.  It runs Picard
iteration from positive starts until each trial blows up ("diverged"), dies
out ("decayed"), reaches a fixed point ("converged") or spends
``PROBE_MAXIT`` steps ("inconclusive").  When f(s)/s stays on one side of the
eigenvalue, iterates from any positive start either blow up or die out, and
the probe reports that evidence; it certifies nothing.  When f(s)/s meets
the eigenvalue (the borderline regime, which holds the sublinear case) the
iterates settle on a positive fixed point, evidence for a solution.  Both
iterations stop by ``grid.settled``, rho the ratio of successive steps.
Every solver takes the assembled operator A (and its eigenpair if needed).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, HypothesisError, MonotonicityError
from .grid import RTOL, GridFunction, boundary_weight, settled

DELTA_FLOOR = 1e-12
M_CAP = 2.0 ** 40
DIVERGENCE_CAP = 1e6        # sup norm above which a probe trial diverged
DECAY_FLOOR = 1e-10         # and below which it decayed
PROBE_MAXIT = 100000        # Picard steps before it is inconclusive
# each trial may take PROBE_MAXIT steps, so more starts than this are a
# mistyped count, refused before the operator and the amplitudes are built
MAX_PROBE_TRIALS = 1000


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
    outcome: str            # "diverged" | "decayed" | "converged" | "inconclusive"
    iterations: int
    final_norm: float
    last_ratio: float
    residual: float         # last sup-norm step over the sup norm


@dataclass(frozen=True)
class ProbeReport:
    regime: str             # "super" | "sub" | "borderline"
    lambda1: float
    trials: tuple
    verdict: str


def find_bracket(eig, f, A):
    """Sub/super-solution pair (delta*phi1, M*phi1) for the sublinear regime.

    The ratio condition comes from ``f.ratio_limits()``: f(s)/s must fall
    from above lambda1 near 0 to below it at infinity.  Both amplitudes are
    then found on the assembled operator alone: delta halves from 0.99 until
    A f(delta*phi1) >= delta*phi1 holds at every node, and M doubles from 2
    until A f(M*phi1) <= M*phi1 does, so the monotone iteration starts from
    certified data.  Falling below ``DELTA_FLOOR`` or rising past ``M_CAP``
    raises ``HypothesisError``.
    """
    lim0, liminf = f.ratio_limits()
    lam = eig.lambda1
    if not (lim0 > lam > liminf):
        raise HypothesisError(
            "sublinear-ratio-condition",
            f"need f(s)/s -> ({lim0}, {liminf}) to straddle lambda1 = {lam} "
            "from above then below")
    phi = eig.phi1.values
    slack = 1e-12

    delta = 0.99
    while not np.all(A.nonlinear_image(f, delta * phi)
                     >= delta * phi - slack):
        delta *= 0.5
        if delta < DELTA_FLOOR:
            raise HypothesisError(
                "sublinear-ratio-condition",
                "no sub-solution amplitude above the floor; the ratio "
                "condition fails near s = 0")

    m_upper = 2.0
    while not np.all(A.nonlinear_image(f, m_upper * phi)
                     <= m_upper * phi + slack):
        m_upper *= 2.0
        if m_upper > M_CAP:
            raise HypothesisError(
                "sublinear-ratio-condition",
                "no super-solution multiple below the cap; the problem does "
                "not look sublinear at infinity")

    return Bracket(delta=delta, m_upper=m_upper,
                   lower=GridFunction(A.mesh, delta * phi),
                   upper=GridFunction(A.mesh, m_upper * phi))


def monotone_solve(bracket, f, A, tol=RTOL, maxit=20000):
    """Monotone Picard iteration from both ends of the bracket.

    The lower start produces a nondecreasing sequence and the upper start a
    nonincreasing one; each stops once ``settled`` at relative tolerance
    ``tol``.  If the two limits agree within ``10*tol`` times the upper sup
    norm the report says ``both_agree``, the computational witness that the
    positive solution is unique.
    """
    state = {"lower": bracket.lower.values, "upper": bracket.upper.values}
    last_step = {"lower": np.nan, "upper": np.nan}
    mono_slack = 1e-12 * max(1.0, float(np.max(state["upper"])))

    done = set()
    for sweep in range(1, maxit + 1):
        for side, sign in (("lower", 1.0), ("upper", -1.0)):
            if side in done:
                continue
            cur = state[side]
            nxt = A.nonlinear_image(f, cur)
            if np.any(sign * (nxt - cur) < -mono_slack):
                raise MonotonicityError(
                    f"iteration from the {side} start lost monotonicity; "
                    "the nonlinearity is not nondecreasing on the bracket")
            step = np.max(np.abs(nxt - cur))
            if settled(step, step / last_step[side], np.max(nxt), tol):
                done.add(side)
            state[side], last_step[side] = nxt, step
        if np.any(state["lower"] > state["upper"] + mono_slack):
            raise MonotonicityError(
                "lower iterate overtook the upper iterate")
        if len(done) == 2:
            break
    else:
        raise ConvergenceError(
            f"monotone iteration did not converge in {maxit} sweeps",
            last=GridFunction(A.mesh, state["lower"]),
            iterations=maxit)

    gap = float(np.max(np.abs(state["lower"] - state["upper"])))
    res = {side: float(np.max(np.abs(
        state[side] - A.nonlinear_image(f, state[side]))))
        for side in ("lower", "upper")}
    agree = gap <= 10.0 * tol * float(np.max(state["upper"]))
    side = "lower" if agree or res["lower"] <= res["upper"] else "upper"
    return SolveReport(solution=GridFunction(A.mesh, state[side]),
                       iterations=sweep, residual=res[side],
                       from_side="both_agree" if agree else side)


def classify_regime(f, lambda1):
    """Which side of lambda1 the ratio f(s)/s lies on for every s > 0.

    Each family's f(s)/s is monotone between its two ``f.ratio_limits()``
    and reaches them only where it is constant.  A constant ratio must clear
    lambda1 by a relative 1e-12; otherwise a limit equal to lambda1 is never
    reached, so it still keeps the ratio on its side.
    """
    low, high = sorted(f.ratio_limits())
    margin = 1e-12 if low == high else 0.0
    if low >= lambda1 * (1.0 + margin):
        return "super"
    if high <= lambda1 * (1.0 - margin):
        return "sub"
    return "borderline"


def check_trials(trials):
    """Raise ``HypothesisError`` "probe-trials" unless the probe's count of
    starts lies in [1, ``MAX_PROBE_TRIALS``]; callers check it before they
    assemble the operator the probe runs on."""
    if not 1 <= trials <= MAX_PROBE_TRIALS:
        # every verdict is an "all trials" statement: zero trials prove nothing
        raise HypothesisError(
            "probe-trials", f"trials must lie in [1, {MAX_PROBE_TRIALS}], "
            f"got {trials}")


def nonexistence_probe(f, A, eig, trials=10):
    """Iteration evidence about a positive solution, one trial per start.

    Runs Picard iteration u <- T f(u) from a deterministic spread of positive
    starts.  Each step first tests for blow-up past ``DIVERGENCE_CAP``
    ("diverged") and decay below ``DECAY_FLOOR`` ("decayed"), then for a
    fixed point: ``settled`` at ``RTOL`` ("converged").  A trial undecided
    after ``PROBE_MAXIT`` steps is "inconclusive"; the probe never raises on
    it.  In the super regime (f(s)/s above lambda1 everywhere) every trial
    is expected to diverge, in the sub regime to decay, and in the
    borderline regime to converge; the verdict names the converged sup norms
    as evidence for a solution.
    ``eig`` is the principal eigenpair of ``A``.
    """
    check_trials(trials)
    regime = classify_regime(f, eig.lambda1)

    e_shape = boundary_weight(A.mesh, A.alpha)
    shapes = {"phi1": eig.phi1.values, "gauge": e_shape / np.max(e_shape)}
    amplitudes = np.geomspace(1e-2, 1e2, trials)

    outcomes = []
    for k, amp in enumerate(amplitudes):
        name = "phi1" if k % 2 == 0 else "gauge"
        u = amp * shapes[name]
        prev_norm = float(np.max(np.abs(u)))
        outcome, ratio, residual, step = "inconclusive", np.nan, np.nan, np.nan
        it = 0
        for it in range(1, PROBE_MAXIT + 1):
            nxt = A.nonlinear_image(f, u)
            nrm = float(np.max(np.abs(nxt)))
            last_step, step = step, float(np.max(np.abs(nxt - u)))
            u = nxt
            ratio = nrm / prev_norm if prev_norm > 0 else float("nan")
            residual = step / nrm if nrm > 0 else float("inf")
            prev_norm = nrm
            if nrm > DIVERGENCE_CAP:
                outcome = "diverged"
                break
            if nrm < DECAY_FLOOR:
                outcome = "decayed"
                break
            if settled(step, step / last_step, nrm, RTOL):
                outcome = "converged"
                break
        outcomes.append(TrialOutcome(amplitude=float(amp), shape=name,
                                     outcome=outcome, iterations=it,
                                     final_norm=prev_norm, last_ratio=ratio,
                                     residual=residual))

    if regime == "super" and all(o.outcome == "diverged" for o in outcomes):
        verdict = "no positive solution detected: all iterates unbounded"
    elif regime == "sub" and all(o.outcome == "decayed" for o in outcomes):
        verdict = "no positive solution detected: all iterates vanish"
    elif regime == "borderline":
        verdict = ("borderline: f(s)/s meets the eigenvalue; the one-sided "
                   "ratio hypothesis fails")
        fixed = [o.final_norm for o in outcomes if o.outcome == "converged"]
        if fixed:
            verdict += (f"; {len(fixed)} of {len(outcomes)} iterates reach a "
                        "fixed point, evidence of a positive solution, sup "
                        f"norm {min(fixed):.12g}")
            if max(fixed) > min(fixed) * (1.0 + 1e-9):
                verdict += f" to {max(fixed):.12g}"
    else:
        verdict = "inconclusive: mixed iteration outcomes"
    return ProbeReport(regime=regime, lambda1=eig.lambda1,
                       trials=tuple(outcomes), verdict=verdict)
