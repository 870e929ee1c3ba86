"""Newton solver, nondegeneracy margin, and continuation in the order alpha.

In the superlinear regime the fixed-point map is expansive around the
nontrivial solution, so Picard iteration is useless; instead Newton's method
is applied to F(u) = u - T[h f(|u|)].  The Jacobian reuses the assembled
kernel matrix with its columns rescaled by f'(u), so each Newton step costs
one dense solve and no re-assembly.

A solution is nondegenerate when the linearized problem has only the trivial
solution; numerically that is a positive smallest singular value of
I - L_u, where L_u is the operator assembled with weight h*f'(u).  The
margin gates predictor-corrector continuation in alpha: nondegenerate
solutions persist for nearby orders, and the trace records each accepted
step until the target order, a degeneracy, or a failed step floor.  Every
solver takes the assembled operator A and reads mesh, order and weight from it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from .errors import ConvergenceError, DegeneratePointError, HypothesisError
from .grid import GridFunction
from .kernel import check_order
from .operator import assemble

COND_LIMIT = 1e14
DAMPING_HALVINGS = 30
MARGIN_REL_THRESHOLD = 1e-6


@dataclass(frozen=True)
class NewtonReport:
    solution: GridFunction
    residual: float
    iterations: int
    converged: bool         # residual below tol AND positive interior
    positive: bool


@dataclass(frozen=True)
class NondegeneracyReport:
    margin: float
    degenerate: bool
    threshold: float


@dataclass(frozen=True)
class ContinuationStep:
    alpha: float
    solution: GridFunction
    residual: float
    margin: float


@dataclass(frozen=True)
class ContinuationTrace:
    steps: tuple
    status: str             # "completed" | "halted_degenerate" | "halted_diverged"


def _residual(A, f, u):
    return u - A.nonlinear_image(f, u)


def _jacobian(A, f, u):
    with np.errstate(invalid="ignore"):
        fp = f.fprime(np.abs(u)) * np.sign(u)
    fp = np.nan_to_num(fp, nan=0.0, posinf=0.0, neginf=0.0)
    return np.eye(len(u)) - A.matrix * fp[np.newaxis, :]


def newton_solve(A, f, u0, tol=1e-10, maxit=50):
    """Damped Newton iteration on the discrete fixed-point equation.

    Steps are halved (up to 30 times) until the sup-norm residual decreases.
    ``converged`` additionally requires interior positivity, so a run that
    collapses onto the trivial solution comes back with ``converged=False``
    and ``positive=False`` rather than an exception.  A residual that is
    not finite ends the iteration with ``ConvergenceError``.
    """
    if not A.mesh.same_as(u0.mesh):
        raise ValueError("initial guess lives on a different mesh than the operator")
    u = u0.values.copy()
    res_vec = _residual(A, f, u)
    res = float(np.max(np.abs(res_vec)))
    it = 0
    while np.isfinite(res) and res >= tol and it < maxit:
        it += 1
        J = _jacobian(A, f, u)
        anorm = float(np.linalg.norm(J, 1))
        lu_piv = lu_factor(J)
        gecon = get_lapack_funcs("gecon", (J,))
        rcond, _ = gecon(lu_piv[0], anorm)
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise DegeneratePointError(
                f"Jacobian condition estimate {cond:.3e} exceeds {COND_LIMIT:.0e}",
                last=GridFunction(A.mesh, u), iterations=it, residual=res)
        step = lu_solve(lu_piv, res_vec)
        lam = 1.0
        for _ in range(DAMPING_HALVINGS + 1):
            u_try = u - lam * step
            res_try_vec = _residual(A, f, u_try)
            res_try = float(np.max(np.abs(res_try_vec)))
            if res_try < res:
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                "damped Newton step failed to reduce the residual",
                last=GridFunction(A.mesh, u), iterations=it, residual=res)
        u, res_vec, res = u_try, res_try_vec, res_try
    if not res < tol:
        raise ConvergenceError(
            f"Newton did not reach tolerance {tol} in {maxit} iterations",
            last=GridFunction(A.mesh, u), iterations=it, residual=res)
    positive = bool(np.all(u[1:-1] > 0.0))
    return NewtonReport(solution=GridFunction(A.mesh, u), residual=res,
                        iterations=it, converged=positive, positive=positive)


def nondegeneracy(A, f, u, threshold=None):
    """Smallest singular value of I - L_u, the linearized fixed-point map.

    ``L_u`` is the kernel operator with weight h*f'(u).  The solution is
    flagged degenerate when the margin falls below ``threshold`` (default:
    1e-6 times the operator norm of I - L_u).
    """
    J = _jacobian(A, f, u.values)
    svals = np.linalg.svd(J, compute_uv=False)
    margin = float(svals[-1])
    thr = float(threshold) if threshold is not None else (
        MARGIN_REL_THRESHOLD * float(svals[0]))
    return NondegeneracyReport(margin=margin, degenerate=margin < thr,
                               threshold=thr)


def continue_alpha(start, A0, target_alpha, f, initial_step=0.005,
                   min_step=1e-5, tol=1e-10, maxit=50, margin_threshold=None):
    """Predictor-corrector continuation of a nondegenerate solution in alpha.

    The predictor is the previous solution (order zero); the corrector is a
    Newton solve at the shifted order.  Failed correctors halve the step and
    the trace halts ``halted_diverged`` below ``min_step``; a margin below
    the threshold halts ``halted_degenerate``.  Every accepted step is
    positive at interior nodes.  ``A0`` is the operator at the starting
    order on the starting solution's mesh; each step reassembles its weight.
    """
    alpha0 = A0.alpha
    target_alpha = check_order(target_alpha)
    if not (start.converged and start.positive):
        raise HypothesisError(
            "continuation-start",
            "continuation needs a converged positive starting solution")
    step = abs(float(initial_step))
    if not (step > 0.0 and min_step > 0.0):
        # a zero step would accept the current order forever
        raise HypothesisError(
            "continuation-step", "initial_step and min_step must be positive")
    mesh = A0.mesh
    if not mesh.same_as(start.solution.mesh):
        raise ValueError("starting solution lives on a different mesh than the operator")
    nd0 = nondegeneracy(A0, f, start.solution, threshold=margin_threshold)
    if nd0.degenerate:
        raise HypothesisError(
            "continuation-start", "starting solution is degenerate")

    steps = [ContinuationStep(alpha=alpha0, solution=start.solution,
                              residual=start.residual, margin=nd0.margin)]
    direction = 1.0 if target_alpha >= alpha0 else -1.0
    cur_alpha, cur_u = alpha0, start.solution
    status = "completed"
    while cur_alpha != target_alpha:
        next_alpha = cur_alpha + direction * step
        if direction * (next_alpha - target_alpha) > 0.0 or (
                abs(next_alpha - target_alpha) < 1e-9):
            next_alpha = target_alpha
        accepted = False
        try:
            A = assemble(mesh, next_alpha, A0.weight)
            rep = newton_solve(A, f, cur_u, tol=tol, maxit=maxit)
            accepted = rep.converged
        except (ConvergenceError, DegeneratePointError):
            accepted = False
        if accepted:
            nd = nondegeneracy(A, f, rep.solution, threshold=margin_threshold)
            if nd.degenerate:
                status = "halted_degenerate"
                break
            steps.append(ContinuationStep(alpha=next_alpha, solution=rep.solution,
                                          residual=rep.residual, margin=nd.margin))
            cur_alpha, cur_u = next_alpha, rep.solution
        else:
            step *= 0.5
            if step < min_step:
                status = "halted_diverged"
                break
    return ContinuationTrace(steps=tuple(steps), status=status)


def find_positive_solution(A, f, eig, tol=1e-10, maxit=50,
                           multipliers=(1.0, 2.0, 0.5, 4.0, 0.25, 8.0, 16.0)):
    """Locate a positive superlinear solution by a deterministic seed sweep.

    Seeds are scaled copies of the principal eigenfunction with amplitude
    near the level where f(s)/s crosses the eigenvalue, which sits above the
    basin of the trivial solution.  The first seed whose Newton run converges
    to a positive solution wins.  ``eig`` is the principal eigenpair of ``A``.
    """
    lim0, liminf = f.ratio_limits()
    if not (lim0 < eig.lambda1 < liminf):
        raise HypothesisError(
            "superlinear-ratio-condition",
            f"need f(s)/s -> ({lim0}, {liminf}) to straddle lambda1 = "
            f"{eig.lambda1} from below then above")
    s = np.geomspace(1e-8, 1e12, 4001)
    ratio = f.f(s) / s
    above = np.nonzero(ratio >= eig.lambda1)[0]
    s_star = float(s[above[0]]) if len(above) else 1.0
    failures = []
    for mult in multipliers:
        u0 = GridFunction(A.mesh, mult * s_star * eig.phi1.values)
        try:
            rep = newton_solve(A, f, u0, tol=tol, maxit=maxit)
        except (ConvergenceError, DegeneratePointError) as exc:
            failures.append(f"amplitude {mult * s_star:g}: {exc}")
            continue
        if rep.converged:
            return rep
        failures.append(f"amplitude {mult * s_star:g}: trivial limit")
    raise ConvergenceError(
        "seed sweep found no positive solution: " + "; ".join(failures))
