"""Newton solver, nondegeneracy margin, and continuation in the order alpha.

In the superlinear regime the fixed-point map is expansive around the
nontrivial solution, so Picard iteration is useless; instead Newton's method
is applied to F(u) = u - T[h f(|u|)].  Its Jacobian J = I - A diag f'(u) is
lower triangular plus rank one: above the diagonal the Green function is its
separable branch t^(alpha-1)(1-s)^(alpha-1)/Gamma(alpha) alone, so A there
is the outer product of u = t^(alpha-1) and v = c h (c from
``kernel.separable_hat_integrals``).  Hence J = T - u w^T with w = v f'(u)
and T lower triangular, and a solve with J or J^T is one triangular solve
plus a Sherman-Morrison correction, O(m^2) with no factorization and no
re-assembly.  The Sherman-Morrison denominator 1 - w^T T^-1 u is
det J / det T, and T's diagonal is positive, so its sign is the sign of
det J.

A solution is nondegenerate when the linearized problem has only the trivial
solution; numerically that is a positive smallest singular value of
I - L_u, where L_u is the operator assembled with weight h*f'(u).  The
margin comes from inverse iteration on J^T J through the same solves, and
falls back to a dense SVD when that does not converge.  It gates
predictor-corrector continuation in alpha: nondegenerate solutions persist
for nearby orders, and the trace records each accepted step until the
target order, a degeneracy, or a failed step floor.  Every solver takes the
assembled operator A and reads mesh, order and weight from it.
"""

from dataclasses import dataclass

import numpy as np
# lu_factor is not called here; perfbench/spans.py wraps
# ``superlinear.lu_factor`` by name in its traced runs, so the name stays bound
from scipy.linalg import lu_factor, solve_triangular  # noqa: F401

from .errors import ConvergenceError, DegeneratePointError, HypothesisError
from .grid import GridFunction
from .kernel import check_order, separable_hat_integrals
from .operator import assemble

COND_LIMIT = 1e14
DAMPING_HALVINGS = 30
MARGIN_REL_THRESHOLD = 1e-6
# Lanczos steps of the margin before it falls back to a dense SVD, and their
# stop: a Ritz residual at most this share of the Ritz value
MARGIN_MAXIT = 50
MARGIN_RTOL = 1e-10
# amplitudes of the phi1 seeds, in units of the level where f(s)/s = lambda1
SEED_MULTIPLIERS = (1.0, 2.0, 0.5, 4.0, 0.25, 8.0, 16.0)
# Petviashvili seed after the sweep: step cap and relative sup-norm stop
PETVIASHVILI_MAXIT = 500
PETVIASHVILI_RTOL = 1e-9
# rows of T built per block, so the block's three passes stay in cache
_ROW_BLOCK = 64


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
    method: str             # "inverse_iteration" | "svd"
    iterations: int         # inverse-iteration steps taken


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


def _fprime(f, u):
    """f'(|u|) sign(u), the column scaling of the Jacobian; NaN and inf as 0."""
    with np.errstate(invalid="ignore"):
        fp = f.fprime(np.abs(u)) * np.sign(u)
    return np.nan_to_num(fp, nan=0.0, posinf=0.0, neginf=0.0)


def _jacobian(A, f, u):
    """Dense I - A*f'(u): the reference for the split, and the SVD fallback."""
    fp = _fprime(f, u)
    # I - A*fp in one m x m buffer; 0.0 - P, not -P, keeps the sign of zero
    # that the subtraction from the identity gives
    jac = A.matrix * fp[np.newaxis, :]
    diag = 1.0 - np.diagonal(jac)
    np.subtract(0.0, jac, out=jac)
    np.fill_diagonal(jac, diag)
    return jac


def _separable_factors(A):
    """(u, v) with A[i, j] = u_i v_j above the diagonal, zero boundary rows."""
    nodes = A.mesh.nodes
    u = nodes ** (A.alpha - 1.0)
    u[0] = u[-1] = 0.0
    v = separable_hat_integrals(nodes, A.alpha) * A.weight(nodes)
    return u, v


class _SplitJacobian:
    """J = I - A diag(fp) as T - u w^T, with solves by J and J^T in O(m^2).

    T = I + tril(u w^T - A diag fp) lives in one m x m buffer, of which only
    the lower triangle is written or read.  ``failure`` names why the split
    cannot be solved with (a diagonal entry of T not positive and finite, or
    a Sherman-Morrison denominator zero or not finite), else it is None.
    """

    def __init__(self, A, fp, factors):
        u, v = factors
        m = len(u)
        tri = np.empty((m, m))
        for r0 in range(0, m, _ROW_BLOCK):
            r1 = min(r0 + _ROW_BLOCK, m)
            block = tri[r0:r1, :r1]
            np.multiply(u[r0:r1, np.newaxis], v[:r1], out=block)
            np.subtract(block, A.matrix[r0:r1, :r1], out=block)
            block *= fp[:r1]
        diag = np.einsum("ii->i", tri)
        diag += 1.0
        self.tri, self.u, self.w = tri, u, v * fp
        self.denominator = np.nan
        self.failure = None
        if not np.all(np.isfinite(diag) & (diag > 0.0)):
            self.failure = "has a triangular part with a diagonal entry <= 0"
            return
        self.y = self._tri_solve(u, 0)
        self.z = self._tri_solve(self.w, 1)
        self.denominator = float(1.0 - self.w @ self.y)
        if not (np.isfinite(self.denominator) and self.denominator != 0.0):
            self.failure = (f"has Sherman-Morrison denominator "
                            f"{self.denominator}")

    def _tri_solve(self, b, trans):
        return solve_triangular(self.tri, b, trans=trans, lower=True,
                                check_finite=False)

    def solve(self, b):
        x = self._tri_solve(b, 0)
        return x + self.y * ((self.w @ x) / self.denominator)

    def solve_t(self, b):
        x = self._tri_solve(b, 1)
        return x + self.z * ((self.u @ x) / self.denominator)


def _inverse_norm1(solve, solve_t, m):
    """Hager-Higham estimate of ||J^-1||_1 from solves with J and J^T.

    The iteration of LAPACK's xLACON (Higham, ACM TOMS 14, 1988), which
    ``gecon`` runs, with its cap of 5 steps: a lower bound, taken as the
    largest of its candidates.
    """
    y = solve(np.full(m, 1.0 / m))
    est = float(np.sum(np.abs(y)))
    sign = np.where(y >= 0.0, 1.0, -1.0)
    z = solve_t(sign)
    j = int(np.argmax(np.abs(z)))
    for _ in range(4):
        e = np.zeros(m)
        e[j] = 1.0
        y = solve(e)
        new_est = float(np.sum(np.abs(y)))
        new_sign = np.where(y >= 0.0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or new_est <= est:
            est = max(est, new_est)
            break
        est, sign = new_est, new_sign
        z = solve_t(sign)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if abs(z[j_last]) == abs(z[j]):
            break
    alt = np.linspace(1.0, 2.0, m)
    alt[1::2] *= -1.0
    return max(est, 2.0 * float(np.sum(np.abs(solve(alt)))) / (3.0 * m))


def _top_eigenvalue(apply, m):
    """Top eigenvalue of a symmetric PSD operator by Lanczos from the ones vector.

    Each step applies the operator once, as a power sweep does, and keeps
    the Krylov basis fully orthogonal.  The top Ritz value theta, a lower
    bound that only grows, is returned once its residual ||B y - theta y||
    = beta_k |s_k| is at most MARGIN_RTOL * theta, which puts theta within
    that share of an eigenvalue.  Returns (theta, steps), theta None if
    MARGIN_MAXIT steps do not get there.
    """
    basis = np.empty((MARGIN_MAXIT + 1, m))
    basis[0] = 1.0 / np.sqrt(m)
    diag, off = np.zeros(MARGIN_MAXIT), np.zeros(MARGIN_MAXIT)
    for k in range(MARGIN_MAXIT):
        y = apply(basis[k])
        diag[k] = basis[k] @ y
        for _ in range(2):          # classical Gram-Schmidt, twice
            y -= basis[:k + 1].T @ (basis[:k + 1] @ y)
        off[k] = np.linalg.norm(y)
        if not np.isfinite(off[k]):
            break
        tridiag = (np.diag(diag[:k + 1]) + np.diag(off[:k], 1)
                   + np.diag(off[:k], -1))
        theta, vecs = np.linalg.eigh(tridiag)
        if off[k] * abs(vecs[-1, -1]) <= MARGIN_RTOL * theta[-1]:
            return float(theta[-1]), k + 1
        basis[k + 1] = y / off[k]
    return None, MARGIN_MAXIT


def newton_solve(A, f, u0, tol=1e-10, maxit=50):
    """Damped Newton iteration on the discrete fixed-point equation.

    Steps are halved (up to 30 times) until the sup-norm residual decreases.
    ``converged`` additionally requires interior positivity, so a run that
    collapses onto the trivial solution comes back with ``converged=False``
    and ``positive=False`` rather than an exception.  A residual that is
    not finite ends the iteration with ``ConvergenceError``; a Jacobian
    whose 1-norm condition estimate exceeds ``COND_LIMIT``, or whose split
    cannot be solved with, ends it with ``DegeneratePointError``.
    """
    if not A.mesh.same_as(u0.mesh):
        raise ValueError("initial guess lives on a different mesh than the operator")
    u = u0.values.copy()
    res_vec = _residual(A, f, u)
    res = float(np.max(np.abs(res_vec)))
    it = 0
    factors = _separable_factors(A)
    # ||J||_1 in O(m) per step: A >= 0, so column j sums to
    # |1 - A_jj fp_j| + |fp_j| (colsum_j - A_jj)
    a_diag = np.diagonal(A.matrix)
    off_diag = A.matrix.sum(axis=0) - a_diag
    while np.isfinite(res) and res >= tol and it < maxit:
        it += 1
        fp = _fprime(f, u)
        jac = _SplitJacobian(A, fp, factors)
        failure = jac.failure
        if failure is None:
            anorm = float(np.max(np.abs(1.0 - a_diag * fp)
                                 + np.abs(fp) * off_diag))
            cond = anorm * _inverse_norm1(jac.solve, jac.solve_t, len(u))
            if not cond <= COND_LIMIT:
                failure = (f"condition estimate {cond:.3e} exceeds "
                           f"{COND_LIMIT:.0e}")
        if failure is not None:
            raise DegeneratePointError(
                f"Jacobian {failure}", last=GridFunction(A.mesh, u),
                iterations=it, residual=res)
        step = jac.solve(res_vec)
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


def nondegeneracy(A, f, u):
    """Smallest singular value of I - L_u, the linearized fixed-point map.

    ``L_u`` is the kernel operator with weight h*f'(u).  The solution is
    flagged degenerate when the margin falls below ``MARGIN_REL_THRESHOLD``
    times the operator norm of I - L_u.  sigma_min comes from inverse
    iteration on J^T J through the split solves, in its Lanczos form, and
    sigma_max from Lanczos sweeps on J^T J with A and f'(u).  If the split
    cannot be solved with, or either iteration misses ``MARGIN_RTOL`` in
    ``MARGIN_MAXIT`` steps, both come from a dense SVD of J instead, and
    ``method`` says which; ``iterations`` counts the inverse-iteration steps.
    """
    fp = _fprime(f, u.values)
    m = len(fp)
    jac = _SplitJacobian(A, fp, _separable_factors(A))
    inv_top, top, steps = None, None, 0
    if jac.failure is None:
        inv_top, steps = _top_eigenvalue(
            lambda x: jac.solve(jac.solve_t(x)), m)
    del jac                 # free T before the sweeps or the dense fallback
    if inv_top is not None:
        mat = A.matrix

        def normal(x):      # J^T J x, J = I - A diag(fp)
            y = x - mat @ (fp * x)
            return y - fp * (mat.T @ y)
        top, _ = _top_eigenvalue(normal, m)
    if top is not None:
        method, margin, sigma_max = ("inverse_iteration",
                                     1.0 / np.sqrt(inv_top), np.sqrt(top))
    else:
        svals = np.linalg.svd(_jacobian(A, f, u.values), compute_uv=False)
        method, margin, sigma_max = "svd", svals[-1], svals[0]
    margin = float(margin)
    thr = MARGIN_REL_THRESHOLD * float(sigma_max)
    return NondegeneracyReport(margin=margin, degenerate=margin < thr,
                               threshold=thr, method=method, iterations=steps)


def continue_alpha(start, A0, target_alpha, f, initial_step=0.005,
                   min_step=1e-5, tol=1e-10):
    """Predictor-corrector continuation of a nondegenerate solution in alpha.

    The predictor is the previous solution (order zero); the corrector is a
    Newton solve at the shifted order.  Failed correctors halve the step and
    the trace halts ``halted_diverged`` below ``min_step``; a degenerate
    margin (see ``nondegeneracy``) halts ``halted_degenerate``.  Every accepted step is
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
    nd0 = nondegeneracy(A0, f, start.solution)
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
            rep = newton_solve(A, f, cur_u, tol=tol)
            accepted = rep.converged
        except (ConvergenceError, DegeneratePointError):
            accepted = False
        if accepted:
            nd = nondegeneracy(A, f, rep.solution)
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


def _petviashvili_seed(A, f, phi):
    """Petviashvili's normalized iteration for f = c s^p, p > 1.

    u <- M^gamma T f(u), M = <u, u> / <u, T f(u)>, gamma = p / (p - 1)
    (Petviashvili 1976; Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42,
    2004), from ``phi``.  The factor M^gamma, which is 1 at a solution,
    cancels the degree-p growth that makes plain Picard iteration on a
    superlinear f diverge or collapse.  Returns the iterate once a sup-norm
    step is at most ``PETVIASHVILI_RTOL`` of its sup norm, or after
    ``PETVIASHVILI_MAXIT`` steps.
    """
    gam = f.params["p"] / (f.params["p"] - 1.0)
    u = phi
    for _ in range(PETVIASHVILI_MAXIT):
        image = A.nonlinear_image(f, u)
        with np.errstate(invalid="ignore"):
            new = (np.dot(u, u) / np.dot(u, image)) ** gam * image
        step = np.max(np.abs(new - u))
        u = new
        if not step > PETVIASHVILI_RTOL * np.max(np.abs(u)):
            break
    return u


def _seeds(A, f, phi, s_star):
    """(label, nodal values) of each Newton start, built only when reached."""
    for mult in SEED_MULTIPLIERS:
        yield f"amplitude {mult * s_star:g}", mult * s_star * phi
    if f.kind == "power":
        yield "Petviashvili seed", _petviashvili_seed(A, f, phi)


def find_positive_solution(A, f, eig, tol=1e-10, maxit=50):
    """Locate a positive superlinear solution by a deterministic seed sweep.

    Seeds are scaled copies of the principal eigenfunction with amplitude
    near the level where f(s)/s crosses the eigenvalue, which sits above the
    basin of the trivial solution.  The first seed whose Newton run converges
    to a positive solution wins.  For a power f, when every seed fails, a
    last seed comes from Petviashvili's iteration started at phi1 (see
    ``_petviashvili_seed``).  ``eig`` is the principal eigenpair of ``A``.
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
    for label, seed in _seeds(A, f, eig.phi1.values, s_star):
        try:
            rep = newton_solve(A, f, GridFunction(A.mesh, seed), tol=tol,
                               maxit=maxit)
        except (ConvergenceError, DegeneratePointError) as exc:
            failures.append(f"{label}: {exc}")
            continue
        if rep.converged:
            return rep
        failures.append(f"{label}: trivial limit")
    raise ConvergenceError(
        "seed sweep found no positive solution: " + "; ".join(failures))
