"""Newton solver, nondegeneracy margin, and continuation in the order alpha.

In the superlinear regime the fixed-point map is expansive around the
nontrivial solution, so Picard iteration is useless; instead Newton's method
is applied to F(u) = u - T[h f(|u|)].  Its Jacobian J = I - A diag f'(u) is
lower triangular plus rank one: above the diagonal the Green function is its
separable branch t^(alpha-1)(1-s)^(alpha-1)/Gamma(alpha) alone, so A there
is the outer product u v^T of the factors ``A.factors`` that ``assemble``
keeps.  Hence J = T - u w^T with w = v f'(u) and T lower triangular, and a
solve with J or J^T is one triangular solve, by blocks over T's inverted
diagonal blocks, plus a Sherman-Morrison correction: O(m^2), no
factorization, no re-assembly.  Only T's diagonal blocks are formed; below
them T is (u v^T - A) diag f'(u), which a solve reads from A's own panels
and a running dot product, so Newton and the margin hold no m-square
buffer beside A.  The denominator 1 - w^T T^-1 u is det J / det T, and T's
diagonal is positive, so its sign is the sign of det J.

Newton starts from one seed, Petviashvili's iteration from phi1 (of several
positive solutions, it returns the one it reaches); both stop by ``settled``.

A solution is nondegenerate when the linearized problem has only the trivial
solution; numerically that is a positive smallest singular value of
I - L_u, where L_u is the operator assembled with weight h*f'(u).  How near
J is to singular is measured one way throughout: sigma_min(J), by Lanczos
on J^-1 J^-T through the same solves, relative to ||J||_1, O(m) from A's
column sums, and J itself is never formed.  Newton's guard takes a few
Lanczos steps; the margin runs them to convergence, by the rules of
``_sigma_min``.  The margin gates predictor-corrector continuation in
alpha: nondegenerate solutions persist for nearby orders, and the sign of
det J, which a branch keeps up to a fold, keeps each trace on its branch.
The trace records each accepted step until the target order, a degeneracy,
or a failed step floor.  Every solver takes the assembled operator A and
reads mesh, order and weight from it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegeneratePointError, HypothesisError
from .grid import RTOL, GridFunction, settled
from .kernel import check_order
from .operator import assemble

COND_LIMIT = 1e14
# Lanczos steps of Newton's guard; its last Ritz value is the estimate
COND_STEPS = 3
DAMPING_HALVINGS = 30
MARGIN_REL_THRESHOLD = 1e-6
# Lanczos steps of the margin before it gives up unless its bound already
# says degenerate, and their stop: a Ritz residual at most this share of the
# Ritz value
MARGIN_MAXIT = 50
MARGIN_RTOL = 1e-10
# a continuation corrector that converges in at most this many Newton
# iterations doubles the next alpha step
EASY_NEWTON = 3
# step cap of the Petviashvili seed of find_positive_solution
PETVIASHVILI_MAXIT = 500
# the size of T's diagonal blocks, the only part of T a split forms; 64
# beat 128 in paired timings of Newton and the margin at n = 400 and 1600,
# where 128 costs more to invert than it saves in the solves' numpy calls
_ROW_BLOCK = 64


def __getattr__(name):
    # only perfbench/spans.py looks this up, so only it imports scipy.linalg
    if name == "lu_factor":
        from scipy.linalg import lu_factor
        return lu_factor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class NewtonReport:
    solution: GridFunction
    residual: float
    iterations: int
    converged: bool         # settled at tol AND positive interior
    positive: bool


@dataclass(frozen=True)
class NondegeneracyReport:
    margin: float           # sigma_min(J), or an upper bound below threshold
    degenerate: bool        # margin < threshold
    threshold: float        # MARGIN_REL_THRESHOLD * ||J||_1
    iterations: int         # Lanczos steps taken, 0 where det J = 0
    det_sign: int           # sign of det J: -1, 0 or 1


@dataclass(frozen=True)
class ContinuationStep:
    alpha: float
    solution: GridFunction
    residual: float
    margin: float
    newton_iterations: int  # of the corrector, or of the start's solve
    det_sign: int


@dataclass(frozen=True)
class ContinuationTrace:
    steps: tuple
    status: str             # "completed" | "halted_degenerate" | "halted_diverged"
    rejected_steps: int     # correctors that failed or changed sign of det J


def _fprime(f, u):
    """f'(|u|) sign(u), the column scaling of the Jacobian; NaN and inf as 0."""
    with np.errstate(invalid="ignore"):
        fp = f.fprime(np.abs(u)) * np.sign(u)
    return np.nan_to_num(fp, nan=0.0, posinf=0.0, neginf=0.0)


def _invert_blocks(blocks):
    """Overwrite each lower triangular block of the stack ``blocks``, of
    shape (k, b, b), by its inverse: all at once, by halving from 1 / diag
    (Higham 2002, ch. 14), the inverse of [[P, 0], [C, Q]] being
    [[P^-1, 0], [-Q^-1 C P^-1, Q^-1]]."""
    k, b, _ = blocks.shape
    diag = np.einsum("kii->ki", blocks)
    np.divide(1.0, diag, out=diag)
    s = 1
    while s < b:
        n = b // (2 * s)
        pairs = np.einsum("kaiaj->kaij", blocks.reshape(k, n, 2 * s, n, 2 * s))
        P, C, Q = pairs[..., :s, :s], pairs[..., s:, :s], pairs[..., s:, s:]
        np.negative(np.matmul(np.matmul(Q, C), P), out=C)
        s *= 2


class _SplitJacobian:
    """J = I - A diag(fp) as T - u w^T, with solves by J and J^T in O(m^2).

    (u, v) = ``A.factors``, w = v fp and T = I + tril((u v^T - A) diag fp).
    Only T's diagonal blocks of ``_ROW_BLOCK`` rows are formed, padded with
    the identity to whole blocks and inverted; a solve reads the rest of T
    from A's panels below the diagonal blocks and from (u, v, fp), so the
    split holds no m-square buffer beside A and no solve reads A's upper
    triangle.
    ``failure`` names why the split cannot be solved with (a diagonal entry
    of T not positive and finite, or a Sherman-Morrison denominator zero or
    not finite), else it is None.
    """

    def __init__(self, A, fp):
        u, v = A.factors
        a, m, b = A.matrix, len(u), _ROW_BLOCK
        starts = range(0, m, b)
        blocks = np.zeros((len(starts), b, b))
        # each block's rows and columns of T, which come to hold D_k^-1
        diagonal = [block[:m - i, :m - i] for block, i in zip(blocks, starts)]
        for d, i in zip(diagonal, starts):
            np.multiply(u[i:i + b, np.newaxis], v[i:i + b], out=d)
            np.subtract(d, a[i:i + b, i:i + b], out=d)
            d *= fp[i:i + b]
        np.copyto(blocks, 0.0, where=~np.tri(b, dtype=bool))
        diag = np.einsum("kii->ki", blocks)
        diag += 1.0
        self.u, self.w = u, v * fp
        self.denominator = np.nan
        self.failure = None
        if not np.all(np.isfinite(diag) & (diag > 0.0)):
            self.failure = "has a triangular part with a diagonal entry <= 0"
            return
        _invert_blocks(blocks)
        # per block, for the sweeps by T and T^T over the solves' buffer x
        # and z = fp x, on which A's panels act: its parts of x (and z),
        # D_k^-1, A's panel and the part already solved, and its parts of
        # u, fp and v
        self.x = x = np.empty(m)
        z = np.empty(m)
        self.forward = [(x[i:i + b], z[i:i + b], inv, a[i:i + b, :i], z[:i],
                         u[i:i + b], fp[i:i + b], v[i:i + b])
                        for inv, i in zip(diagonal, starts)]
        self.backward = [(x[i:i + b], inv.T, a[i + b:, i:i + b].T, x[i + b:],
                          u[i:i + b], fp[i:i + b], v[i:i + b])
                         for inv, i in reversed(list(zip(diagonal, starts)))]
        self.y = self._tri_solve(u, 0)
        self.z = self._tri_solve(self.w, 1)
        self.denominator = float(1.0 - self.w @ self.y)
        if not (np.isfinite(self.denominator) and self.denominator != 0.0):
            self.failure = (f"has Sherman-Morrison denominator "
                            f"{self.denominator}")

    def _tri_solve(self, b, trans):
        """T^-1 b, or T^-T b if ``trans``, by blocked substitution over the
        inverted diagonal blocks D_k, z = fp x and the running dot products
        of the rank-one part: x_k = D_k^-1 (b_k - u_k (v.z)_<k +
        A[k, <k] z_<k), and for T^T x_k = D_k^-T (b_k - fp_k (v_k (u.x)_>k
        - A[>k, k]^T x_>k))."""
        x = self.x
        x[:] = b
        dot = 0.0
        if trans:
            for xk, inv, panel, solved, uk, fk, vk in self.backward:
                xk -= fk * (dot * vk - panel @ solved)
                xk[:] = inv @ xk
                dot += uk @ xk
        else:
            for xk, zk, inv, panel, solved, uk, fk, vk in self.forward:
                xk += panel @ solved - dot * uk
                xk[:] = inv @ xk
                np.multiply(fk, xk, out=zk)
                dot += vk @ zk
        return x.copy()

    def solve(self, b):
        x = self._tri_solve(b, 0)
        return x + self.y * ((self.w @ x) / self.denominator)

    def solve_t(self, b):
        x = self._tri_solve(b, 1)
        return x + self.z * ((self.u @ x) / self.denominator)


def _norm1(A):
    """fp -> ||I - A diag(fp)||_1 in O(m) per call.

    A >= 0, so column j of the Jacobian sums to |1 - A_jj fp_j| +
    |fp_j| (colsum_j - A_jj); the column sums are taken once.
    """
    a_diag = np.diagonal(A.matrix)
    off_diag = A.matrix.sum(axis=0) - a_diag
    return lambda fp: float(np.max(np.abs(1.0 - a_diag * fp)
                                   + np.abs(fp) * off_diag))


def _sigma_min(jac, maxit, floor, exact, **context):
    """(sigma, steps, degenerate): sigma_min(J) through the split ``jac`` by
    at most ``maxit`` Lanczos steps, and whether it is below ``floor``.

    Lanczos runs on B = J^-1 J^-T from the ones vector; each step solves
    with J^T and J once, as a sweep of inverse iteration on J^T J does, and
    keeps the Krylov basis fully orthogonal.  The top Ritz value theta only
    grows and bounds the top eigenvalue 1 / sigma_min^2 from below (Parlett,
    The Symmetric Eigenvalue Problem, ch. 12); it has converged once its
    residual ||B y - theta y|| = beta_k |s_k| is at most MARGIN_RTOL * theta.
    So sigma = theta^-1/2 bounds sigma_min from above, and below ``floor``
    it is degenerate, converged or not; unconverged and not below, it
    stands as an estimate, or if ``exact`` raises ``ConvergenceError``.  A
    Sherman-Morrison denominator of exactly 0.0 is det J = 0: sigma 0,
    degenerate.  Any other failure of the split, or a solve that is not
    finite, raises ``DegeneratePointError``.  The errors carry ``context``.
    """
    if jac.failure is not None:
        if jac.denominator != 0.0:
            raise DegeneratePointError(f"Jacobian {jac.failure}", **context)
        return 0.0, 0, True
    m = len(jac.u)
    basis = np.empty((maxit + 1, m))
    basis[0] = 1.0 / np.sqrt(m)
    diag, off = np.zeros(maxit), np.zeros(maxit)
    steps, converged = maxit, False
    for k in range(maxit):
        y = jac.solve(jac.solve_t(basis[k]))
        diag[k] = basis[k] @ y
        for _ in range(2):          # classical Gram-Schmidt, twice
            y -= basis[:k + 1].T @ (basis[:k + 1] @ y)
        off[k] = np.linalg.norm(y)
        if not np.isfinite(off[k]):
            raise DegeneratePointError("Jacobian solve is not finite",
                                       **context)
        tridiag = (np.diag(diag[:k + 1]) + np.diag(off[:k], 1)
                   + np.diag(off[:k], -1))
        theta, vecs = np.linalg.eigh(tridiag)
        if off[k] * abs(vecs[-1, -1]) <= MARGIN_RTOL * theta[-1]:
            steps, converged = k + 1, True
            break
        basis[k + 1] = y / off[k]
    sigma = float(1.0 / np.sqrt(theta[-1]))
    degenerate = sigma < floor
    if exact and not (converged or degenerate):
        raise ConvergenceError(
            f"Lanczos bounds sigma_min(J) by {sigma:.3e}, not below "
            f"{floor:.3e}, but misses relative tolerance {MARGIN_RTOL} in "
            f"{steps} steps", **{"iterations": steps, **context})
    return sigma, steps, degenerate


def newton_solve(A, f, u0, tol=RTOL, maxit=50):
    """Damped Newton iteration on the discrete fixed-point equation.

    Steps are halved (up to 30 times) until the sup-norm residual decreases;
    where none does, a full step of at most ``tol`` times the sup norm of u
    has settled, and a larger one raises ``ConvergenceError``.  It also
    stops once ``settled`` at ``tol``, rho the residual ratio of a step and
    the norm the largest sup norm so far, so that a collapse onto zero
    stops.  ``converged`` also requires interior positivity, so a run that
    collapses onto the trivial solution comes back with ``converged=False``
    and ``positive=False`` rather than an exception.  A residual that is
    not finite ends the iteration with ``ConvergenceError``; a Jacobian
    whose condition estimate ||J||_1 / sigma_min exceeds ``COND_LIMIT``, or
    whose split cannot be solved with, ends it with ``DegeneratePointError``.
    sigma_min comes from ``COND_STEPS`` Lanczos steps by ``_sigma_min``;
    stopped early, the estimate is a lower bound.  A zero Sherman-Morrison
    denominator is det J = 0, an infinite estimate.
    """
    if not A.mesh.same_as(u0.mesh):
        raise ValueError("initial guess lives on a different mesh than the operator")
    u = u0.values.copy()
    res_vec = u - A.nonlinear_image(f, u)
    res = float(np.max(np.abs(res_vec)))
    norm = float(np.max(np.abs(u)))
    it, done = 0, res == 0.0        # a zero residual gives a zero step
    norm1 = _norm1(A)
    while np.isfinite(res) and not done and it < maxit:
        it += 1
        fp = _fprime(f, u)
        jac = _SplitJacobian(A, fp)
        context = dict(last=GridFunction(A.mesh, u), iterations=it,
                       residual=res)
        anorm = norm1(fp)
        sigma, _, degenerate = _sigma_min(jac, COND_STEPS, anorm / COND_LIMIT,
                                          False, **context)
        if degenerate:
            cond = anorm / sigma if sigma else np.inf
            raise DegeneratePointError(
                f"Jacobian condition estimate {cond:.3e} exceeds "
                f"{COND_LIMIT:.0e}", **context)
        step = jac.solve(res_vec)
        lam = 1.0
        for _ in range(DAMPING_HALVINGS + 1):
            u_try = u - lam * step
            res_try_vec = u_try - A.nonlinear_image(f, u_try)
            res_try = float(np.max(np.abs(res_try_vec)))
            if res_try < res:
                break
            lam *= 0.5
        else:
            # no damping lowers a residual already at rounding level; a
            # full correction within tol of u says the start has settled
            done = np.max(np.abs(step)) <= tol * np.max(np.abs(u))
            if done:
                break
            raise ConvergenceError(
                "damped Newton step failed to reduce the residual",
                last=GridFunction(A.mesh, u), iterations=it, residual=res)
        norm = max(norm, float(np.max(np.abs(u_try))))
        done = settled(lam * np.max(np.abs(step)), res_try / res, norm, tol)
        u, res_vec, res = u_try, res_try_vec, res_try
    if not done:
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
    times ||I - L_u||_1.  sigma_min comes from Lanczos on J^-1 J^-T through
    the split solves, run to ``MARGIN_RTOL`` in at most ``MARGIN_MAXIT``
    steps, by the rules of ``_sigma_min``: where Lanczos stops short, its
    upper bound on sigma_min is reported if it is below the threshold, and
    ``ConvergenceError`` is raised if not.  ``det_sign`` is the sign of the
    split's Sherman-Morrison denominator.
    """
    fp = _fprime(f, u.values)
    jac = _SplitJacobian(A, fp)
    thr = MARGIN_REL_THRESHOLD * _norm1(A)(fp)
    margin, steps, degenerate = _sigma_min(jac, MARGIN_MAXIT, thr, True,
                                           last=u)
    return NondegeneracyReport(margin=margin, degenerate=degenerate,
                               threshold=thr, iterations=steps,
                               det_sign=int(np.sign(jac.denominator)))


def continue_alpha(start, A0, target_alpha, f, initial_step=0.005,
                   min_step=1e-5, tol=RTOL):
    """Predictor-corrector continuation of a nondegenerate solution in alpha.

    The first predictor is the start itself (order zero), each later one the
    secant through the last two accepted solutions, extended by the ratio of
    the new alpha step to the last; the corrector is a Newton solve at the
    shifted order (Allgower & Georg 1990, ch. 2).  ``initial_step`` doubles
    after a corrector that took at most ``EASY_NEWTON`` iterations.  A
    corrector that fails, or whose sign of det J differs from the last
    accepted step's (a jump to another branch, across a fold), is rejected
    and halves the step; the trace halts ``halted_diverged`` below
    ``min_step``.  A degenerate margin (see ``nondegeneracy``) halts
    ``halted_degenerate``.  Every accepted step is positive at interior
    nodes.  ``A0`` is the operator at the starting order on the starting
    solution's mesh; each step reassembles its weight.
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
                              residual=start.residual, margin=nd0.margin,
                              newton_iterations=start.iterations,
                              det_sign=nd0.det_sign)]
    direction = 1.0 if target_alpha >= alpha0 else -1.0
    status, rejected = "completed", 0
    while steps[-1].alpha != target_alpha:
        cur = steps[-1]
        next_alpha = cur.alpha + direction * step
        if direction * (next_alpha - target_alpha) > 0.0 or (
                abs(next_alpha - target_alpha) < 1e-9):
            next_alpha = target_alpha
        guess = cur.solution
        if len(steps) > 1:
            prev = steps[-2]
            ratio = (next_alpha - cur.alpha) / (cur.alpha - prev.alpha)
            guess = GridFunction(mesh, cur.solution.values + ratio * (
                cur.solution.values - prev.solution.values))
        rep = nd = None
        try:
            A = assemble(mesh, next_alpha, A0.weight)
            rep = newton_solve(A, f, guess, tol=tol)
        except ConvergenceError:
            pass
        if rep is not None and rep.converged:
            nd = nondegeneracy(A, f, rep.solution)
        if nd is None or nd.det_sign != cur.det_sign:
            rejected += 1
            step *= 0.5
            if step < min_step:
                status = "halted_diverged"
                break
            continue
        if nd.degenerate:
            status = "halted_degenerate"
            break
        steps.append(ContinuationStep(alpha=next_alpha, solution=rep.solution,
                                      residual=rep.residual, margin=nd.margin,
                                      newton_iterations=rep.iterations,
                                      det_sign=nd.det_sign))
        if rep.iterations <= EASY_NEWTON:
            step *= 2.0
    return ContinuationTrace(steps=tuple(steps), status=status,
                             rejected_steps=rejected)


def _petviashvili_seed(A, f, phi, tol):
    """Petviashvili's normalized iteration from ``phi``.

    u <- M^gamma T f(u), M = <u, u> / <u, T f(u)>, gamma = d / (d - 1), d the
    exponent of f at infinity: p for power, q for affine_power (a saturating
    f never passes the superlinear ratio check); Petviashvili 1976, Pelinovsky
    & Stepanyants, SIAM J. Numer. Anal. 42, 2004.  M^gamma, 1 at a solution,
    cancels the growth that makes Picard iteration on a superlinear f diverge
    or collapse.  Returns (iterate, steps, last relative step) once
    ``settled`` at relative tolerance ``tol``, or after ``PETVIASHVILI_MAXIT``
    steps.
    """
    d = f.params["p"] if f.kind == "power" else f.params["q"]
    gam = d / (d - 1.0)
    u, step = phi, np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        for steps in range(1, PETVIASHVILI_MAXIT + 1):
            image = A.nonlinear_image(f, u)
            new = (np.dot(u, u) / np.dot(u, image)) ** gam * image
            last, step = step, np.max(np.abs(new - u))
            u, norm = new, np.max(np.abs(new))
            if settled(step, step / last, norm, tol) or not np.isfinite(step):
                break
        return u, steps, float(step / norm)


def find_positive_solution(A, f, eig, tol=RTOL, maxit=50):
    """Locate a positive superlinear solution by Newton from one seed.

    The seed is Petviashvili's normalized iteration started at the principal
    eigenfunction (see ``_petviashvili_seed``).  Where several positive
    solutions exist, this returns the one that Newton reaches from that
    seed.  A Newton run that fails, or that ends on a solution that is not
    positive, raises ``ConvergenceError`` naming the seed's step count and
    last relative step.  ``eig`` is the principal eigenpair of ``A``.
    """
    lim0, liminf = f.ratio_limits()
    if not (lim0 < eig.lambda1 < liminf):
        raise HypothesisError(
            "superlinear-ratio-condition",
            f"need f(s)/s -> ({lim0}, {liminf}) to straddle lambda1 = "
            f"{eig.lambda1} from below then above")
    seed, steps, rel_step = _petviashvili_seed(A, f, eig.phi1.values, tol)
    where = (f"Newton from the Petviashvili seed ({steps} steps, last "
             f"relative step {rel_step:.3e})")
    try:
        rep = newton_solve(A, f, GridFunction(A.mesh, seed), tol=tol,
                           maxit=maxit)
    except ConvergenceError as exc:
        raise type(exc)(f"{where}: {exc}", last=exc.last,
                        iterations=exc.iterations,
                        residual=exc.residual) from exc
    if not rep.converged:
        raise ConvergenceError(
            f"{where} found no positive solution", last=rep.solution,
            iterations=rep.iterations, residual=rep.residual)
    return rep
