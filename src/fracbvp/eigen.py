"""Principal eigenvalue of the weighted kernel operator.

The reciprocal of the spectral radius of the assembled operator is the
smallest (and only) eigenvalue with a positive eigenfunction.  The spectral
radius is extracted by power iteration started from the strictly positive
gauge function e(t) = t^(alpha-1)(1-t): the dominant eigenvalue is simple
and strictly separated from the rest of the spectrum, so no deflation is
needed.  Closed-form two-sided bounds and an alpha sweep complete the
module.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, HypothesisError
from .grid import GridFunction, boundary_weight, production_mesh
from .kernel import check_order, gamma
from .operator import assemble


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    phi1: GridFunction
    residual: float
    iterations: int


@dataclass(frozen=True)
class Lambda1Bounds:
    lower: float
    upper: float


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    lambda1: float
    lower: float
    upper: float
    residual: float
    iterations: int


def principal_eigenpair(A, tol=1e-10, maxit=10000):
    """Smallest eigenvalue with positive eigenfunction, by power iteration.

    Returns ``EigenResult`` with the eigenvalue ``lambda1 = 1/r``, the
    nonnegative eigenfunction normalized to sup norm 1, the sup-norm
    residual of ``lambda1 * A phi - phi``, and the iteration count.  The
    ratio estimate for the spectral radius r uses the sup norm of the
    normalized iterate; convergence is declared when successive estimates
    differ by less than ``tol`` relatively.
    """
    x = boundary_weight(A.mesh, A.alpha)
    x = x / np.max(x)
    r = None
    gap = np.inf
    for it in range(1, maxit + 1):
        y = A.matrix @ x
        r_new = float(np.max(np.abs(y)))
        if r_new <= 0.0:
            raise HypothesisError(
                "weight-positivity",
                "operator annihilates the positive start vector")
        x = y / r_new
        gap = abs(r_new - r) if r is not None else np.inf
        r = r_new
        if gap < tol * abs(r_new):
            break
    else:
        raise ConvergenceError(
            f"power iteration did not converge in {maxit} iterations",
            last=GridFunction(A.mesh, x), iterations=maxit, residual=gap)
    lam = 1.0 / r
    residual = float(np.max(np.abs(lam * (A.matrix @ x) - x)))
    return EigenResult(lambda1=lam, phi1=GridFunction(A.mesh, x),
                       residual=residual, iterations=it)


@lru_cache(maxsize=None)
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def integrate_unit_interval(fun, kinks=(), order=20, dyadic_levels=48):
    """Composite Gauss-Legendre quadrature on [0,1].

    Panels are refined geometrically toward both endpoints (handles the
    s^alpha endpoint behavior to machine accuracy) and split at the given
    interior kink points.  Relative error is far below 1e-10 for the
    piecewise-smooth integrands used here.
    """
    breaks = {0.0, 1.0}
    for k in range(1, dyadic_levels + 1):
        breaks.add(2.0 ** -k)
        breaks.add(1.0 - 2.0 ** -k)
    for t0 in kinks:
        if 0.0 < t0 < 1.0:
            breaks.add(float(t0))
    pts = np.array(sorted(breaks))
    xg, wg = _leggauss(order)
    left = pts[:-1]
    width = np.diff(pts)
    # map reference nodes to every panel at once
    nodes = left[:, None] + 0.5 * width[:, None] * (xg[None, :] + 1.0)
    weights = 0.5 * width[:, None] * wg[None, :]
    return float(np.sum(weights * fun(nodes)))


def lambda1_bounds(alpha, h):
    """Closed-form two-sided bounds for the principal eigenvalue.

    lower = alpha^alpha Gamma(alpha+1) / ((alpha-1)^(alpha-1) ||h||_inf),
    upper = 4 Gamma(alpha) / ((alpha-1)^2 * integral of s^alpha (1-s)^alpha h).
    """
    alpha = check_order(alpha)
    lower = (alpha ** alpha * gamma(alpha + 1.0)
             / ((alpha - 1.0) ** (alpha - 1.0) * h.sup_norm()))
    moment = integrate_unit_interval(
        lambda s: s ** alpha * (1.0 - s) ** alpha * h(s),
        kinks=h.kink_points())
    if moment <= 0.0:
        raise HypothesisError(
            "weight-positivity", "weight moment integral is degenerate")
    upper = 4.0 * gamma(alpha) / ((alpha - 1.0) ** 2 * moment)
    return Lambda1Bounds(lower=lower, upper=upper)


def sweep_alpha(alphas, h, n=400, tol=1e-10, maxit=10000):
    """Principal eigenvalue and bounds for each order in ``alphas``.

    Each order uses the default graded production mesh at the common density
    ``n``.  Rows come back sorted by alpha; eigensolver non-convergence
    propagates from the offending row.
    """
    rows = []
    for alpha in sorted(float(a) for a in alphas):
        mesh = production_mesh(alpha, n=n, weight=h)
        A = assemble(mesh, alpha, h)
        eig = principal_eigenpair(A, tol=tol, maxit=maxit)
        bounds = lambda1_bounds(alpha, h)
        rows.append(SweepRow(alpha=alpha, lambda1=eig.lambda1,
                             lower=bounds.lower, upper=bounds.upper,
                             residual=eig.residual, iterations=eig.iterations))
    return rows

