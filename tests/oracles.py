"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the package's own discretization paths:
the kernel and its full integral are the paper's closed forms, the BVP
oracle is a classical second-order finite-difference Newton solver on a fine
uniform grid, and the kernel-integral oracle is composite Gauss-Legendre
quadrature split at the kernel kink.  Run this module directly to regenerate
the frozen golden numbers quoted in the tests.
"""

import math

import numpy as np
from scipy.linalg import solve_banded

from fracbvp.kernel import check_order


def green_eval(t, s, alpha):
    """Evaluate G(t, s, alpha); ``t`` and ``s`` may be scalars or arrays.

    Both coordinates must lie in [0, 1].  The second branch term
    (t-s)^(alpha-1) is clipped at zero so a single expression covers both
    branches.
    """
    alpha = check_order(alpha)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0) or np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("kernel arguments must lie in the unit square")
    a1 = alpha - 1.0
    out = ((t * (1.0 - s)) ** a1 - np.maximum(t - s, 0.0) ** a1) / math.gamma(alpha)
    return out if out.ndim else float(out)


def green_integral(t, alpha):
    """Closed form of the full kernel integral: t^(alpha-1)(1-t)/Gamma(alpha+1)."""
    alpha = check_order(alpha)
    t = np.asarray(t, dtype=float)
    out = t ** (alpha - 1.0) * (1.0 - t) / math.gamma(alpha + 1.0)
    return out if out.ndim else float(out)


def fd_newton_bvp(g, gp, n=4000, u0=None, maxit=200, tol=1e-12):
    """Solve u'' + g(u) = 0, u(0) = u(1) = 0 by finite differences + Newton.

    Second-order central differences on a uniform grid with ``n`` intervals;
    the tridiagonal Newton systems go through a banded solve.  Returns the
    grid and the full solution vector including the boundary zeros.
    """
    x = np.linspace(0.0, 1.0, n + 1)
    hh = 1.0 / n

    def residual(u):
        upad = np.concatenate([[0.0], u, [0.0]])
        return (upad[:-2] - 2.0 * u + upad[2:]) / hh ** 2 + g(u)

    u = (u0(x[1:-1]) if u0 is not None else 0.01 * np.sin(np.pi * x[1:-1]))
    for _ in range(maxit):
        F = residual(u)
        if np.max(np.abs(F)) < tol:
            break
        ab = np.zeros((3, n - 1))
        ab[0, 1:] = 1.0 / hh ** 2
        ab[1, :] = -2.0 / hh ** 2 + gp(u)
        ab[2, :-1] = 1.0 / hh ** 2
        d = solve_banded((1, 1), ab, -F)
        lam, base = 1.0, np.max(np.abs(F))
        while lam > 1e-8 and np.max(np.abs(residual(u + lam * d))) >= base:
            lam *= 0.5
        u = u + lam * d
    return x, np.concatenate([[0.0], u, [0.0]])


def gauss_kernel_hat_integral(t, j, nodes, alpha, order=12, dyadic=40):
    """Quadrature oracle for the integral of G(t, ., alpha) * hat_j.

    Composite Gauss-Legendre over each support element of the hat function,
    split at the kink s = t, with panels refined geometrically toward both
    piece endpoints (the kernel's fractional powers make derivatives blow up
    at s = t and s = 1, where plain composite panels lose accuracy).
    Entirely independent of the closed-form antiderivatives in the package.
    """
    from math import gamma as _gamma

    a1 = alpha - 1.0

    def kernel(tv, s):
        out = (tv * (1.0 - s)) ** a1 - np.maximum(tv - s, 0.0) ** a1
        return out / _gamma(alpha)

    xg, wg = np.polynomial.legendre.leggauss(order)
    total = 0.0
    pieces = []
    if j > 0:
        pieces.append((nodes[j - 1], nodes[j],
                       lambda s: (s - nodes[j - 1]) / (nodes[j] - nodes[j - 1])))
    if j < len(nodes) - 1:
        pieces.append((nodes[j], nodes[j + 1],
                       lambda s: (nodes[j + 1] - s) / (nodes[j + 1] - nodes[j])))
    for lo, hi, hat in pieces:
        cuts = [lo, hi] if not lo < t < hi else [lo, t, hi]
        for a, b in zip(cuts[:-1], cuts[1:]):
            width = b - a
            edges = sorted({a, b}
                           | {a + width * 2.0 ** -k for k in range(1, dyadic)}
                           | {b - width * 2.0 ** -k for k in range(1, dyadic)})
            for pa, pb in zip(edges[:-1], edges[1:]):
                s = pa + 0.5 * (pb - pa) * (xg + 1.0)
                w = 0.5 * (pb - pa) * wg
                total += float(np.sum(w * kernel(t, s) * hat(s)))
    return total


# Frozen goldens, regenerated by running this file.  Principal eigenvalues of
# the unit-weight problem from a dense n=2000 graded assembly polished by
# shifted inverse iteration with a 2-norm Rayleigh quotient (an estimator
# independent of the production sup-norm power iteration).
LAMBDA1_UNIT_WEIGHT = {
    1.5: 5.075429880462331,
    1.6: 5.609626406659315,
    1.8: 7.240317446131432,
}


def oracle_lambda1(alpha, n=2000):
    from fracbvp.grid import production_mesh
    from fracbvp.operator import WeightFamily, assemble

    mesh = production_mesh(alpha, n)
    A = assemble(mesh, alpha, WeightFamily.constant(1.0)).matrix
    x = mesh.nodes ** (alpha - 1.0) * (1.0 - mesh.nodes)
    x /= np.linalg.norm(x)
    for _ in range(60):
        x = A @ x
        x /= np.linalg.norm(x)
    r = float(x @ (A @ x))
    eye = np.eye(len(x))
    for _ in range(5):
        y = np.linalg.solve(A - (r * 1.000001) * eye, x)
        x = y / np.linalg.norm(y)
        r = float(x @ (A @ x))
    return 1.0 / r


if __name__ == "__main__":
    for a in sorted(LAMBDA1_UNIT_WEIGHT):
        print(f"lambda1({a}) = {oracle_lambda1(a)!r}")
