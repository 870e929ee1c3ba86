"""Test helpers built on the package's own internals.

Unlike ``oracles``, these are not independent checks: ``green_hat_integral``
runs ``kernel.green_hat_matrix``'s closed forms one hat at a time, and
``first_zero`` is one lane of the shooting integrator.  ``jacobian`` is the
dense Jacobian that the solvers only ever hold as its split.  ``norms``
gives the weighted norms the envelope tests compare against; ``sample`` and
``zeros`` build grid functions.
"""

from dataclasses import dataclass

import numpy as np

from fracbvp import shooting
from fracbvp.grid import GridFunction
from fracbvp.kernel import (_hat_scale, _segment_hats, check_order,
                            separable_hat_integrals)
from fracbvp.superlinear import _fprime


def sample(mesh, fn):
    """The grid function of ``fn`` at the nodes of ``mesh``."""
    return GridFunction(mesh, fn(mesh.nodes))


def zeros(mesh):
    return GridFunction(mesh, np.zeros(len(mesh.nodes)))


@dataclass(frozen=True)
class WeightedNorms:
    sup: float
    c2ma: float
    enorm: float


def norms(u, alpha):
    """Sup norm, max t^(2-alpha)|u|, and e-norm of a grid function.

    The e-norm is taken over interior nodes only (e vanishes at the
    endpoints); the t = 0 node contributes |u(0)| to the weighted norm at
    alpha = 2 and nothing for fractional orders, matching the limit of
    t^(2-alpha)|u(t)|.
    """
    alpha = check_order(alpha)
    t = u.mesh.nodes
    av = np.abs(u.values)
    sup = float(np.max(av))
    c2ma = float(np.max(t ** (2.0 - alpha) * av))
    ti = t[1:-1]
    enorm = float(np.max(av[1:-1] / (ti ** (alpha - 1.0) * (1.0 - ti))))
    return WeightedNorms(sup=sup, c2ma=c2ma, enorm=enorm)


def green_hat_integral(t, node_index, mesh, alpha):
    """Integral of G(t, ., alpha) against the hat function of one mesh node.

    Returns ``\\int_0^1 G(t, s, alpha) hat_j(s) ds`` in closed form, where
    ``hat_j`` is the piecewise-linear nodal basis function of ``mesh`` at
    ``node_index``.  ``t`` may be a scalar or an array (one value per row of
    an operator matrix).  ``green_hat_matrix``'s operations, in its order,
    so column j of that matrix is this at the nodes, bit for bit.
    """
    alpha = check_order(alpha)
    nodes = mesh.nodes
    j = int(node_index)
    if not 0 <= j < len(nodes):
        raise IndexError(f"node index {j} out of range for mesh with "
                         f"{len(nodes)} nodes")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    t_vec = np.atleast_1d(t_arr)
    lo, hi = max(j - 1, 0), min(j + 1, len(nodes) - 1)
    out = t_vec ** (alpha - 1.0) * separable_hat_integrals(
        nodes[lo:hi + 1], alpha)[j - lo]
    scale = _hat_scale(nodes[lo:hi + 1], alpha)
    for k in range(lo, hi):
        rising, falling = _segment_hats(np.maximum(t_vec - nodes[k], 0.0),
                                        t_vec - nodes[k + 1], scale[k - lo],
                                        alpha)
        out -= rising if k < j else falling
    return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])


def first_zero(beta, params):
    """z(beta), the first zero of u(., beta), from one lane of u alone."""
    return float(shooting._lanes([beta], params)[0][0])


def jacobian(A, f, u):
    """Dense I - A*f'(u), the reference for the split Jacobian."""
    fp = _fprime(f, u)
    # I - A*fp in one m x m buffer; 0.0 - P, not -P, keeps the sign of zero
    # that the subtraction from the identity gives
    jac = A.matrix * fp[np.newaxis, :]
    diag = 1.0 - np.diagonal(jac)
    np.subtract(0.0, jac, out=jac)
    np.fill_diagonal(jac, diag)
    return jac
