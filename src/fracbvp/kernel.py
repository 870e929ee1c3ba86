"""Green's kernel of the order-alpha two-point Dirichlet problem on [0,1].

The kernel has the two-branch form

    G(t,s,alpha) = [ (t(1-s))^(alpha-1) - (t-s)^(alpha-1) ] / Gamma(alpha),  s <= t,
    G(t,s,alpha) =   (t(1-s))^(alpha-1) / Gamma(alpha),                      t <= s,

with 1 < alpha <= 2.  At alpha = 2 it reduces to the classical kernel
s(1-t) / t(1-s).  This module integrates the kernel exactly against
piecewise-linear hat functions: both required antiderivatives are elementary
powers, so no quadrature is involved and the derivative kink along s = t
costs no accuracy.  At alpha = 2 the kernel is semiseparable, so its
product-integration image takes O(n) operations and no matrix
(``classical_image``).  At every order the kernel above the diagonal is its
separable branch alone, whose hat integrals ``separable_hat_integrals``
gives in O(n); ``green_hat_matrix`` subtracts the (t-s)^(alpha-1) branch
from the rank-one product of t^(alpha-1) and those integrals below the
diagonal, in row blocks.  ``operator.assemble`` computes both factors once
and keeps them, weighted, on the ``OperatorMatrix``.
``_segment_hats`` gives both branches' hat integrals with one log1p, expm1
and power per segment and row.

All functions are pure and safe to call concurrently.
"""

import math

import numpy as np

from .errors import HypothesisError

ALPHA_MIN = 1.0
ALPHA_MAX = 2.0
# rows per block of green_hat_matrix: enough to amortize the per-call cost
# of numpy, few enough to keep the block temporaries small
_ROW_BLOCK = 32


def check_order(alpha):
    """Validate the differentiation order ``1 < alpha <= 2``."""
    alpha = float(alpha)
    if not ALPHA_MIN < alpha <= ALPHA_MAX:
        raise HypothesisError(
            "order-range", f"order alpha must lie in (1, 2], got {alpha!r}")
    return alpha


def _segment_hats(x, y, scale, alpha):
    """Integrals of u^(alpha-1) against the two hat pieces of one segment.

    In u = t - s (singular branch) or u = 1 - s (separable branch) a segment
    of width d runs from u = x >= 0 down to u = y; y <= 0 means it reaches
    u = 0.  Returns ``(rising, falling)``, the integrals over u >= 0 against
    (x - u)/d and (u - y)/d, times ``scale = 1/(Gamma(alpha+2) d)``, from
    one power difference D = x^a - y^a = y^a expm1(a log1p((x - y)/y)),
    exact to relative rounding for any gap (x^a where y <= 0), and the
    identity x^(a+1) - y^(a+1) = x D + (x - y) y^a, of two terms >= 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        w = x - y
        p = y ** alpha
        delta = np.log1p(w / y)
        delta *= alpha
        np.expm1(delta, out=delta)
        delta *= p
    edge = ~(y > 0.0)
    np.power(x, alpha, out=delta, where=edge)
    np.copyto(p, 0.0, where=edge)
    xd = x * delta
    p *= w                                  # (x - y) y^a
    rising = xd - alpha * p
    xd += p
    xd *= alpha
    falling = y * delta
    falling *= -(alpha + 1.0)
    falling += xd
    rising *= scale
    falling *= scale
    return rising, falling


def _hat_scale(nodes, alpha):
    """1/(Gamma(alpha+2) d) for each segment of width d."""
    return 1.0 / (math.gamma(alpha + 2.0) * np.diff(nodes))


def green_hat_matrix(mesh, alpha, power, c):
    """All hat integrals at the nodes: [i, j] is the integral of
    G(t_i, ., alpha) against hat_j, the piecewise-linear nodal basis
    function of node j.

    The outer product of ``power`` = t^(alpha-1) at the nodes with ``c`` =
    ``separable_hat_integrals`` fills the one m x m buffer; the
    (t-s)^(alpha-1) branch is then subtracted a block of ``_ROW_BLOCK`` rows
    at a time, from max(t - s_k, 0) formed once for the nodes left of the
    block's last row.  Right of them the matrix keeps the rank-one product
    exactly.  The matrix is C-ordered: a BLAS matrix-vector product sums in
    memory order.
    """
    alpha = check_order(alpha)
    nodes = mesh.nodes
    a = np.outer(power, c)
    scale = _hat_scale(nodes, alpha)
    for r0 in range(0, len(nodes), _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, len(nodes))
        x = np.subtract.outer(nodes[r0:r1], nodes[:r1])
        np.maximum(x, 0.0, out=x)
        rising, falling = _segment_hats(x[:, :-1], x[:, 1:], scale[:r1 - 1],
                                        alpha)
        a[r0:r1, 1:r1] -= rising
        a[r0:r1, :r1 - 1] -= falling
    return a


def separable_hat_integrals(nodes, alpha):
    """Separable-branch hat integrals c_j = int (1-s)^(alpha-1) hat_j / Gamma(alpha).

    For t_i <= t_(j-1) the (t-s)^(alpha-1) branch misses hat j, so above the
    diagonal ``green_hat_matrix`` is the rank-one product of t^(alpha-1) and
    c.  The closed forms of ``_segment_hats`` in u = 1 - s, in O(n).
    """
    alpha = check_order(alpha)
    rising, falling = _segment_hats(1.0 - nodes[:-1], 1.0 - nodes[1:],
                                    _hat_scale(nodes, alpha), alpha)
    c = np.zeros(len(nodes))
    c[:-1] += falling
    c[1:] += rising
    return c


def classical_image(nodes, g):
    """Product-integration image at alpha = 2, in O(n) and without a matrix.

    Returns, at each node t_i, the exact integral of the classical kernel
    G(t, s, 2) = min(t, s)(1 - max(t, s)) against the piecewise-linear
    interpolant g^ of the nodal values ``g``,

        (1 - t_i) int_0^t_i s g^(s) ds + t_i int_t_i^1 (1 - s) g^(s) ds,

    which is what the assembled alpha = 2 operator applied to nodal values
    gives, with the weight folded into ``g``.  The kernel is semiseparable,
    so both integrals are prefix sums of exact per-segment moments.
    """
    nodes = np.asarray(nodes, dtype=float)
    g = np.asarray(g, dtype=float)
    s1, s2 = nodes[:-1], nodes[1:]
    g1, g2 = g[:-1], g[1:]
    d6 = (s2 - s1) / 6.0
    # int u*v over a segment, u and v linear: d/6 (2u1v1 + u1v2 + u2v1 + 2u2v2)
    s_moment = d6 * (g1 * (2.0 * s1 + s2) + g2 * (s1 + 2.0 * s2))
    r1, r2 = 1.0 - s1, 1.0 - s2
    r_moment = d6 * (g1 * (2.0 * r1 + r2) + g2 * (r1 + 2.0 * r2))
    left = np.concatenate(([0.0], np.cumsum(s_moment)))
    right = np.concatenate((np.cumsum(r_moment[::-1])[::-1], [0.0]))
    return (1.0 - nodes) * left + nodes * right
