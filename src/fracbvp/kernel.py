"""Green's kernel of the order-alpha two-point Dirichlet problem on [0,1].

The kernel has the two-branch form

    G(t,s,alpha) = [ (t(1-s))^(alpha-1) - (t-s)^(alpha-1) ] / Gamma(alpha),  s <= t,
    G(t,s,alpha) =   (t(1-s))^(alpha-1) / Gamma(alpha),                      t <= s,

with 1 < alpha <= 2.  At alpha = 2 it reduces to the classical kernel
s(1-t) / t(1-s).  Besides pointwise evaluation this module integrates the
kernel exactly against piecewise-linear hat functions: both required
antiderivatives are elementary powers, so no quadrature is involved and the
derivative kink along s = t costs no accuracy.  At alpha = 2 the kernel is
semiseparable, so its product-integration image takes O(n) operations and
no matrix (``classical_image``).

All functions are pure and safe to call concurrently.
"""

import math

import numpy as np

from .errors import HypothesisError

ALPHA_MIN = 1.0
ALPHA_MAX = 2.0
# segments per block of green_hat_matrix: enough to amortize the per-call
# cost of numpy, few enough to keep the block temporaries small
_SEGMENT_BLOCK = 32


def check_order(alpha):
    """Validate the differentiation order ``1 < alpha <= 2``."""
    alpha = float(alpha)
    if not ALPHA_MIN < alpha <= ALPHA_MAX:
        raise HypothesisError(
            "order-range", f"order alpha must lie in (1, 2], got {alpha!r}")
    return alpha


def gamma(x):
    """Gamma function for positive real arguments.

    Standard double-precision evaluation (relative error well below 1e-12).
    Raises ``ValueError`` for non-positive arguments.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"gamma requires a positive argument, got {x!r}")
    return math.gamma(x)


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


def _powdiff(x, y, e):
    """x**e - y**e for x >= y >= 0, without cancellation.

    The hat-function slopes scale like the reciprocal element width, so the
    power differences they multiply must be exact to relative (not absolute)
    rounding; the expm1/log1p form delivers that for any gap size.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    y_safe = np.where(y > 0.0, y, 1.0)
    stable = y_safe ** e * np.expm1(e * np.log1p((x - y) / y_safe))
    return np.where(y > 0.0, stable, x ** e)


def _segment_hats(t, tpow, s1, s2, alpha, start=0):
    """Integrals of G(t, ., alpha) against the two hat pieces on [s1, s2].

    Returns ``(rising, falling)``: the piece (s - s1)/d of the hat at ``s2``
    and the piece (s2 - s)/d of the hat at ``s1``, d = s2 - s1, at the points
    ``t``, with ``tpow = t**(alpha-1)``.  Both pieces share the segment's four
    power differences.  The separable branch contributes over the whole
    segment; the (t-s)^(alpha-1) branch only over [s1, min(s2, t)], which the
    clipped differences select (this is the closed-form split of a segment
    containing s = t).  That branch is exactly zero for t <= s1, so it is
    evaluated on ``t[start:]`` only, which must hold every t > s1.

    The segment ends may be arrays of several segments: with ``t`` and
    ``tpow`` given as columns, each result then has one column per segment.
    """
    ap1 = alpha + 1.0
    d = s2 - s1
    hats = ((-s1 / d, 1.0 / d), (s2 / d, -1.0 / d))     # a + b*s on [s1, s2]

    sig1 = 1.0 - s1
    sig2 = 1.0 - s2
    sep_a = _powdiff(sig1, sig2, alpha)
    sep_b = _powdiff(sig1, sig2, ap1)
    tail = t[start:]
    tm1 = np.maximum(tail - s1, 0.0)
    tm2 = np.maximum(tail - s2, 0.0)
    sing_a = _powdiff(tm1, tm2, alpha)
    sing_b = _powdiff(tm1, tm2, ap1)

    g = math.gamma(alpha)
    out = []
    for a, b in hats:
        part = tpow * ((a + b) * sep_a / alpha - b * sep_b / ap1)
        part[start:] -= (a + b * tail) * sing_a / alpha - b * sing_b / ap1
        out.append(part / g)
    return tuple(out)


def green_hat_integral(t, node_index, mesh, alpha):
    """Integral of G(t, ., alpha) against the hat function of one mesh node.

    Returns ``\\int_0^1 G(t, s, alpha) hat_j(s) ds`` in closed form, where
    ``hat_j`` is the piecewise-linear nodal basis function of ``mesh`` at
    ``node_index``.  ``t`` may be a scalar or an array (one value per row of
    an operator matrix).
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
    tpow = t_vec ** (alpha - 1.0)
    out = np.zeros(t_vec.shape)
    if j > 0:
        out += _segment_hats(t_vec, tpow, nodes[j - 1], nodes[j], alpha)[0]
    if j < len(nodes) - 1:
        out += _segment_hats(t_vec, tpow, nodes[j], nodes[j + 1], alpha)[1]
    return out.reshape(t_arr.shape) if t_arr.ndim else float(out[0])


def green_hat_matrix(mesh, alpha):
    """All hat integrals at the nodes: [i, j] = green_hat_integral(t_i, j).

    Built a block of segments at a time, so each segment's power differences
    serve both hats that share it, and the (t-s)^(alpha-1) branch is
    evaluated only on the rows below the block.  Entry [i, j] sums its left
    and right segments as ``green_hat_integral`` does, so the two agree bit
    for bit.  The matrix is C-ordered: the summation order of a BLAS
    matrix-vector product depends on the memory layout.
    """
    alpha = check_order(alpha)
    nodes = mesh.nodes
    m = len(nodes)
    t = nodes[:, np.newaxis]
    tpow = t ** (alpha - 1.0)
    a = np.zeros((m, m))
    for k0 in range(0, m - 1, _SEGMENT_BLOCK):
        k1 = min(k0 + _SEGMENT_BLOCK, m - 1)
        rising, falling = _segment_hats(t, tpow, nodes[k0:k1],
                                        nodes[k0 + 1:k1 + 1], alpha,
                                        start=k0 + 1)
        a[:, k0:k1] += falling
        a[:, k0 + 1:k1 + 1] += rising
    return a


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


def green_integral(t, alpha):
    """Closed form of the full kernel integral: t^(alpha-1)(1-t)/Gamma(alpha+1)."""
    alpha = check_order(alpha)
    t = np.asarray(t, dtype=float)
    out = t ** (alpha - 1.0) * (1.0 - t) / math.gamma(alpha + 1.0)
    return out if out.ndim else float(out)
