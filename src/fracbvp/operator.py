"""Weight and nonlinearity families, and the discretized kernel operator.

The linear map x -> integral of G(.,s,alpha) h(s) x(s) ds is discretized by
product integration: the integrand h*x is replaced by its piecewise-linear
interpolant and integrated against the kernel exactly.  The resulting dense
matrix has entries A[i,j] = (integral of G(t_i, .) hat_j) * h(t_j), hat_j
the nodal basis function of node j; it applies to nodal vectors and is
second-order accurate for smooth h*x.  Callers use it as the solvers do:
``A.matrix @ x`` for the linear map and ``A.nonlinear_image(f, u)`` for
x = f(|u|).  The unweighted matrix comes from ``kernel.green_hat_matrix``:
the outer product of t^(alpha-1) with the separable-branch hat integrals,
minus the (t-s)^(alpha-1) branch, which it evaluates below the diagonal
only, in blocks of rows.  ``assemble`` keeps the two factors of that
rank-one product, weighted, as ``OperatorMatrix.factors`` for Newton's
split Jacobian.

Assembly is a pure function of its arguments; matrices are immutable after
construction and safe to share across threads.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .grid import MAX_MATRIX_BYTES, Mesh
from .kernel import check_order, green_hat_matrix, separable_hat_integrals


class WeightFamily:
    """Nonnegative weight h on [0,1], not identically zero.

    Kinds: ``constant``, ``power_offset`` (h(t) = |t - t0|^l), ``polynomial``
    (ascending coefficients), and ``tabulated`` (piecewise linear from a grid
    function).
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params
        self._validate()

    @classmethod
    def constant(cls, c):
        return cls("constant", {"c": float(c)})

    @classmethod
    def power_offset(cls, l, t0):
        return cls("power_offset", {"l": float(l), "t0": float(t0)})

    @classmethod
    def polynomial(cls, coeffs):
        return cls("polynomial", {"coeffs": tuple(float(c) for c in coeffs)})

    @classmethod
    def tabulated(cls, gridfunction):
        return cls("tabulated", {"table": gridfunction})

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full(t.shape, self.params["c"])
        elif self.kind == "power_offset":
            out = np.abs(t - self.params["t0"]) ** self.params["l"]
        elif self.kind == "polynomial":
            out = np.polynomial.polynomial.polyval(t, self.params["coeffs"])
        else:
            out = self.params["table"].interp(t)
        return out if out.ndim else float(out)

    def _validate(self):
        numbers = (self.params["table"].values if self.kind == "tabulated"
                   else np.hstack(list(self.params.values())))
        if not np.all(np.isfinite(numbers)):
            raise HypothesisError(
                "weight-positivity", f"{self.kind} weight parameters must be finite")
        if self.kind == "power_offset" and not (
                self.params["l"] > 0.0 and 0.0 <= self.params["t0"] <= 1.0):
            raise HypothesisError(
                "weight-positivity", "power-offset weight needs l > 0 and its "
                "center in [0, 1]")
        low, high = self.extremes()
        if low < 0.0:
            raise HypothesisError(
                "weight-positivity", f"weight is negative on [0, 1]: {low!r}")
        if high <= 0.0:
            raise HypothesisError(
                "weight-positivity", "weight is identically zero")

    def extremes(self):
        """Exact (min, max) of h on [0, 1], read per kind: |t - t0|^l at t0
        and at the far end, a polynomial at 0, 1 and the real parts of its
        critical points (a multiple one may come out complex), a table at
        its values.  A polynomial minimum within Horner's rounding bound
        2 deg eps sum|c_k| of zero (Higham, Accuracy and Stability of
        Numerical Algorithms, 2002, 5.1) is zero, so a weight that touches
        zero at a double root holds."""
        if self.kind == "constant":
            return self.params["c"], self.params["c"]
        if self.kind == "power_offset":
            t0 = self.params["t0"]
            return 0.0, max(t0, 1.0 - t0) ** self.params["l"]
        if self.kind == "tabulated":
            values = self.params["table"].values
            return float(np.min(values)), float(np.max(values))
        poly = np.polynomial.Polynomial(self.params["coeffs"])
        eps = np.finfo(float).eps
        # leading terms of rounding size would overflow the companion matrix
        slope = poly.deriv()
        slope = slope.trim(eps * np.sum(np.abs(slope.coef)))
        crit = [0.0, 1.0] + [r.real for r in slope.roots()
                             if 0.0 <= r.real <= 1.0]
        values = [float(poly(t)) for t in crit]
        low, high = min(values), max(values)
        rounding = 2.0 * poly.degree() * eps * np.sum(np.abs(poly.coef))
        return (0.0 if -rounding <= low < 0.0 else low), high

    def kink_points(self):
        """Interior points where h is continuous but not smooth."""
        if self.kind == "power_offset":
            t0 = self.params["t0"]
            if 0.0 < t0 < 1.0:
                return (t0,)
        if self.kind == "tabulated":
            return tuple(self.params["table"].mesh.nodes[1:-1])
        return ()

    def __repr__(self):
        return f"WeightFamily({self.kind!r}, {self.params!r})"


class NonlinearityFamily:
    """Nonlinearity f with derivative f', continuous with f(s) > 0 for s > 0.

    Kinds: ``power`` (c*s^p), ``affine_power`` (lam*(s + s^q)), and
    ``saturating`` (a*s/(1+s)).
    """

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params
        self._validate()

    @classmethod
    def power(cls, c, p):
        return cls("power", {"c": float(c), "p": float(p)})

    @classmethod
    def affine_power(cls, lam, q):
        return cls("affine_power", {"lam": float(lam), "q": float(q)})

    @classmethod
    def saturating(cls, a):
        return cls("saturating", {"a": float(a)})

    def _validate(self):
        for key, value in self.params.items():
            if not (value > 0.0 and math.isfinite(value)):
                raise HypothesisError(
                    "nonlinearity-positivity",
                    f"{self.kind} parameter {key} must be positive and finite")

    def f(self, s):
        s = np.asarray(s, dtype=float)
        if self.kind == "power":
            out = self.params["c"] * s ** self.params["p"]
        elif self.kind == "affine_power":
            out = self.params["lam"] * (s + s ** self.params["q"])
        else:
            out = self.params["a"] * s / (1.0 + s)
        return out if out.ndim else float(out)

    def fprime(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            if self.kind == "power":
                c, p = self.params["c"], self.params["p"]
                out = c * p * s ** (p - 1.0)
            elif self.kind == "affine_power":
                lam, q = self.params["lam"], self.params["q"]
                out = lam * (1.0 + q * s ** (q - 1.0))
            else:
                out = self.params["a"] / (1.0 + s) ** 2
        return out if out.ndim else float(out)

    def ratio_limits(self):
        """Limits of f(s)/s as s -> 0+ and s -> infinity."""
        if self.kind == "power":
            c, p = self.params["c"], self.params["p"]
            if p < 1.0:
                return math.inf, 0.0
            if p > 1.0:
                return 0.0, math.inf
            return c, c
        if self.kind == "affine_power":
            lam, q = self.params["lam"], self.params["q"]
            if q < 1.0:
                return math.inf, lam
            if q > 1.0:
                return lam, math.inf
            return 2.0 * lam, 2.0 * lam
        return self.params["a"], 0.0

    def __repr__(self):
        return f"NonlinearityFamily({self.kind!r}, {self.params!r})"


@dataclass(frozen=True)
class OperatorMatrix:
    """Product-integration matrix of x -> integral G(., s, alpha) h(s) x(s) ds.

    ``mesh`` is the assembly mesh (weight kinks inserted); boundary rows are
    identically zero and all entries are nonnegative.  ``factors`` is
    (u, v) with ``matrix[i, j]`` = u_i v_j for j > i, u zero at both ends.
    """

    mesh: Mesh
    alpha: float
    weight: WeightFamily
    matrix: np.ndarray
    factors: tuple

    def nonlinear_image(self, f, values):
        """Nodal values of the operator applied to f(|u|), u given by ``values``.

        Fixed points of this map are discrete positive solutions; the
        absolute value keeps f defined when an iterate dips negative.
        """
        return self.matrix @ f.f(np.abs(values))


def assemble(mesh, alpha, h):
    """Assemble the dense product-integration matrix for weight ``h``.

    Elements containing a kink of ``h`` are split by inserting the kink as a
    mesh node, so all nodal integrands stay piecewise smooth; the returned
    matrix's ``mesh`` attribute is then the authoritative mesh.  A matrix
    above ``MAX_MATRIX_BYTES`` raises ``HypothesisError`` before allocation.
    """
    alpha = check_order(alpha)
    mesh = mesh.with_kinks(h)
    hvals = np.asarray(h(mesh.nodes), dtype=float)
    if np.any(hvals < 0.0):
        raise HypothesisError("weight-positivity", "weight negative at a node")
    if not np.max(hvals) >= np.finfo(float).tiny:
        # a subnormal maximum leaves a matrix no iteration can resolve
        raise HypothesisError("weight-positivity", "weight vanishes or is "
                              "subnormal at all nodes")
    m = len(mesh.nodes)
    if 8 * m * m > MAX_MATRIX_BYTES:
        raise HypothesisError(
            "mesh-size", f"a dense operator on {m} nodes takes {8 * m * m} "
            f"bytes, above the bound of {MAX_MATRIX_BYTES}")
    u = mesh.nodes ** (alpha - 1.0)
    c = separable_hat_integrals(mesh.nodes, alpha)
    a = green_hat_matrix(mesh, alpha, u, c)
    a *= hvals[np.newaxis, :]
    a[0, :] = 0.0
    a[-1, :] = 0.0
    # the closed forms cancel exactly at worst to rounding; clip the dust
    # (the intermediates are O(1), so the dust floor has an absolute part)
    floor = -(1e-13 + 1e-12 * max(np.max(a), 0.0))
    if np.min(a) < floor:
        raise AssertionError("assembled matrix has a significantly negative entry")
    np.maximum(a, 0.0, out=a)
    u[0] = u[-1] = 0.0
    v = c * hvals
    for array in (a, u, v):
        array.setflags(write=False)
    return OperatorMatrix(mesh=mesh, alpha=alpha, weight=h, matrix=a,
                          factors=(u, v))
