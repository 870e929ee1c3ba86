"""Meshes on [0,1], grid functions, and the weighted norms of the problem.

Grid functions are nodal values with piecewise-linear interpolation in
between, matching the product-integration scheme.  Three norms are tracked:
the sup norm, the boundary-compensated norm max t^(2-alpha)|u(t)|, and the
e-norm against e(t) = t^(alpha-1)(1-t).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .kernel import check_order

MIN_INTERVALS = 8
# bytes of the one dense float64 operator ``operator.assemble`` allocates,
# 8 m^2 for m nodes.  Newton and the margin hold one more buffer of its size
# (the triangular part of the Jacobian; the margin's SVD fallback takes the
# dense Jacobian and its work instead), so 1 GiB (m up to 11585; meshes in
# use reach n = 3072) keeps a run within a few GiB.
MAX_MATRIX_BYTES = 2 ** 30
# an inserted node this close to an existing one is taken as already there
NODE_TOL = 1e-12


class Mesh:
    """Ascending nodes t0 = 0 < t1 < ... < tn = 1, immutable after creation."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        nodes = np.ascontiguousarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < MIN_INTERVALS + 1:
            raise HypothesisError(
                "mesh-size",
                f"a mesh needs at least {MIN_INTERVALS} intervals, "
                f"got {max(len(nodes) - 1, 0)}")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("mesh endpoints must be exactly 0 and 1")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("mesh nodes must be strictly increasing")
        nodes.setflags(write=False)
        self.nodes = nodes

    @property
    def n(self):
        """Number of intervals."""
        return len(self.nodes) - 1

    def same_as(self, other):
        return self.nodes.shape == other.nodes.shape and np.array_equal(
            self.nodes, other.nodes)

    def with_node(self, t0):
        """Mesh with ``t0`` inserted as an extra node (no-op if one is close)."""
        t0 = float(t0)
        if not 0.0 <= t0 <= 1.0:
            raise ValueError("inserted node must lie in [0, 1]")
        if np.min(np.abs(self.nodes - t0)) <= NODE_TOL:
            return self
        return Mesh(np.sort(np.append(self.nodes, t0)))

    def with_kinks(self, weight):
        """Mesh with every interior kink of ``weight`` inserted as a node."""
        mesh = self
        for t0 in weight.kink_points():
            mesh = mesh.with_node(t0)
        return mesh

    def __repr__(self):
        return f"Mesh(n={self.n})"


def make_mesh(n, grading="uniform", exponent=2.0):
    """Build a mesh with ``n`` intervals.

    ``grading="uniform"`` gives equispaced nodes; ``grading="graded"`` puts
    node i at (i/n)^exponent, clustering at t = 0 to resolve the t^(alpha-1)
    boundary behavior of solutions.  Raises ``HypothesisError`` before
    allocating when the dense operator would exceed ``MAX_MATRIX_BYTES``.
    """
    n = int(n)
    if n < MIN_INTERVALS:
        raise HypothesisError(
            "mesh-size", f"need at least {MIN_INTERVALS} intervals, got {n}")
    if 8 * (n + 1) ** 2 > MAX_MATRIX_BYTES:
        raise HypothesisError("mesh-size", f"a dense operator on {n + 1} "
                              f"nodes exceeds {MAX_MATRIX_BYTES} bytes")
    i = np.arange(n + 1, dtype=float)
    if grading == "uniform":
        return Mesh(i / n)
    if grading == "graded":
        q = float(exponent)
        if not q >= 1.0:
            raise HypothesisError(
                "mesh-grading", f"grading exponent must be >= 1, got {q!r}")
        nodes = (i / n) ** q
        if np.any(np.diff(nodes) <= 0.0):       # underflow to 0 at large q
            raise HypothesisError(
                "mesh-grading", f"grading exponent {q!r} makes nodes coincide")
        return Mesh(nodes)
    raise ValueError(f"unknown grading {grading!r}")


def default_grading_exponent(alpha):
    """Grading exponent resolving the t^(alpha-1) layer, capped at 3."""
    alpha = check_order(alpha)
    return min(3.0, max(1.0, 2.0 / (alpha - 1.0)))


def production_mesh(alpha, n=400, weight=None):
    """Default solver mesh: graded toward t = 0, weight kinks inserted."""
    mesh = make_mesh(n, "graded", default_grading_exponent(alpha))
    return mesh if weight is None else mesh.with_kinks(weight)


class GridFunction:
    """Nodal values on a mesh; piecewise linear between nodes."""

    __slots__ = ("mesh", "values")

    def __init__(self, mesh, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.shape != mesh.nodes.shape:
            raise ValueError(
                f"value count {values.shape} does not match mesh node count "
                f"{mesh.nodes.shape}")
        self.mesh = mesh
        self.values = values

    @classmethod
    def sample(cls, mesh, fn):
        return cls(mesh, np.asarray(fn(mesh.nodes), dtype=float))

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros_like(mesh.nodes))

    def interp(self, x):
        return np.interp(x, self.mesh.nodes, self.values)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["t", "value"])
            for t, v in zip(self.mesh.nodes, self.values):
                writer.writerow([f"{t:.17g}", f"{v:.17g}"])

    @classmethod
    def from_csv(cls, path):
        ts, vs = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["t", "value"]:
                raise ValueError(f"unexpected grid CSV header {header!r}")
            for row in reader:
                ts.append(float(row[0]))
                vs.append(float(row[1]))
        return cls(Mesh(np.asarray(ts)), np.asarray(vs))

    def __repr__(self):
        return f"GridFunction(n={self.mesh.n})"


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


def boundary_weight(mesh, alpha):
    """Nodal values of e(t) = t^(alpha-1)(1-t), the cone gauge function."""
    alpha = check_order(alpha)
    t = mesh.nodes
    return t ** (alpha - 1.0) * (1.0 - t)
