"""Modal DG fields on periodic meshes, plus the two projections used here.

A field stores, per cell, the coefficients of the Legendre basis mapped to
that cell (tensor products of mapped Legendre polynomials in 2D).  Per-cell
work runs over the mesh's ``axes`` with no 1D/2D branch, through
``sample(f, mesh, *xi)`` (f at reference points xi, one array per axis, in
every cell; ``ModalField.sample`` for a field), ``basis_table`` (every basis
function on a tensor grid of reference points, cached per Gauss rule by
``gauss_table``), ``jacobian`` (the outer product of the half-widths) and
``mass_weights`` (the diagonal mass matrix, one weight per coefficient).

Two projections produce fields from smooth functions:

* ``l2_project`` - the standard orthogonal L2 projection, sampled in blocks
  of rows of the first cell axis (``GaussTable.row_blocks``);
* ``shifted_projection`` - the interface-average-matching projection: in 1D
  moments against degree k-1 plus the mean of the two endpoint values; in 2D
  the tensor product of the 1D one.  For k = 0 it is the cell average in 1D
  and 2D alike.  Singular for odd k (null direction L_k; for k = 1 that is
  x), so odd degrees are rejected.  ``shifted_projection_1d`` and
  ``shifted_projection_2d`` name the same function.

All function arguments must accept numpy arrays (vectorized evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .basis import QuadratureRule, default_rule, legendre_deriv_table, legendre_table, reference_operators
from .mesh import Mesh1D, TensorMesh2D

__all__ = [
    "SpaceKind",
    "ModalField",
    "Problem",
    "GaussTable",
    "sample",
    "basis_table",
    "gauss_table",
    "jacobian",
    "mass_weights",
    "l2_project",
    "shifted_projection",
    "shifted_projection_1d",
    "shifted_projection_2d",
    "shift_local_matrix_1d",
    "shift_local_matrix_2d",
]

_KINDS = ("P1D", "Q2D", "P2D")
_ENDS = np.array([-1.0, 1.0])

# Entries of a Gauss grid that a level samples at a time (512 KB; `GaussTable.row_blocks`), for its projection,
# E2, EA and re-quadrature E2.  At P3 N=256 (65,536 cells of 49 projection and 81 error points) the traced peaks
# fell from 77 to 6.8 MB for `l2_project` (5.2 MB of it the coefficients) and from 127 to 2.6 MB for E2 with EA,
# at the same speed.  Every 1D level of the shipped ladders and 2D levels up to N=25 at Q2 take one block.
_SAMPLE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SpaceKind:
    """Polynomial space per cell: 1D degree-k, or tensor/total-degree k in 2D."""

    kind: str
    degree: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}; expected one of {_KINDS}")
        if self.degree < 0:
            raise ValueError("polynomial degree must be >= 0")

    @property
    def dimension(self) -> int:
        return 1 if self.kind == "P1D" else 2

    @property
    def dof(self) -> int:
        return len(self.degrees)

    @property
    def degrees(self) -> tuple:
        """Basis index list: degrees m (1D) or pairs (a, b) (2D), lexicographic."""
        return _space_degrees(self.kind, self.degree)

    def axes_of(self, mesh) -> tuple:
        """The mesh's axes, after checking that the mesh has this space's dimension."""
        axes = getattr(mesh, "axes", ())
        if len(axes) != self.dimension:
            raise TypeError(f"{self.kind} needs a {self.dimension}D mesh, got {type(mesh).__name__}")
        return axes


@lru_cache(maxsize=None)
def _space_degrees(kind: str, k: int) -> tuple:
    if kind == "P1D":
        return tuple(range(k + 1))
    if kind == "Q2D":
        return tuple((a, b) for a in range(k + 1) for b in range(k + 1))
    return tuple((a, b) for a in range(k + 1) for b in range(k + 1 - a))


def _axis_degrees(space: SpaceKind) -> np.ndarray:
    """The basis degrees as one row per axis, shape (dimension, dof)."""
    return np.reshape(space.degrees, (space.dof, -1)).T


@lru_cache(maxsize=None)
def _mass_vector(kind: str, k: int) -> np.ndarray:
    """Reference-cell mass of each basis function (geometry factors excluded)."""
    out = np.prod(2.0 / (2 * _axis_degrees(SpaceKind(kind, k)) + 1), axis=0)
    out.flags.writeable = False
    return out


def sample(f: Callable, mesh: Mesh1D | TensorMesh2D, *xi) -> np.ndarray:
    """f at the reference points xi (one array per axis) mapped into every cell.

    The result has shape cells + points, e.g. (Nx, Ny, Qx, Qy) in 2D.  f gets
    one broadcastable coordinate array per axis, (Nx, 1, Qx, 1) and
    (1, Ny, 1, Qy) in 2D; reference points +-1 map exactly onto the mesh's
    stored nodes.  A separable f is cheapest written as a combination of
    per-axis factors, so that only the last product fills the full grid (see
    `study.PROBLEMS["advect2d_sin"]`).
    """
    axes = mesh.axes
    if len(xi) != len(axes):
        raise TypeError(f"a {len(axes)}D mesh takes {len(axes)} arrays of points, got {len(xi)}")
    xi = [np.atleast_1d(np.asarray(x, dtype=float)) for x in xi]
    coords = []
    for i, (axis, x) in enumerate(zip(axes, xi)):
        pts = axis.centers[:, None] + 0.5 * axis.widths[:, None] * x
        pts[:, x == -1.0] = axis.nodes[:-1, None]
        pts[:, x == 1.0] = axis.nodes[1:, None]
        shape = [1] * (2 * len(axes))
        shape[i], shape[len(axes) + i] = pts.shape
        coords.append(pts.reshape(shape))
    full = tuple(axis.num_cells for axis in axes) + tuple(x.size for x in xi)
    vals = np.asarray(f(*coords), dtype=float)
    return vals if vals.shape == full else np.broadcast_to(vals, full)


def basis_table(space: SpaceKind, *xi) -> np.ndarray:
    """Every basis function of the space on the tensor grid of reference points xi.

    One array of points per axis; the result has shape (dof,) + points, rows
    in the space's degree order.
    """
    if len(xi) != space.dimension:
        raise ValueError(f"a {space.dimension}D space takes {space.dimension} arrays of points, got {len(xi)}")
    tables = [legendre_table(space.degree, np.atleast_1d(x))[deg] for deg, x in zip(_axis_degrees(space), xi)]
    return reduce(lambda a, b: a[..., None] * b[:, None, :], tables)  # one or two axes


class GaussTable(NamedTuple):
    """One Gauss rule on every axis of a space's reference cell, with its basis table."""

    points: tuple  # the rule's nodes, once per axis
    weights: np.ndarray  # tensor-product weights, flattened in C order to (Q,)
    values: np.ndarray  # basis_table on the grid, (dof, Q)
    weighted: np.ndarray  # values * weights, (dof, Q): samples @ weighted.T are the moments

    def sample(self, f: Callable, mesh: Mesh1D | TensorMesh2D) -> np.ndarray:
        """`sample` on this grid with the points flattened: shape cells + (Q,)."""
        return sample(f, mesh, *self.points).reshape(tuple(axis.num_cells for axis in mesh.axes) + (-1,))

    def row_blocks(self, mesh: Mesh1D | TensorMesh2D) -> Iterator[tuple[slice, Mesh1D | TensorMesh2D]]:
        """Blocks of whole rows of the mesh's first cell axis, as (rows, a mesh of their cells), to sample one at a time.

        A block holds at most `_SAMPLE_ENTRIES` entries of this grid, and at least one row.
        """
        first, *rest = mesh.axes
        rows = max(1, _SAMPLE_ENTRIES // (self.weights.size * int(np.prod([axis.num_cells for axis in rest]))))
        for start in range(0, first.num_cells, rows):
            if rows < first.num_cells:  # else the one block is the mesh itself
                part = Mesh1D(first.nodes[start : start + rows + 1])
                mesh = TensorMesh2D(part, *rest) if rest else part
            yield slice(start, start + rows), mesh


@lru_cache(maxsize=None)
def gauss_table(space: SpaceKind, rule: QuadratureRule) -> GaussTable:
    """The (cached) basis table of a space on the tensor grid of a Gauss rule."""
    points = (rule.nodes,) * space.dimension
    weights = reduce(np.multiply.outer, (rule.weights,) * space.dimension).ravel()
    values = basis_table(space, *points).reshape(space.dof, -1)
    weighted = values * weights
    for table in (weights, values, weighted):
        table.flags.writeable = False
    return GaussTable(points, weights, values, weighted)


def jacobian(mesh: Mesh1D | TensorMesh2D) -> np.ndarray:
    """Per-cell ratio of physical to reference area: the outer product of the half-widths."""
    return reduce(np.multiply.outer, [0.5 * axis.widths for axis in mesh.axes])


def mass_weights(space: SpaceKind, mesh: Mesh1D | TensorMesh2D) -> np.ndarray:
    """The diagonal mass matrix, one weight per coefficient (shape cells + (dof,)): (u, v) = sum u * v * weights."""
    return jacobian(mesh)[..., None] * _mass_vector(space.kind, space.degree)


@dataclass
class ModalField:
    """Per-cell modal coefficients over a mesh; shape (N, dof) or (Nx, Ny, dof)."""

    space: SpaceKind
    mesh: Mesh1D | TensorMesh2D
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = tuple(axis.num_cells for axis in self.space.axes_of(self.mesh)) + (self.space.dof,)
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient array has shape {self.coeffs.shape}, expected {expected}")

    def like(self, coeffs: np.ndarray) -> "ModalField":
        """A new field on the same mesh/space with the given coefficients."""
        return ModalField(self.space, self.mesh, coeffs)

    def eval_at(self, *x: float) -> float:
        """Point value using the owning cell (left-closed cell convention)."""
        axes = self.mesh.axes
        if len(x) != len(axes):
            raise ValueError(f"a {len(axes)}D field takes {len(axes)} coordinates, got {len(x)}")
        cell = tuple(axis.locate(c) for axis, c in zip(axes, x))
        xi = [2.0 * (c - axis.centers[j]) / axis.widths[j] for axis, c, j in zip(axes, x, cell)]
        return float(self.coeffs[cell] @ basis_table(self.space, *xi).ravel())

    def sample(self, *xi) -> np.ndarray:
        """Values at the reference points xi (one array per axis) in every cell; shape cells + points."""
        table = basis_table(self.space, *xi)
        return (self.coeffs @ table.reshape(self.space.dof, -1)).reshape(self.coeffs.shape[:-1] + table.shape[1:])

    def cell_average(self, *index: int) -> float:
        """Mean value over a cell; the constant mode's coefficient by orthogonality."""
        return float(self.coeffs[tuple(index)][0])

    def inner(self, other: "ModalField") -> float:
        """Global L2 inner product with a field on the same mesh and space, exact via orthogonality."""
        return float((self.coeffs * other.coeffs).ravel() @ mass_weights(self.space, self.mesh).ravel())

    def norm_l2(self) -> float:
        """Global L2 norm, exact via orthogonality."""
        return float(np.sqrt(self.norm_l2_squared()))

    def norm_l2_squared(self) -> float:
        return self.inner(self)


@dataclass(frozen=True)
class Problem:
    """An advection test problem: initial data and exact solution on a periodic box."""

    name: str
    dimension: int
    domain: tuple[float, float]
    initial: Callable
    exact: Callable  # exact(x, t) in 1D, exact(x, y, t) in 2D


def l2_project(f: Callable, mesh: Mesh1D | TensorMesh2D, space: SpaceKind) -> ModalField:
    """Standard orthogonal L2 projection of f onto the space, cell by cell, sampled a block of rows at a time."""
    g = gauss_table(space, default_rule(space.degree))
    coeffs = np.empty(tuple(axis.num_cells for axis in space.axes_of(mesh)) + (space.dof,))
    for rows, part in g.row_blocks(mesh):
        np.matmul(g.sample(f, part), g.weighted.T, out=coeffs[rows])  # the moments
    coeffs /= _mass_vector(space.kind, space.degree)
    return ModalField(space, mesh, coeffs)


# ---------------------------------------------------------------------------
# Shifted projection


def shift_local_matrix_1d(k: int) -> np.ndarray:
    """Reference-cell matrix of the 1D shifted projection in the Legendre basis.

    Rows 0..k-1 are the moment conditions against L_m; the last row is the
    endpoint-average condition (L_n(1) + L_n(-1)) / 2.  For odd k the last
    column vanishes identically, so the matrix is singular with null
    direction L_k.  For k = 0 the defining weak form reduces to the single
    cell-average condition, which is what the 1x1 matrix encodes.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    if k == 0:
        return np.array([[2.0]])
    mat = np.zeros((k + 1, k + 1))
    m = np.arange(k)
    mat[m, m] = 2.0 / (2 * m + 1)
    n = np.arange(k + 1)
    mat[k] = 0.5 * (1.0 + (-1.0) ** n)
    return mat


def shift_local_matrix_2d(k: int) -> np.ndarray:
    """Reference-cell matrix of the 2D shifted projection: kron(S1, S1), S1 = `shift_local_matrix_1d(k)`.

    Rows and columns in the tensor basis's lexicographic order.  Singular for
    odd k: every column whose basis function holds L_k(x) or L_k(y) vanishes.
    """
    return np.kron(shift_local_matrix_1d(k), shift_local_matrix_1d(k))


@lru_cache(maxsize=None)
def _shift_axis_map(k: int) -> np.ndarray:
    """S1^-1 F, the 1D projection's coefficients from f at the nodes of `default_rule(k)`, then -1 and 1.

    F's rows are the moments against L_0..L_{k-1} and the endpoint average;
    for k = 0 its one row is the cell-average moment.  Shape (k+1, k+6).
    """
    rule = default_rule(k)
    rows = np.zeros((k + 1, rule.nodes.size + 2))
    rows[:, :-2] = legendre_table(k, rule.nodes) * rule.weights  # moments against L_0..L_k
    if k > 0:
        rows[k, :-2], rows[k, -2:] = 0.0, 0.5  # the endpoint average replaces the L_k moment
    out = np.linalg.solve(shift_local_matrix_1d(k), rows)
    out.flags.writeable = False
    return out


def shifted_projection(f: Callable, mesh: Mesh1D | TensorMesh2D, k: int) -> ModalField:
    """Project f onto degree-k polynomials (tensor degree k in 2D) matching moments and interface averages.

    In 1D, per cell: k moment conditions against degrees 0..k-1 plus the
    condition that (p(right) + p(left))/2 equals the same average of f; in 2D
    the tensor product of that map.  For k = 0 the cell average.  Requires
    even k; preserves cell averages and reproduces polynomials of (tensor)
    degree <= k.  Face and corner values of f are plain evaluations.
    """
    if k % 2 == 1:
        raise ValueError(f"the shifted projection is singular for odd degree k={k}: its local system annihilates L_{k}")
    d = len(mesh.axes)
    space = SpaceKind("P1D" if d == 1 else "Q2D", k)
    coeffs = sample(f, mesh, *(np.concatenate([default_rule(k).nodes, _ENDS]),) * d)
    for _ in range(d):  # each pass maps the first remaining point axis and appends its degree axis
        coeffs = np.tensordot(coeffs, _shift_axis_map(k), axes=([d], [1]))
    return ModalField(space, mesh, coeffs.reshape(coeffs.shape[:d] + (space.dof,)))


# The names verify and the superconvergence probes call (and bench/tracing.py wraps).
shifted_projection_1d = shifted_projection_2d = shifted_projection


def _weak_local_system_1d(f: Callable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix/rhs of the defining weak form on the reference cell (test helper).

    Conditions: the cell average of p matches f, and for every test function
    v = L_m (m >= 1):  -(p, v') + (p(1)+p(-1))/2 * (v(1)-v(-1))  matches the
    same functional of f.  Equivalent to the moment form for even k >= 2.
    """
    ref = reference_operators(k)
    rule = default_rule(k)
    derivs_w = legendre_deriv_table(k, rule.nodes) * rule.weights
    n = np.arange(k + 1)
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = 2.0
    cell = Mesh1D(_ENDS)
    samples = sample(f, cell, rule.nodes)[0]
    rhs = np.zeros(k + 1)
    rhs[0] = samples @ rule.weights
    f_edge_avg = 0.5 * sample(f, cell, _ENDS)[0].sum()
    for m in range(1, k + 1):
        jump = 1.0 - (-1.0) ** m  # v(1) - v(-1)
        mat[m] = -ref.stiffness[m] + 0.5 * (1.0 + (-1.0) ** n) * jump
        rhs[m] = -(samples @ derivs_w[m]) + f_edge_avg * jump
    return mat, rhs
