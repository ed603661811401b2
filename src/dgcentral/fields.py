"""Modal DG fields on periodic meshes, plus the three projections used here.

A field stores, per cell, the coefficients of the Legendre basis mapped to
that cell (tensor products of mapped Legendre polynomials in 2D).  Three
projections produce fields from smooth functions:

* ``l2_project`` - the standard orthogonal L2 projection;
* ``shifted_projection_1d`` - the interface-average-matching projection:
  moments against degree k-1 on each cell plus the condition that the mean
  of the two endpoint values matches that of the target.  The local system
  is singular for odd k (null direction L_k; for k = 1 that is x), so odd
  degrees are rejected.
* ``shifted_projection_2d`` - the tensor analogue: interior moments against
  the degree k-1 tensor space, face-average moments along each axis, and the
  four-corner average.  Singular for odd k with null direction L_k(x)L_k(y).

All function arguments must accept numpy arrays (vectorized evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis import default_rule, legendre_table, reference_operators
from .mesh import Mesh1D, TensorMesh2D

__all__ = [
    "SpaceKind",
    "ModalField",
    "Problem",
    "l2_project",
    "shifted_projection_1d",
    "shifted_projection_2d",
    "shift_local_matrix_1d",
    "shift_local_matrix_2d",
]

_KINDS = ("P1D", "Q2D", "P2D")


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
        k = self.degree
        if self.kind == "P1D":
            return k + 1
        if self.kind == "Q2D":
            return (k + 1) ** 2
        return (k + 1) * (k + 2) // 2

    @property
    def degrees(self) -> tuple:
        """Basis index list: degrees m (1D) or pairs (a, b) (2D), lexicographic."""
        return _space_degrees(self.kind, self.degree)


@lru_cache(maxsize=None)
def _space_degrees(kind: str, k: int) -> tuple:
    if kind == "P1D":
        return tuple(range(k + 1))
    if kind == "Q2D":
        return tuple((a, b) for a in range(k + 1) for b in range(k + 1))
    return tuple((a, b) for a in range(k + 1) for b in range(k + 1 - a))


@lru_cache(maxsize=None)
def _mass_vector(kind: str, k: int) -> np.ndarray:
    """Reference-cell mass of each basis function (geometry factors excluded)."""
    degs = _space_degrees(kind, k)
    if kind == "P1D":
        out = np.array([2.0 / (2 * m + 1) for m in degs])
    else:
        out = np.array([(2.0 / (2 * a + 1)) * (2.0 / (2 * b + 1)) for a, b in degs])
    out.flags.writeable = False
    return out


@dataclass
class ModalField:
    """Per-cell modal coefficients over a mesh; shape (N, dof) or (Nx, Ny, dof)."""

    space: SpaceKind
    mesh: Mesh1D | TensorMesh2D
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.space.dimension == 1:
            if not isinstance(self.mesh, Mesh1D):
                raise TypeError("P1D fields require a Mesh1D")
            expected = (self.mesh.num_cells, self.space.dof)
        else:
            if not isinstance(self.mesh, TensorMesh2D):
                raise TypeError("2D fields require a TensorMesh2D")
            nx, ny = self.mesh.num_cells
            expected = (nx, ny, self.space.dof)
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient array has shape {self.coeffs.shape}, expected {expected}")

    def like(self, coeffs: np.ndarray) -> "ModalField":
        """A new field on the same mesh/space with the given coefficients."""
        return ModalField(self.space, self.mesh, coeffs)

    def eval_at(self, x: float, y: float | None = None) -> float:
        """Point value using the owning cell (left-closed cell convention)."""
        k = self.space.degree
        if self.space.dimension == 1:
            if y is not None:
                raise ValueError("1D field takes a single coordinate")
            j = self.mesh.locate(x)
            xi = 2.0 * (x - self.mesh.centers[j]) / self.mesh.widths[j]
            vals = legendre_table(k, xi)
            return float(self.coeffs[j] @ vals)
        if y is None:
            raise ValueError("2D field needs two coordinates")
        mx, my = self.mesh.mesh_x, self.mesh.mesh_y
        i, j = mx.locate(x), my.locate(y)
        xi = 2.0 * (x - mx.centers[i]) / mx.widths[i]
        eta = 2.0 * (y - my.centers[j]) / my.widths[j]
        lx = legendre_table(k, xi)
        ly = legendre_table(k, eta)
        acc = 0.0
        for idx, (a, b) in enumerate(self.space.degrees):
            acc += self.coeffs[i, j, idx] * lx[a] * ly[b]
        return float(acc)

    def cell_average(self, *index: int) -> float:
        """Mean value over a cell; the constant mode's coefficient by orthogonality."""
        return float(self.coeffs[tuple(index)][0])

    def norm_l2(self) -> float:
        """Global L2 norm, exact via orthogonality."""
        return float(np.sqrt(self.norm_l2_squared()))

    def norm_l2_squared(self) -> float:
        mass = _mass_vector(self.space.kind, self.space.degree)
        c2 = self.coeffs**2 @ mass
        if self.space.dimension == 1:
            return float((0.5 * self.mesh.widths) @ c2)
        hx = 0.5 * self.mesh.mesh_x.widths
        hy = 0.5 * self.mesh.mesh_y.widths
        return float(hx @ c2 @ hy)


@dataclass(frozen=True)
class Problem:
    """An advection test problem: initial data and exact solution on a periodic box."""

    name: str
    dimension: int
    domain: tuple[float, float]
    initial: Callable
    exact: Callable  # exact(x, t) in 1D, exact(x, y, t) in 2D


def _eval_1d(f: Callable, x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)


def _eval_2d(f: Callable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xb, yb = np.broadcast_arrays(x, y)
    return np.broadcast_to(np.asarray(f(xb, yb), dtype=float), xb.shape)


def _cell_points_1d(mesh: Mesh1D, xi: np.ndarray) -> np.ndarray:
    """Physical coordinates of reference points xi in every cell; shape (N, Q)."""
    return mesh.centers[:, None] + 0.5 * mesh.widths[:, None] * xi[None, :]


def l2_project(f: Callable, mesh: Mesh1D | TensorMesh2D, space: SpaceKind) -> ModalField:
    """Standard orthogonal L2 projection of f onto the space, cell by cell."""
    k = space.degree
    rule = default_rule(k)
    vals = legendre_table(k, rule.nodes)  # (k+1, Q)
    weighted = vals * rule.weights
    if space.dimension == 1:
        if not isinstance(mesh, Mesh1D):
            raise TypeError("P1D projection requires a Mesh1D")
        pts = _cell_points_1d(mesh, rule.nodes)
        samples = _eval_1d(f, pts)
        moments = samples @ weighted.T  # (N, k+1)
        return ModalField(space, mesh, moments / _mass_vector("P1D", k))
    if not isinstance(mesh, TensorMesh2D):
        raise TypeError("2D projection requires a TensorMesh2D")
    px = _cell_points_1d(mesh.mesh_x, rule.nodes)  # (nx, Q)
    py = _cell_points_1d(mesh.mesh_y, rule.nodes)  # (ny, Q)
    samples = _eval_2d(f, px[:, None, :, None], py[None, :, None, :])  # (nx, ny, Q, Q)
    moments = np.einsum("ijqr,aq,br->ijab", samples, weighted, weighted, optimize=True)
    rows = [moments[:, :, a, b] for a, b in space.degrees]
    coeffs = np.stack(rows, axis=-1) / _mass_vector(space.kind, k)
    return ModalField(space, mesh, coeffs)


# ---------------------------------------------------------------------------
# Shifted projections


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


@lru_cache(maxsize=None)
def _shift_lu_1d(k: int):
    return lu_factor(shift_local_matrix_1d(k))


def _reject_odd_degree_1d(k: int):
    if k % 2 == 1:
        raise ValueError(
            f"shifted projection is singular for odd degree k={k}: the local system "
            f"annihilates the L_{k} mode (for k=1 the null direction is w(x) = x)"
        )


def shifted_projection_1d(f: Callable, mesh: Mesh1D, k: int) -> ModalField:
    """Project f onto degree-k polynomials matching moments and interface averages.

    Per cell: k moment conditions against degrees 0..k-1 plus the condition
    that (p(right) + p(left))/2 equals the same average of f.  Requires even
    k; preserves cell averages and reproduces polynomials of degree <= k.
    """
    _reject_odd_degree_1d(k)
    if not isinstance(mesh, Mesh1D):
        raise TypeError("shifted_projection_1d requires a Mesh1D")
    rule = default_rule(k)
    vals = legendre_table(k, rule.nodes)
    weighted = vals * rule.weights
    pts = _cell_points_1d(mesh, rule.nodes)
    samples = _eval_1d(f, pts)
    moments = samples @ weighted.T  # (N, k+1); rows 0..k-1 used
    rhs = np.empty((mesh.num_cells, k + 1))
    if k == 0:
        rhs[:, 0] = moments[:, 0]
    else:
        node_vals = _eval_1d(f, mesh.nodes)
        rhs[:, :k] = moments[:, :k]
        rhs[:, k] = 0.5 * (node_vals[:-1] + node_vals[1:])
    coeffs = lu_solve(_shift_lu_1d(k), rhs.T).T
    return ModalField(SpaceKind("P1D", k), mesh, coeffs)


def _weak_local_system_1d(f: Callable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrix/rhs of the defining weak form on the reference cell (test helper).

    Conditions: the cell average of p matches f, and for every test function
    v = L_m (m >= 1):  -(p, v') + (p(1)+p(-1))/2 * (v(1)-v(-1))  matches the
    same functional of f.  Equivalent to the moment form for even k >= 2.
    """
    from .basis import legendre_deriv_table

    ref = reference_operators(k)
    rule = default_rule(k)
    derivs_w = legendre_deriv_table(k, rule.nodes) * rule.weights
    n = np.arange(k + 1)
    mat = np.zeros((k + 1, k + 1))
    mat[0, 0] = 2.0
    samples = _eval_1d(f, rule.nodes)
    rhs = np.zeros(k + 1)
    rhs[0] = samples @ rule.weights
    f_edge_avg = 0.5 * (_eval_1d(f, np.array([1.0]))[0] + _eval_1d(f, np.array([-1.0]))[0])
    for m in range(1, k + 1):
        jump = 1.0 - (-1.0) ** m  # v(1) - v(-1)
        mat[m] = -ref.stiffness[m] + 0.5 * (1.0 + (-1.0) ** n) * jump
        rhs[m] = -(samples @ derivs_w[m]) + f_edge_avg * jump
    return mat, rhs


def shift_local_matrix_2d(k: int) -> np.ndarray:
    """Reference-cell matrix of the 2D shifted projection (tensor basis, lex order).

    Row blocks: interior moments against the degree k-1 tensor space, then
    x-face-average moments (degrees 0..k-1 in x), y-face-average moments,
    and finally the four-corner average.  Singular for odd k (the
    L_k(x)L_k(y) column vanishes); for k = 0 only the corner row remains.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    degs = _space_degrees("Q2D", k)
    col = {d: i for i, d in enumerate(degs)}
    dof = len(degs)
    mat = np.zeros((dof, dof))
    mm = 2.0 / (2 * np.arange(k + 1) + 1)
    row = 0
    for a in range(k):
        for b in range(k):
            mat[row, col[(a, b)]] = mm[a] * mm[b]
            row += 1
    for m in range(k):
        for (ap, bp), c in col.items():
            if ap == m:
                mat[row, c] = 0.5 * (1.0 + (-1.0) ** bp) * mm[m]
        row += 1
    for n in range(k):
        for (ap, bp), c in col.items():
            if bp == n:
                mat[row, c] = 0.5 * (1.0 + (-1.0) ** ap) * mm[n]
        row += 1
    for (ap, bp), c in col.items():
        mat[row, c] = 0.25 * (1.0 + (-1.0) ** ap) * (1.0 + (-1.0) ** bp)
    return mat


@lru_cache(maxsize=None)
def _shift_lu_2d(k: int):
    return lu_factor(shift_local_matrix_2d(k))


def shifted_projection_2d(f: Callable, mesh: TensorMesh2D, k: int) -> ModalField:
    """Tensor-product shifted projection onto the degree-k tensor space.

    Enforces interior moments against the degree k-1 tensor space, moments of
    the top/bottom (resp. left/right) face averages along each axis, and the
    four-corner average.  Face and corner values of f are one-sided limits,
    i.e. plain evaluations for the smooth inputs used here.  Requires even k.
    """
    if k % 2 == 1:
        raise ValueError(
            f"2D shifted projection is singular for odd degree k={k}: "
            f"the local system annihilates the L_{k}(x)L_{k}(y) mode"
        )
    if not isinstance(mesh, TensorMesh2D):
        raise TypeError("shifted_projection_2d requires a TensorMesh2D")
    mx, my = mesh.mesh_x, mesh.mesh_y
    nx, ny = mesh.num_cells
    dof = (k + 1) ** 2
    rule = default_rule(k)
    vals = legendre_table(k, rule.nodes)
    weighted = vals * rule.weights
    rhs = np.empty((nx, ny, dof))
    row = 0
    if k > 0:
        px = _cell_points_1d(mx, rule.nodes)
        py = _cell_points_1d(my, rule.nodes)
        samples = _eval_2d(f, px[:, None, :, None], py[None, :, None, :])
        moments = np.einsum("ijqr,aq,br->ijab", samples, weighted, weighted, optimize=True)
        for a in range(k):
            for b in range(k):
                rhs[:, :, row] = moments[:, :, a, b]
                row += 1
        # x-face rows: moments in x of the average of the two y-faces
        top = _eval_2d(f, px[:, None, :], my.nodes[None, 1:, None])
        bottom = _eval_2d(f, px[:, None, :], my.nodes[None, :-1, None])
        face_avg = 0.5 * (top + bottom)  # (nx, ny, Q)
        xmom = np.einsum("ijq,mq->ijm", face_avg, weighted, optimize=True)
        for m in range(k):
            rhs[:, :, row] = xmom[:, :, m]
            row += 1
        right = _eval_2d(f, mx.nodes[1:, None, None], py[None, :, :])
        left = _eval_2d(f, mx.nodes[:-1, None, None], py[None, :, :])
        face_avg = 0.5 * (right + left)
        ymom = np.einsum("ijq,nq->ijn", face_avg, weighted, optimize=True)
        for n in range(k):
            rhs[:, :, row] = ymom[:, :, n]
            row += 1
    corners = _eval_2d(f, mx.nodes[:, None], my.nodes[None, :])
    rhs[:, :, row] = 0.25 * (
        corners[:-1, :-1] + corners[1:, :-1] + corners[:-1, 1:] + corners[1:, 1:]
    )
    coeffs = lu_solve(_shift_lu_2d(k), rhs.reshape(-1, dof).T).T.reshape(nx, ny, dof)
    return ModalField(SpaceKind("Q2D", k), mesh, coeffs)
