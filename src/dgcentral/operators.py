"""Semi-discrete DG advection operator with central interface fluxes.

1D, per cell j and test function v:

    a_j(u, v) = -(u, v_x)_j + {u}_{j+1/2} v(x_minus) - {u}_{j-1/2} v(x_plus),

with the central flux {u} = (u^- + u^+)/2, and the scheme (u_t, v)_j = -a_j(u, v).
2D uses the analogous form b_{i,j} (volume term minus four edge-flux
integrals) with (u_t, v) = +b_{i,j}(u, v).

The form is written twice.  The RHS maps fold the diagonal inverse mass
matrix into constant reference stencil matrices: on any mesh the modal time
derivative of a cell is a fixed linear combination of its own and neighbor
coefficients scaled by 1/h (per axis in 2D), so one matrix triple per axis
serves every cell.  In 1D those blocks are assembled once into the sparse
matrix L of u' = L u (`SpatialOperator.matrix`), which is both the RHS map
and what the time integrator steps with; 2D applies the per-axis stencils
directly.  The reference form `cell_form` evaluates (u_t, v) on one cell by
quadrature from the tables of `_form_tables`; `field_form` applies it to a
field with the field's own central fluxes.  The superconvergence probes
compare the reference form of a projected and of an exact solution, and the
tests hold the stencil route to the reference form.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .basis import (
    default_rule,
    gauss_rule,
    legendre_deriv_table,
    legendre_table,
    reference_operators,
)
from .fields import (
    ModalField,
    SpaceKind,
    GaussTable,
    _space_degrees,
    gauss_table,
    sample,
    shifted_projection_1d,
    shifted_projection_2d,
)
from .mesh import Mesh1D, TensorMesh2D, tensor_mesh, uniform_mesh

__all__ = [
    "SpatialOperator",
    "cell_form",
    "field_form",
    "superconvergence_residual_1d",
    "superconvergence_residual_2d",
    "flux_cancellation_residual_2d",
]


@lru_cache(maxsize=None)
def _stencil_1d(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference matrices (own, right-neighbor, left-neighbor) of the 1D RHS.

    Row m of the raw form is -a_j(u, L_m) restricted to each coefficient
    source; the inverse mass contributes (2m+1)/h, of which the h is applied
    at runtime.
    """
    ref = reference_operators(k)
    e_r, e_l = ref.edge_right, ref.edge_left
    own = ref.stiffness - 0.5 * np.outer(e_r, e_r) + 0.5 * np.outer(e_l, e_l)
    right = -0.5 * np.outer(e_r, e_l)
    left = 0.5 * np.outer(e_l, e_r)
    scale = (2.0 * np.arange(k + 1) + 1.0)[:, None]
    return own * scale, right * scale, left * scale


@lru_cache(maxsize=None)
def _stencil_2d(kind: str, k: int):
    """Per-axis stencil matrices (x own/right/left, then y) over the 2D basis index set.

    The x-direction terms act on the x-degree with the y-degree as a
    bystander (orthogonality collapses the transverse integral), so on the
    lexicographic tensor index a*(k+1) + b they are the 1D blocks kron'd with
    the identity, restricted to the space's index set.
    """
    eye = np.eye(k + 1)
    idx = [a * (k + 1) + b for a, b in _space_degrees(kind, k)]
    sub = np.ix_(idx, idx)
    blocks = _stencil_1d(k)
    return tuple(np.kron(m, eye)[sub] for m in blocks) + tuple(np.kron(eye, m)[sub] for m in blocks)


class SpatialOperator:
    """The semi-discrete operator L with du/dt = L(u) on a periodic mesh."""

    def __init__(self, mesh: Mesh1D | TensorMesh2D, space: SpaceKind):
        axes = space.axes_of(mesh)
        self.mesh = mesh
        self.space = space
        if space.dimension == 2:
            self._x0, self._xp, self._xm, self._y0, self._yp, self._ym = _stencil_2d(space.kind, space.degree)
            self._inv_wx, self._inv_wy = (1.0 / axis.widths for axis in axes)

    # -- RHS maps ----------------------------------------------------------

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The 1D operator L as a CSR matrix on the flattened (cell, mode) coefficients.

        Block-circulant: cell j couples to itself and its two periodic
        neighbours through the `_stencil_1d` blocks, with block row j scaled
        by 1/h_j.  Structural zeros of the blocks are dropped.
        """
        if self.space.dimension != 1:
            raise ValueError("the assembled matrix is built for 1D operators only")
        n = self.mesh.num_cells
        d = self.space.dof
        cells = np.arange(n)
        modes = np.arange(d)
        blocks = np.stack(_stencil_1d(self.space.degree))  # (own, right, left), each (d, d)
        nbrs = np.stack([cells, (cells + 1) % n, (cells - 1) % n])  # (3, n)
        rows = cells[None, :, None, None] * d + modes[None, None, :, None]
        cols = nbrs[:, :, None, None] * d + modes[None, None, None, :]
        vals = blocks[:, None, :, :] / self.mesh.widths[None, :, None, None]
        rows, cols = np.broadcast_arrays(rows, cols)
        # duplicate (row, col) pairs, which N <= 2 produces, are summed
        mat = sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(n * d, n * d))
        mat.eliminate_zeros()
        return mat

    def apply_rhs(self, u: ModalField) -> ModalField:
        """Modal image of the time derivative: (du/dt, v) tested over the basis."""
        if u.space != self.space:
            raise ValueError("field space does not match operator space")
        c = u.coeffs
        if self.space.dimension == 1:
            return u.like((self.matrix @ c.ravel()).reshape(c.shape))
        tx = c @ self._x0.T
        tx += np.roll(c, -1, axis=0) @ self._xp.T
        tx += np.roll(c, 1, axis=0) @ self._xm.T
        ty = c @ self._y0.T
        ty += np.roll(c, -1, axis=1) @ self._yp.T
        ty += np.roll(c, 1, axis=1) @ self._ym.T
        out = tx * self._inv_wx[:, None, None] + ty * self._inv_wy[None, :, None]
        return u.like(out)


# ---------------------------------------------------------------------------
# Reference form by quadrature


class _FormTables(NamedTuple):
    """Reference-cell quadrature tables of `cell_form` for one space."""

    vol: GaussTable  # the volume rule and the basis values on it
    derivs: tuple  # per axis, the reference derivative of each basis, shaped like values
    edge_nodes: np.ndarray  # transverse edge rule (one point in 1D)
    edge_weights: np.ndarray
    traces: dict  # side ("x+", "x-", "y+", "y-") -> (dof, q_edge) basis values on it


@lru_cache(maxsize=None)
def _form_tables(kind: str, k: int) -> _FormTables:
    """The quadrature tables of the reference form; the only place traces are built."""
    rule = default_rule(k)
    vol = gauss_table(SpaceKind(kind, k), rule)
    vals = legendre_table(k, rule.nodes)
    ders = legendre_deriv_table(k, rule.nodes)
    ref = reference_operators(k)
    e_r, e_l = ref.edge_right, ref.edge_left
    if kind == "P1D":
        # the edge of a 1D cell is a single point with unit weight
        traces = {"x+": e_r[:, None], "x-": e_l[:, None]}
        return _FormTables(vol, (ders,), np.zeros(1), np.ones(1), traces)
    a, b = np.array(_space_degrees(kind, k)).T
    edge = gauss_rule(k + 2)
    ev = legendre_table(k, edge.nodes)
    traces = {
        "x+": e_r[a, None] * ev[b],
        "x-": e_l[a, None] * ev[b],
        "y+": ev[a] * e_r[b, None],
        "y-": ev[a] * e_l[b, None],
    }
    # d/dx and d/dy of L_a(x) L_b(y), flattened over the grid like vol.values
    dx = (ders[a, :, None] * vals[b, None, :]).reshape(len(a), -1)
    dy = (vals[a, :, None] * ders[b, None, :]).reshape(len(a), -1)
    return _FormTables(vol, (dx, dy), edge.nodes, edge.weights, traces)


def cell_form(space: SpaceKind, widths, u_vol: np.ndarray, fluxes: dict) -> np.ndarray:
    """(u_t, v) on one cell for every basis function v, by quadrature.

    `widths` holds the cell's width along each axis, `u_vol` the values of u
    at the (flattened) volume points of `_form_tables`, and `fluxes` the
    interface flux on each side ("x+", "x-", and in 2D "y+", "y-") at the
    edge nodes.  Per axis
    the form is the volume term (u, dv/dx) minus the outgoing flux times v on
    the + side plus the incoming flux times v on the - side, scaled by the
    half-widths of the other axes.  This is -a_j(u, v) in 1D and b_{i,j}(u, v)
    in 2D.
    """
    t = _form_tables(space.kind, space.degree)
    half = 0.5 * np.asarray(widths, dtype=float)
    uw = u_vol * t.vol.weights
    out = np.zeros(space.dof)
    for axis, deriv in enumerate(t.derivs):
        side = "xy"[axis]
        flux_out = t.traces[side + "+"] @ (fluxes[side + "+"] * t.edge_weights)
        flux_in = t.traces[side + "-"] @ (fluxes[side + "-"] * t.edge_weights)
        volume = deriv @ uw
        out += np.prod(np.delete(half, axis)) * (volume - flux_out + flux_in)
    return out


def field_form(u: ModalField, *cell: int) -> np.ndarray:
    """`cell_form` of a field on one cell, with its own central fluxes (periodic wrap)."""
    t = _form_tables(u.space.kind, u.space.degree)
    axes = u.mesh.axes
    if len(cell) != len(axes):
        raise ValueError(f"a {len(axes)}D field takes {len(axes)} cell indices, got {len(cell)}")
    own = u.coeffs[cell]

    def neighbour(axis: int, step: int) -> np.ndarray:
        index = list(cell)
        index[axis] = (index[axis] + step) % axes[axis].num_cells
        return u.coeffs[tuple(index)]

    fluxes = {}
    for axis, side in enumerate("xy"[: len(axes)]):
        plus, minus = t.traces[side + "+"], t.traces[side + "-"]
        fluxes[side + "+"] = 0.5 * (own @ plus + neighbour(axis, 1) @ minus)
        fluxes[side + "-"] = 0.5 * (neighbour(axis, -1) @ plus + own @ minus)
    widths = [ax.widths[i] for ax, i in zip(axes, cell)]
    return cell_form(u.space, widths, own @ t.vol.values, fluxes)


# ---------------------------------------------------------------------------
# Superconvergence probes


def _form_residual(proj: ModalField, f, cell: tuple) -> float:
    """max over v of |(form of proj) - (form of f)| on one cell.

    f is continuous, so its central flux is its trace.
    """
    t = _form_tables(proj.space.kind, proj.space.degree)
    axes = proj.mesh.axes
    fluxes = {}
    for axis in range(len(axes)):
        for sign, end in (("+", 1.0), ("-", -1.0)):
            points = [end if d == axis else t.edge_nodes for d in range(len(axes))]
            fluxes["xy"[axis] + sign] = sample(f, proj.mesh, *points)[cell].ravel()
    widths = [ax.widths[i] for ax, i in zip(axes, cell)]
    exact = cell_form(proj.space, widths, t.vol.sample(f, proj.mesh)[cell], fluxes)
    return float(np.max(np.abs(field_form(proj, *cell) - exact)))


def superconvergence_residual_1d(k: int, widths: tuple[float, float, float] = (2.0, 2.0, 2.0)) -> float:
    """Deviation from a_j(Pu, v) = a_j(u, v) for u = x^(k+1) on a 3-cell patch.

    P is the shifted projection, with interface fluxes of Pu taken centrally
    between neighboring projections.  On a uniform patch (the default) the
    identity holds to roundoff for even k; distorting the widths (e.g.
    ratios 1:2:1) breaks it, which is what makes uniform meshes special.
    """
    if k % 2 == 1:
        raise ValueError("superconvergence identity requires even k")
    w = np.asarray(widths, dtype=float)
    if w.shape != (3,) or np.any(w <= 0):
        raise ValueError("widths must be three positive cell sizes")
    mid = 0.5 * w[1]
    mesh = Mesh1D(np.array([-mid - w[0], -mid, mid, mid + w[2]]))

    def f(x):
        return x ** (k + 1)

    return _form_residual(shifted_projection_1d(f, mesh, k), f, (1,))


def _patch_2d():
    """Uniform 3x3 tensor patch with cells of width 2 centered at the origin."""
    axis = uniform_mesh(3, (-3.0, 3.0))
    return tensor_mesh(axis, axis)


def superconvergence_residual_2d(k: int, direction: str = "both") -> float:
    """Deviation from b(Pu, v) = b(u, v) for u = x^(k+1) / y^(k+1) on a cross patch.

    Uses the center cell of a uniform 3x3 tensor patch (only the four face
    neighbors enter through the fluxes).  Requires even k.
    """
    if k % 2 == 1:
        raise ValueError("superconvergence identity requires even k")
    if direction not in ("x", "y", "both"):
        raise ValueError("direction must be 'x', 'y', or 'both'")
    mesh = _patch_2d()
    fs = []
    if direction in ("x", "both"):
        fs.append(lambda x, y: x ** (k + 1))
    if direction in ("y", "both"):
        fs.append(lambda x, y: y ** (k + 1))
    return max(_form_residual(shifted_projection_2d(f, mesh, k), f, (1, 1)) for f in fs)


def flux_cancellation_residual_2d(k: int) -> float:
    """Size of the summed one-sided projection errors across a shared edge.

    For u = x^(k+1) on the uniform patch, the projection error e = Pu - u
    satisfies e(right of edge) + e(left of edge) = 0 when integrated against
    transverse polynomials of degree <= k-1; returns the largest such moment.
    """
    if k % 2 == 1:
        raise ValueError("requires even k")
    mesh = _patch_2d()

    def f(x, y):
        return x ** (k + 1)

    proj = shifted_projection_2d(f, mesh, k)
    t = _form_tables("Q2D", k)
    # the left and right limits on the edge between cells (1, 1) and (2, 1),
    # along which u is the constant x_edge^(k+1)
    x_edge = mesh.mesh_x.nodes[2]
    summed = proj.coeffs[1, 1] @ t.traces["x+"] + proj.coeffs[2, 1] @ t.traces["x-"] - 2.0 * x_edge ** (k + 1)
    moments = legendre_table(max(k - 1, 0), t.edge_nodes) @ (t.edge_weights * summed)
    return float(np.max(np.abs(moments)))
