"""Semi-discrete DG advection operator with central interface fluxes.

1D, per cell j and test function v:

    a_j(u, v) = -(u, v_x)_j + {u}_{j+1/2} v(x_minus) - {u}_{j-1/2} v(x_plus),

with the central flux {u} = (u^- + u^+)/2, and the scheme (u_t, v)_j = -a_j(u, v).
2D uses the analogous form b_{i,j} (volume term minus four edge-flux
integrals) with (u_t, v) = +b_{i,j}(u, v).

The RHS maps fold the diagonal inverse mass matrix into constant reference
stencil matrices: on any mesh the modal time derivative of a cell is a fixed
linear combination of its own and neighbor coefficients scaled by 1/h (per
axis in 2D), so one matrix triple per axis serves every cell.  In 1D those
blocks are assembled once into the sparse matrix L of u' = L u
(`SpatialOperator.matrix`), which is both the RHS map and what the time
integrator steps with; 2D applies the per-axis stencils directly.  Bilinear
forms are evaluated independently by quadrature, which gives the test suite
two routes to the same numbers.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .basis import (
    default_rule,
    gauss_rule,
    legendre_deriv_table,
    legendre_table,
    reference_operators,
)
from .fields import ModalField, SpaceKind, _space_degrees, shifted_projection_1d, shifted_projection_2d
from .mesh import Mesh1D, TensorMesh2D, tensor_mesh, uniform_mesh

__all__ = [
    "SpatialOperator",
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
    """Per-axis stencil matrices over the 2D basis index set.

    The x-direction terms act on the x-degree with the y-degree as a
    bystander (orthogonality collapses the transverse integral), so the 2D
    matrices are the 1D ones spread over matching transverse indices.
    """
    own1, right1, left1 = _stencil_1d(k)
    degs = _space_degrees(kind, k)
    d = len(degs)
    mats = [np.zeros((d, d)) for _ in range(6)]
    x0, xp, xm, y0, yp, ym = mats
    for i, (m, n) in enumerate(degs):
        for ip, (a, b) in enumerate(degs):
            if n == b:
                x0[i, ip] = own1[m, a]
                xp[i, ip] = right1[m, a]
                xm[i, ip] = left1[m, a]
            if m == a:
                y0[i, ip] = own1[n, b]
                yp[i, ip] = right1[n, b]
                ym[i, ip] = left1[n, b]
    return tuple(mats)


class SpatialOperator:
    """The semi-discrete operator L with du/dt = L(u) on a periodic mesh."""

    def __init__(self, mesh: Mesh1D | TensorMesh2D, space: SpaceKind):
        self.mesh = mesh
        self.space = space
        k = space.degree
        if space.dimension == 1:
            if not isinstance(mesh, Mesh1D):
                raise TypeError("P1D operator requires a Mesh1D")
        else:
            if not isinstance(mesh, TensorMesh2D):
                raise TypeError("2D operator requires a TensorMesh2D")
            self._x0, self._xp, self._xm, self._y0, self._yp, self._ym = _stencil_2d(space.kind, k)
            self._inv_wx = 1.0 / mesh.mesh_x.widths
            self._inv_wy = 1.0 / mesh.mesh_y.widths
        # quadrature tables for the bilinear evaluations
        self._rule = default_rule(k)
        self._vals = legendre_table(k, self._rule.nodes)
        self._derivs = legendre_deriv_table(k, self._rule.nodes)
        self._ref = reference_operators(k)
        if space.dimension == 2:
            degs = _space_degrees(space.kind, k)
            q = self._rule.npoints
            self._vol_basis = np.empty((len(degs), q, q))
            self._vol_dx = np.empty_like(self._vol_basis)
            self._vol_dy = np.empty_like(self._vol_basis)
            for i, (a, b) in enumerate(degs):
                self._vol_basis[i] = np.outer(self._vals[a], self._vals[b])
                self._vol_dx[i] = np.outer(self._derivs[a], self._vals[b])
                self._vol_dy[i] = np.outer(self._vals[a], self._derivs[b])
            self._w2 = np.outer(self._rule.weights, self._rule.weights)
            self._edge_rule = gauss_rule(k + 2)
            evals = legendre_table(k, self._edge_rule.nodes)
            e_r, e_l = self._ref.edge_right, self._ref.edge_left
            # trace matrices (dof, q_edge): value along an edge as a function of
            # the transverse reference coordinate
            self._trace = {
                "x+": np.array([e_r[a] * evals[b] for a, b in degs]),
                "x-": np.array([e_l[a] * evals[b] for a, b in degs]),
                "y+": np.array([evals[a] * e_r[b] for a, b in degs]),
                "y-": np.array([evals[a] * e_l[b] for a, b in degs]),
            }

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

    # -- bilinear forms ----------------------------------------------------

    def bilinear_a(self, j: int, u: ModalField, v: np.ndarray) -> float:
        """a_j(u, v) for a 1D field u and polynomial v given modally on cell j."""
        if self.space.dimension != 1:
            raise ValueError("bilinear_a applies to 1D operators")
        n = self.mesh.num_cells
        if not 0 <= j < n:
            raise IndexError(f"cell index {j} out of range 0..{n - 1}")
        v = np.asarray(v, dtype=float)
        u_q = u.coeffs[j] @ self._vals
        v_dq = v @ self._derivs
        volume = -((u_q * v_dq) @ self._rule.weights)
        flux_r = u.interface_central_value(j + 1)
        flux_l = u.interface_central_value(j)
        return float(volume + flux_r * (v @ self._ref.edge_right) - flux_l * (v @ self._ref.edge_left))

    def bilinear_b(self, i: int, j: int, u: ModalField, v: np.ndarray) -> float:
        """b_{i,j}(u, v): volume transport terms minus the four edge-flux integrals."""
        if self.space.dimension != 2:
            raise ValueError("bilinear_b applies to 2D operators")
        nx, ny = self.mesh.num_cells
        if not (0 <= i < nx and 0 <= j < ny):
            raise IndexError(f"cell index ({i}, {j}) out of range for {nx}x{ny} mesh")
        v = np.asarray(v, dtype=float)
        c = u.coeffs
        hx = self.mesh.mesh_x.widths[i]
        hy = self.mesh.mesh_y.widths[j]
        u_qq = np.einsum("i,iqr->qr", c[i, j], self._vol_basis)
        v_dx = np.einsum("i,iqr->qr", v, self._vol_dx)
        v_dy = np.einsum("i,iqr->qr", v, self._vol_dy)
        volume = 0.5 * hy * np.sum(self._w2 * u_qq * v_dx) + 0.5 * hx * np.sum(self._w2 * u_qq * v_dy)
        tr = self._trace
        ew = self._edge_rule.weights
        flux_xr = 0.5 * (c[i, j] @ tr["x+"] + c[(i + 1) % nx, j] @ tr["x-"])
        flux_xl = 0.5 * (c[(i - 1) % nx, j] @ tr["x+"] + c[i, j] @ tr["x-"])
        flux_yt = 0.5 * (c[i, j] @ tr["y+"] + c[i, (j + 1) % ny] @ tr["y-"])
        flux_yb = 0.5 * (c[i, (j - 1) % ny] @ tr["y+"] + c[i, j] @ tr["y-"])
        edges_x = 0.5 * hy * (((flux_xr * (v @ tr["x+"])) - (flux_xl * (v @ tr["x-"]))) @ ew)
        edges_y = 0.5 * hx * (((flux_yt * (v @ tr["y+"])) - (flux_yb * (v @ tr["y-"]))) @ ew)
        return float(volume - edges_x - edges_y)


# ---------------------------------------------------------------------------
# Superconvergence probes


def _a_vector(k: int, u_at_quad: np.ndarray, flux_l: float, flux_r: float) -> np.ndarray:
    """a(u, L_m) for every basis test function on one reference-mapped cell."""
    rule = default_rule(k)
    derivs = legendre_deriv_table(k, rule.nodes)
    ref = reference_operators(k)
    volume = -(derivs @ (rule.weights * u_at_quad))
    return volume + flux_r * ref.edge_right - flux_l * ref.edge_left


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
    nodes = np.array([-mid - w[0], -mid, mid, mid + w[2]])
    mesh = Mesh1D(nodes)

    def f(x):
        return x ** (k + 1)

    proj = shifted_projection_1d(f, mesh, k)
    rule = default_rule(k)
    ref = reference_operators(k)
    # projected side: polynomial values on the middle cell + central fluxes
    pm_q = proj.coeffs[1] @ legendre_table(k, rule.nodes)
    flux_l_p = 0.5 * (proj.coeffs[0] @ ref.edge_right + proj.coeffs[1] @ ref.edge_left)
    flux_r_p = 0.5 * (proj.coeffs[1] @ ref.edge_right + proj.coeffs[2] @ ref.edge_left)
    a_proj = _a_vector(k, pm_q, flux_l_p, flux_r_p)
    # exact side: u is continuous so its central flux is its point value
    x_q = mesh.centers[1] + 0.5 * mesh.widths[1] * rule.nodes
    a_exact = _a_vector(k, f(x_q), f(nodes[1]), f(nodes[2]))
    return float(np.max(np.abs(a_proj - a_exact)))


def _b_vector_2d(
    k: int,
    hx: float,
    hy: float,
    u_vol: np.ndarray,
    edge_fluxes: dict[str, np.ndarray],
) -> np.ndarray:
    """b(u, v) on one cell for every tensor-basis test function v.

    u_vol holds u at the tensor quadrature points; edge_fluxes maps side
    ("x+", "x-", "y+", "y-") to flux values along the (k+2)-point edge rule.
    """
    rule = default_rule(k)
    vals = legendre_table(k, rule.nodes)
    derivs = legendre_deriv_table(k, rule.nodes)
    w = rule.weights
    degs = _space_degrees("Q2D", k)
    edge_rule = gauss_rule(k + 2)
    evals = legendre_table(k, edge_rule.nodes)
    ew = edge_rule.weights
    uw = u_vol * np.outer(w, w)
    out = np.empty(len(degs))
    e_sign = lambda d: (-1.0) ** d  # noqa: E731 - edge trace sign
    for idx, (a, b) in enumerate(degs):
        volume = 0.5 * hy * np.einsum("qr,q,r->", uw, derivs[a], vals[b]) + 0.5 * hx * np.einsum(
            "qr,q,r->", uw, vals[a], derivs[b]
        )
        ex = 0.5 * hy * ((edge_fluxes["x+"] * evals[b]) @ ew - e_sign(a) * (edge_fluxes["x-"] * evals[b]) @ ew)
        ey = 0.5 * hx * ((edge_fluxes["y+"] * evals[a]) @ ew - e_sign(b) * (edge_fluxes["y-"] * evals[a]) @ ew)
        out[idx] = volume - ex - ey
    return out


def _patch_2d():
    """Uniform 3x3 tensor patch with cells of width 2 centered at the origin."""
    axis = uniform_mesh(3, (-3.0, 3.0))
    return tensor_mesh(axis, axis)


def _residual_2d_for(k: int, f, mesh: TensorMesh2D) -> float:
    proj = shifted_projection_2d(f, mesh, k)
    mx, my = mesh.mesh_x, mesh.mesh_y
    i = j = 1  # center cell of the 3x3 patch
    hx, hy = mx.widths[i], my.widths[j]
    rule = default_rule(k)
    x_q = mx.centers[i] + 0.5 * hx * rule.nodes
    y_q = my.centers[j] + 0.5 * hy * rule.nodes
    edge_rule = gauss_rule(k + 2)
    ex_y = my.centers[j] + 0.5 * hy * edge_rule.nodes  # physical y along x-edges
    ex_x = mx.centers[i] + 0.5 * hx * edge_rule.nodes  # physical x along y-edges
    degs = _space_degrees("Q2D", k)
    evals = legendre_table(k, edge_rule.nodes)
    ref = reference_operators(k)

    def trace(cell, side):
        c = proj.coeffs[cell]
        if side == "x+":
            basis = np.array([ref.edge_right[a] * evals[b] for a, b in degs])
        elif side == "x-":
            basis = np.array([ref.edge_left[a] * evals[b] for a, b in degs])
        elif side == "y+":
            basis = np.array([evals[a] * ref.edge_right[b] for a, b in degs])
        else:
            basis = np.array([evals[a] * ref.edge_left[b] for a, b in degs])
        return c @ basis

    proj_fluxes = {
        "x+": 0.5 * (trace((i, j), "x+") + trace((i + 1, j), "x-")),
        "x-": 0.5 * (trace((i - 1, j), "x+") + trace((i, j), "x-")),
        "y+": 0.5 * (trace((i, j), "y+") + trace((i, j + 1), "y-")),
        "y-": 0.5 * (trace((i, j - 1), "y+") + trace((i, j), "y-")),
    }
    vol_basis = np.array([np.outer(legendre_table(k, rule.nodes)[a], legendre_table(k, rule.nodes)[b]) for a, b in degs])
    u_vol_proj = np.einsum("i,iqr->qr", proj.coeffs[i, j], vol_basis)
    b_proj = _b_vector_2d(k, hx, hy, u_vol_proj, proj_fluxes)

    xg, yg = np.meshgrid(x_q, y_q, indexing="ij")
    exact_fluxes = {
        "x+": np.broadcast_to(np.asarray(f(np.full_like(ex_y, mx.nodes[i + 1]), ex_y), float), ex_y.shape),
        "x-": np.broadcast_to(np.asarray(f(np.full_like(ex_y, mx.nodes[i]), ex_y), float), ex_y.shape),
        "y+": np.broadcast_to(np.asarray(f(ex_x, np.full_like(ex_x, my.nodes[j + 1])), float), ex_x.shape),
        "y-": np.broadcast_to(np.asarray(f(ex_x, np.full_like(ex_x, my.nodes[j])), float), ex_x.shape),
    }
    u_vol_exact = np.broadcast_to(np.asarray(f(xg, yg), float), xg.shape)
    b_exact = _b_vector_2d(k, hx, hy, u_vol_exact, exact_fluxes)
    return float(np.max(np.abs(b_proj - b_exact)))


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
    res = []
    if direction in ("x", "both"):
        res.append(_residual_2d_for(k, lambda x, y: x ** (k + 1), mesh))
    if direction in ("y", "both"):
        res.append(_residual_2d_for(k, lambda x, y: y ** (k + 1), mesh))
    return max(res)


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
    mx, my = mesh.mesh_x, mesh.mesh_y
    i = j = 1
    rule = default_rule(k)
    degs = _space_degrees("Q2D", k)
    evals = legendre_table(k, rule.nodes)
    ref = reference_operators(k)
    y_q = my.centers[j] + 0.5 * my.widths[j] * rule.nodes
    x_edge = mx.nodes[i + 1]
    basis_right = np.array([ref.edge_right[a] * evals[b] for a, b in degs])
    basis_left = np.array([ref.edge_left[a] * evals[b] for a, b in degs])
    trace_center = proj.coeffs[i, j] @ basis_right  # left limit at the edge
    trace_neighbor = proj.coeffs[i + 1, j] @ basis_left  # right limit
    u_edge = f(np.full_like(y_q, x_edge), y_q)
    summed = trace_center + trace_neighbor - 2.0 * u_edge
    moments = evals[: max(k, 1)] @ (rule.weights * summed)
    return float(np.max(np.abs(moments)))
