"""Semi-discrete DG advection operator with central interface fluxes.

1D, per cell j and test function v:

    a_j(u, v) = -(u, v_x)_j + {u}_{j+1/2} v(x_minus) - {u}_{j-1/2} v(x_plus),

with the central flux {u} = (u^- + u^+)/2, and the scheme (u_t, v)_j = -a_j(u, v).
2D uses the analogous form b_{i,j} (volume term minus four edge-flux
integrals) with (u_t, v) = +b_{i,j}(u, v).

The form is written once.  The RHS map folds the diagonal inverse mass
matrix into constant reference stencil matrices: on any mesh the modal time
derivative of a cell is a fixed linear combination of its own and neighbor
coefficients scaled by 1/h, so one block triple (own, right, left) serves
every cell of an axis.  `_axis_blocks` restricts that triple to a space's
basis once per axis, with the other axes' degrees as spectators, and every
fast route reads it: `_axis_terms` lays it over the mesh as one term of L of
u' = L u per axis, on the flattened coefficients (on a 2D tensor mesh the
Kronecker sum L = Lx (x) I + I (x) Ly restricted to the space's degrees),
which `SpatialOperator.matrix` sums into a CSR matrix and `_axis_bases` into
a dense one per axis, and `SpatialOperator.propagate` reads it as the Bloch
symbol of each wavenumber.  `propagate` diagonalises L with its mass-scaled
skew form: Q2D by a dense eigenbasis of each axis's L (diagonal on their product),
P1D and P2D on uniform axes by the Bloch symbols, written once for any
number of axes.  L is real, so its modes come in conjugate pairs (Zhong &
Shu, CMAME 2011), and both routes march one mode of each pair: the axes
route the null block and the omega > 0 half of the first axis's eigenbasis,
in real GEMMs on [Re V | Im V], and the Bloch route the half spectrum
xi_0 >= 0 of a real transform on cell axis 0 (the symbol at -xi is the
conjugate of the one at xi).  The time integrator marches with one or the
other, and in 1D builds P(hL) from the triple itself.
The superconvergence probes read L too: `_tested` lays the block triple over
one cell, giving (u_t, v) for every basis v, and `_form_residual` compares
it for a projected solution and for the exact one.  The form evaluated by
quadrature lives in the tests, as the oracle L is held to.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .basis import gauss_rule, legendre_table, reference_operators
from .fields import (
    ModalField,
    SpaceKind,
    _axis_degrees,
    _mass_vector,
    l2_project,
    mass_weights,
    shifted_projection_1d,
    shifted_projection_2d,
)
from .mesh import Mesh1D, TensorMesh2D, tensor_mesh, uniform_mesh

__all__ = [
    "SpatialOperator",
    "superconvergence_residual_1d",
    "superconvergence_residual_2d",
    "flux_cancellation_residual_2d",
]

# Relative spread of an axis's widths below which the axis counts as uniform,
# so that P1D and P2D can be diagonalised by Bloch symbols built on the mean width.
_UNIFORM_RTOL = 1e-12

# Entries of the stack of Bloch symbols built and diagonalised at a time (4 MB):
# at P3 N=256 the whole stack is 105 MB, and a march in one block raised the
# level's peak RSS by 285 MB where blocks of rows raise it by 8 MB.
_BLOCH_ENTRIES = 1 << 18

# |omega| at or below this fraction of an axis's largest |omega| is its null block (`_axis_bases`).  On
# the Q2 axes of k = 0..4, N = 1..65 (uniform, alpha and random), the computed null |omega| is roundoff,
# below 1e-15 of the largest, and the smallest other |omega| is the slowest mode, above 4e-3 of it and
# falling like 1 / (N (k+1)^2): the threshold lies six orders from both.
_NULL_RTOL = 1e-9


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
def _axis_blocks(space: SpaceKind) -> tuple[np.ndarray, ...]:
    """Per axis, the `_stencil_1d` blocks (own, right, left) on the space's basis, shaped (3, dof, dof).

    Entry [s, m, n] is block s between the axis's degrees of basis m and n
    where their degrees on the other axes agree (those are spectators), and
    0 where they do not.  In 1D there are no spectators.
    """
    degrees = _axis_degrees(space)
    same = degrees[:, :, None] == degrees[:, None, :]
    stencil = np.stack(_stencil_1d(space.degree))
    return tuple(stencil[:, deg[:, None], deg] * np.delete(same, a, axis=0).all(axis=0) for a, deg in enumerate(degrees))


def _axis_terms(mesh: Mesh1D | TensorMesh2D, space: SpaceKind):
    """Per axis, the (rows, cols, vals) triplets of its term of L on the flattened coefficients (cells..., dof).

    Along each axis a cell couples to itself and to its two periodic
    neighbours through `_axis_blocks`, each block row divided by the cell's
    width on that axis.  An axis of N <= 2 cells repeats (row, col) pairs.
    """
    cells = tuple(axis.num_cells for axis in mesh.axes)
    flat = np.arange(np.prod(cells)).reshape(cells)
    for a, (axis, blocks) in enumerate(zip(mesh.axes, _axis_blocks(space))):
        s, m, n = np.nonzero(blocks)
        nbrs = np.stack([flat, np.roll(flat, -1, axis=a), np.roll(flat, 1, axis=a)]).reshape(3, -1)
        widths = np.broadcast_to(np.expand_dims(axis.widths, tuple(b for b in range(len(cells)) if b != a)), cells)
        yield flat.reshape(-1, 1) * space.dof + m, nbrs.T[:, s] * space.dof + n, blocks[s, m, n] / widths.reshape(-1, 1)


def _assemble(mesh: Mesh1D | TensorMesh2D, space: SpaceKind):
    """L as a CSR matrix, the one CSR consumer of `_axis_terms`; scipy.sparse is imported here, on first use.

    Each term sums its duplicate entries and drops its zeros; the terms are added in axis order.
    """
    from scipy import sparse

    size = int(np.prod(mesh.num_cells)) * space.dof
    terms = []
    for rows, cols, vals in _axis_terms(mesh, space):
        terms.append(sparse.csr_matrix((vals.ravel(), (rows.ravel(), cols.ravel())), shape=(size, size)))
        terms[-1].eliminate_zeros()
        del rows, cols, vals  # not alive for the next term, nor in the sum of the terms (the peak of a 2D build)
    return sum(terms[1:], terms[0])


def _skew_eigh(mat: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues lam and unitary V with D L D^-1 = V diag(lam) V^H, D = diag(scale).

    D L D^-1 is skew (L is skew in the mass inner product, D^2 the mass), so
    1j D L D^-1 is Hermitian and `eigh` applies; lam is purely imaginary.
    `mat` may be a stack (..., n, n) with `scale` shaped (..., n).
    """
    omega, vecs = np.linalg.eigh(1j * (scale[..., :, None] * mat / scale[..., None, :]))
    return -1j * omega, vecs


class SpatialOperator:
    """The semi-discrete operator L with du/dt = L(u) on a periodic mesh: the sum of the terms of `_axis_terms`."""

    def __init__(self, mesh: Mesh1D | TensorMesh2D, space: SpaceKind):
        space.axes_of(mesh)
        self.mesh = mesh
        self.space = space

    @cached_property
    def matrix(self):
        """L as a CSR matrix on the flattened coefficients (cells..., dof), assembled by `_assemble`."""
        return _assemble(self.mesh, self.space)

    def apply_rhs(self, u: ModalField) -> ModalField:
        """Modal image of the time derivative: (du/dt, v) tested over the basis."""
        if u.space != self.space:
            raise ValueError("field space does not match operator space")
        return u.like((self.matrix @ u.coeffs.ravel()).reshape(u.coeffs.shape))

    # -- a basis that diagonalises L --------------------------------------------

    @property
    def spectral_route(self) -> str | None:
        """How `propagate` diagonalises L, with no basis built: "axes" for Q2D at any width (L = Lx (+) Ly is diagonal
        on a product of per-axis eigenbases), "bloch" for P1D and P2D on uniform axes (a symbol per wavenumber), else None."""
        if self.space.kind == "Q2D":
            return "axes"
        uniform = all(np.ptp(axis.widths) <= _UNIFORM_RTOL * axis.widths.mean() for axis in self.mesh.axes)
        return "bloch" if uniform else None

    @cached_property
    def _axis_bases(self) -> tuple:
        """Per axis, (lam, R, D, z): the conjugate half of `_skew_eigh` for L_a with D^2 its mass.

        L_a is real, so its modes pair up as (lam, v) and (conj lam, conj v).
        Of the eigenvalues lam = -i omega (omega ascending) this keeps the null
        block |omega| <= `_NULL_RTOL` max|omega| (its z modes span a real
        space) and then the omega > 0 half, as R = [Re V | Im V] on those
        columns, a real width x 2h array (h = (width + z) / 2): the omega < 0
        half is the conjugate of the kept one and is never stored.  L_a and
        its mass depend on an axis only through k and its widths, so axes of
        equal widths share one basis object: each distinct axis is
        diagonalised once, in O(width^3) time and, while `eigh` runs, two
        dense complex width^2 arrays (width = cells x (k+1)); R keeps about
        half the bytes of one.
        """
        space, bases = SpaceKind("P1D", self.space.degree), {}
        for axis in self.mesh.axes:
            if axis.widths.tobytes() not in bases:
                scale = np.sqrt(mass_weights(space, axis)).ravel()
                mat = np.zeros((scale.size,) * 2)
                for rows, cols, vals in _axis_terms(axis, space):  # one term, summed as `_assemble` sums it
                    np.add.at(mat, (rows, cols), vals)
                lam, vecs = _skew_eigh(mat, scale)
                tol = _NULL_RTOL * np.abs(lam).max()
                # eigh sorts omega = -lam.imag: the m most negative first, the m most positive last
                m = min(np.count_nonzero(lam.imag > tol), np.count_nonzero(lam.imag < -tol))
                kept = vecs[:, m:]  # the null block, then the omega > 0 half
                bases[axis.widths.tobytes()] = (lam[m:], np.hstack([kept.real, kept.imag]), scale, lam.size - 2 * m)
        return tuple(bases[axis.widths.tobytes()] for axis in self.mesh.axes)

    def propagate(self, coeffs: np.ndarray, gain) -> np.ndarray:
        """f(L) applied to coefficients (cells..., dof), given f mode by mode.

        In a basis that diagonalises L, with coordinates z that are unitary
        in the mass inner product (sum |z|^2 is the discrete energy), every z
        becomes gain(lam, z) for its eigenvalue lam.  `gain` is called on
        arrays of modes, possibly several times, and may overwrite both.  It
        must map conjugate inputs to conjugate outputs, gain(conj lam, conj z)
        = conj gain(lam, z), as a real polynomial or power series does: both
        routes march only one mode of each conjugate pair, weighted by sqrt(2)
        in z, and take the other to be its conjugate.  The axes route keeps
        the conjugate half of the first axis's modes (`_axis_bases`) against
        all of the second's; the Bloch route keeps xi_0 >= 0.
        """
        if self.spectral_route == "axes":
            (lx, rx, dx, zx), (ly, ry, dy, zy) = self._axis_bases
            # the coefficients u_ij,ab as W[i(k+1)+a, j(k+1)+b], the layout of the Kronecker product of the axes' L
            (nx, ny), k1 = coeffs.shape[:-1], self.space.degree + 1
            w = coeffs.reshape(nx, ny, k1, k1).transpose(0, 2, 1, 3).reshape(nx * k1, ny * k1)
            # z = conj(V_x^T D_x W D_y V_y) on the kept x half, for the kept y modes V_y = B + iC and then for
            # the conjugates of their omega > 0 part, all from real GEMMs: with A = V_x^T D_x W D_y, the rows of
            # [Re A; Im A] [B | C] give P = Re(A) V_y and Q = Im(A) V_y, so A V_y = P + iQ, A conj(V_y) = conj(P) + i conj(Q)
            hx, hy = len(lx), len(ly)
            a = rx.T @ (dx[:, None] * w * dy) @ ry
            p, q = a[:hx, :hy] + 1j * a[:hx, hy:], a[hx:, :hy] + 1j * a[hx:, hy:]
            z = np.hstack([np.conj(p + 1j * q), (p - 1j * q)[:, zy:]])
            z[zx:] *= np.sqrt(2.0)  # a kept x mode stands for itself and its conjugate
            z = gain(lx[:, None] + np.concatenate([ly, ly[zy:].conj()]), z)
            z[zx:] *= np.sqrt(2.0)
            # W = Re(V_x Y) / D_x / D_y = [Re V_x | Im V_x] [Re Y; -Im Y] / D_x / D_y, Y = z [V_y | conj V_y]^T: each
            # conjugate column of z folds into its kept partner's, so Y = M [B | C]^T, M = [z_k + z_c, i (z_k - z_c)]
            m = np.hstack([z[:, :hy], 1j * z[:, :hy]])
            m[:, zy:hy] += z[:, hy:]
            m[:, hy + zy :] -= 1j * z[:, hy:]
            w = rx @ (np.vstack([m.real, -m.imag]) @ ry.T) / dx[:, None] / dy
            return w.reshape(nx, k1, ny, k1).transpose(0, 2, 1, 3).reshape(coeffs.shape)
        if self.spectral_route != "bloch":
            raise ValueError("L has no diagonalising basis on this mesh and space")
        # Uniform axes: a Fourier transform over the cells turns L into one symbol per
        # wavenumber, the sum over the axes of each axis's block triple at that wavenumber.
        # The coefficients are real, so the modes at -xi are the conjugates of those at xi:
        # the real transform on cell axis 0 keeps xi_0 >= 0 only.
        widths = [axis.widths.mean() for axis in self.mesh.axes]
        cells, d = coeffs.shape[:-1], len(widths)
        terms = []
        for a, (n, width, (own, right, left)) in enumerate(zip(cells, widths, _axis_blocks(self.space))):
            phase = np.exp(2j * np.pi * (np.fft.rfftfreq(n) if a == 0 else np.fft.fftfreq(n)))[:, None, None]
            symbol = (own + right * phase + left * phase.conj()) / width
            terms.append(np.expand_dims(symbol, tuple(b for b in range(d) if b != a)))
        axes = (*range(1, d), 0)  # rfftn takes the real transform on its last axis
        u_hat = np.fft.rfftn(coeffs, axes=axes, norm="ortho")
        mass = np.sqrt(_mass_vector(self.space.kind, self.space.degree) * np.prod(widths) / 2**d)
        # a row 0 < xi_0 < N_0/2 stands for itself and its conjugate partner: weighting it
        # by sqrt(2) in z keeps sum |z|^2 the discrete energy
        xi0 = np.arange(len(u_hat)).reshape((-1,) + (1,) * d)
        scale = np.where((xi0 > 0) & (2 * xi0 < cells[0]), np.sqrt(2.0), 1.0) * mass
        rows = max(1, _BLOCH_ENTRIES // (np.prod(cells[1:], dtype=int) * self.space.dof**2))
        for start in range(0, len(u_hat), rows):
            block = slice(start, start + rows)
            lam, vecs = _skew_eigh(sum(terms[1:], terms[0][block]), mass)
            z = (vecs.conj().swapaxes(-1, -2) @ (scale[block] * u_hat[block])[..., None])[..., 0]
            z = gain(lam, z)
            u_hat[block] = (vecs @ z[..., None])[..., 0] / scale[block]
        return np.fft.irfftn(u_hat, s=[cells[a] for a in axes], axes=axes, norm="ortho")


# ---------------------------------------------------------------------------
# Superconvergence probes


def _tested(u: ModalField, cell: tuple) -> np.ndarray:
    """(u_t, v) on one cell for every basis v: the mass times the cell's row of L u.

    Each axis's `_axis_blocks` triple meets the cell and its two periodic
    neighbours on that axis, divided by the cell's width there, as
    `_axis_terms` lays it over the whole mesh.
    """
    out = np.zeros(u.space.dof)
    for a, (axis, blocks) in enumerate(zip(u.mesh.axes, _axis_blocks(u.space))):
        nbrs = [u.coeffs[cell[:a] + ((cell[a] + s) % axis.num_cells,) + cell[a + 1 :]] for s in (0, 1, -1)]
        out += sum(block @ nbr for block, nbr in zip(blocks, nbrs)) / axis.widths[cell[a]]
    return out * mass_weights(u.space, u.mesh)[cell]


def _form_residual(proj: ModalField, f, cell: tuple) -> float:
    """max over the degree-k basis v of |(u_t, v) of proj - (u_t, v) of f| on one cell.

    f = x^(k+1) lies in the degree-(k+1) space, where its L2 projection is f
    itself and its central flux its trace; every degree-k basis function is
    one of that space's too, so f's side is read off its rows of `_tested`.
    """
    up = l2_project(f, proj.mesh, SpaceKind(proj.space.kind, proj.space.degree + 1))
    rows = [up.space.degrees.index(d) for d in proj.space.degrees]
    return float(np.max(np.abs(_tested(proj, cell) - _tested(up, cell)[rows])))


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
    edge = gauss_rule(k + 2)
    # the left and right limits on the edge between cells (1, 1) and (2, 1),
    # along which u is the constant x_edge^(k+1)
    x_edge = mesh.mesh_x.nodes[2]
    summed = proj.sample([1.0], edge.nodes)[1, 1, 0] + proj.sample([-1.0], edge.nodes)[2, 1, 0] - 2.0 * x_edge ** (k + 1)
    moments = legendre_table(max(k - 1, 0), edge.nodes) @ (edge.weights * summed)
    return float(np.max(np.abs(moments)))
