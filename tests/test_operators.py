"""Semi-discrete operator: L held to the DG form evaluated by quadrature (the
oracle, kept here), the per-cell form the probes read off L, conservation
structure, the uniform-patch superconvergence identities, and the memory of a
level's march, projection and error norms."""

import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from dgcentral import operators
from dgcentral.basis import default_rule, gauss_rule, legendre_deriv_table, legendre_table
from dgcentral.fields import ModalField, SpaceKind, _axis_degrees, _mass_vector, jacobian, l2_project
from dgcentral.mesh import Mesh1D, alpha_mesh, random_mesh, tensor_mesh, uniform_mesh
from dgcentral.metrics import error_norms
from dgcentral.operators import (
    SpatialOperator,
    _conjugate_half,
    _stencil_1d,
    _tested,
    flux_cancellation_residual_2d,
    superconvergence_residual_1d,
    superconvergence_residual_2d,
)
from dgcentral.study import build_mesh, load_config
from dgcentral.timestepping import IntegrationConfig, integrate

TWO_PI = 2.0 * np.pi


def _table(space, points, deriv=None):
    """Every basis function, or its reference derivative along axis `deriv`, on the tensor grid of `points`: (dof, Q)."""
    rows = [
        (legendre_deriv_table if a == deriv else legendre_table)(space.degree, x)[deg]
        for a, (deg, x) in enumerate(zip(_axis_degrees(space), points))
    ]
    return reduce(lambda p, q: (p[:, :, None] * q[:, None, :]).reshape(len(p), -1), rows)


def _reference_form(u, cell):
    """(u_t, v) on one cell for every basis v, by quadrature, with u's own central fluxes (periodic).

    Per axis: the volume term (u, dv/dx) minus the outgoing flux times v on
    the + face plus the incoming flux times v on the - face, scaled by the
    half-widths of the other axes.  This is -a_j(u, v) in 1D and
    b_{i,j}(u, v) in 2D.
    """
    space, axes = u.space, u.mesh.axes
    vol, edge = default_rule(space.degree), gauss_rule(space.degree + 2)
    grid, weights = [vol.nodes] * len(axes), reduce(np.multiply.outer, [vol.weights] * len(axes)).ravel()
    half = np.array([0.5 * axis.widths[i] for axis, i in zip(axes, cell)])
    own = u.coeffs[cell]
    out = np.zeros(space.dof)
    for a, axis in enumerate(axes):
        right, left = (u.coeffs[cell[:a] + ((cell[a] + s) % axis.num_cells,) + cell[a + 1 :]] for s in (1, -1))
        plus, minus = (_table(space, [np.array([end]) if b == a else edge.nodes for b in range(len(axes))]) for end in (1.0, -1.0))
        face = reduce(np.multiply.outer, [np.ones(1) if b == a else edge.weights for b in range(len(axes))]).ravel()
        flux_out, flux_in = 0.5 * (own @ plus + right @ minus), 0.5 * (left @ plus + own @ minus)
        volume = _table(space, grid, deriv=a) @ (own @ _table(space, grid) * weights)
        out += np.prod(np.delete(half, a)) * (volume - plus @ (flux_out * face) + minus @ (flux_in * face))
    return out


def test_form_of_x_against_one_is_minus_cell_width():
    # volume term vanishes for v = 1 and the central fluxes of a globally
    # continuous u reduce to point values: (u_t, 1)_j = -(x_{j+1/2} - x_{j-1/2})
    mesh = random_mesh(6, 0.3, 2, (0.0, 1.0))
    u = l2_project(lambda x: x, mesh, SpaceKind("P1D", 2))  # degree >= 1 reproduces x per cell
    for j in range(1, mesh.num_cells - 1):  # interior cells: no periodic seam in x itself
        assert _tested(u, (j,))[0] == pytest.approx(-mesh.widths[j], rel=1e-12)


def test_form_of_constant_vanishes():
    mesh = alpha_mesh(8, 0.25, (0.0, TWO_PI))
    ones = np.zeros((8, 4))
    ones[:, 0] = 1.0
    u = ModalField(SpaceKind("P1D", 3), mesh, ones)
    for j in range(8):
        assert np.max(np.abs(_tested(u, (j,)))) < 1e-14


# (mesh, space, seed, tolerance) on meshes small enough to check every cell
_DUALITY_CASES = {
    "P1D-random": (lambda: random_mesh(5, 0.3, 8, (0.0, TWO_PI)), SpaceKind("P1D", 2), 4, 1e-13),
    "P1D-alpha": (lambda: alpha_mesh(4, 0.2, (0.0, TWO_PI)), SpaceKind("P1D", 2), 77, 1e-13),
    "Q2D-alpha-uniform": (
        lambda: tensor_mesh(alpha_mesh(3, 0.2, (0.0, TWO_PI)), uniform_mesh(4, (0.0, TWO_PI))),
        SpaceKind("Q2D", 2),
        9,
        1e-12,
    ),
    "P2D-alpha-random": (
        lambda: tensor_mesh(alpha_mesh(3, 0.2, (0.0, TWO_PI)), random_mesh(4, 0.3, 5, (0.0, TWO_PI))),
        SpaceKind("P2D", 3),
        11,
        1e-12,
    ),
}


@pytest.mark.parametrize("case", list(_DUALITY_CASES))
def test_apply_rhs_is_dual_to_reference_form(case):
    # w = L(u) is defined by (w, v) = (u_t, v) for every cell and basis v:
    # -a_j(u, v) in 1D and b_{i,j}(u, v) in 2D
    make_mesh, space, seed, tol = _DUALITY_CASES[case]
    mesh = make_mesh()
    cells = (mesh.num_cells,) if space.dimension == 1 else mesh.num_cells
    u = ModalField(space, mesh, np.random.default_rng(seed).standard_normal((*cells, space.dof)))
    w = SpatialOperator(mesh, space).apply_rhs(u)
    mass = _mass_vector(space.kind, space.degree)
    for cell in np.ndindex(*cells):
        if space.dimension == 1:
            area = 0.5 * mesh.widths[cell[0]]
        else:
            area = 0.25 * mesh.mesh_x.widths[cell[0]] * mesh.mesh_y.widths[cell[1]]
        np.testing.assert_allclose(area * mass * w.coeffs[cell], _reference_form(u, cell), rtol=0, atol=tol)


# alpha and random axes, with 1- and 2-cell axes, where a cell's neighbours are itself or each other
_TESTED_MESHES = {
    "alpha-6": lambda: alpha_mesh(6, 0.2, (0.0, TWO_PI)),
    "random-5": lambda: random_mesh(5, 0.3, 2, (0.0, TWO_PI)),
    "alpha-1": lambda: alpha_mesh(1, 0.2, (0.0, TWO_PI)),
    "random-2": lambda: random_mesh(2, 0.3, 4, (0.0, TWO_PI)),
    "alpha-5xrandom-4": lambda: tensor_mesh(alpha_mesh(5, 0.2, (0.0, TWO_PI)), random_mesh(4, 0.3, 6, (0.0, TWO_PI))),
    "alpha-1xrandom-3": lambda: tensor_mesh(alpha_mesh(1, 0.2, (0.0, TWO_PI)), random_mesh(3, 0.3, 7, (0.0, TWO_PI))),
    "alpha-4xrandom-2": lambda: tensor_mesh(alpha_mesh(4, 0.2, (0.0, TWO_PI)), random_mesh(2, 0.3, 8, (0.0, TWO_PI))),
    "alpha-2xrandom-1": lambda: tensor_mesh(alpha_mesh(2, 0.2, (0.0, TWO_PI)), random_mesh(1, 0.3, 9, (0.0, TWO_PI))),
}


@pytest.mark.parametrize(
    "kind, family",
    [(kind, family) for family in _TESTED_MESHES for kind in (("Q2D", "P2D") if "x" in family else ("P1D",))],
)
@pytest.mark.parametrize("k", range(5))
def test_tested_is_the_mass_times_each_row_of_l(kind, family, k):
    # the probes lay L's blocks over one cell; on every cell (the periodic seam too) that is M L u
    mesh, space = _TESTED_MESHES[family](), SpaceKind(kind, k)
    cells = tuple(axis.num_cells for axis in mesh.axes)
    u = ModalField(space, mesh, np.random.default_rng(k).standard_normal((*cells, space.dof)))
    lu = (SpatialOperator(mesh, space).matrix @ u.coeffs.ravel()).reshape(u.coeffs.shape)
    expected = lu * jacobian(mesh)[..., None] * _mass_vector(kind, k)
    got = np.reshape([_tested(u, cell) for cell in np.ndindex(*cells)], expected.shape)
    # L u is 0 to roundoff at k = 0 on a 1-cell axis, so the bound is absolute
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(expected))))


def _mesh_2d():
    return tensor_mesh(alpha_mesh(7, 0.2, (0.0, TWO_PI)), random_mesh(5, 0.4, 3, (0.0, TWO_PI)))


def _kron_on_index_set(mesh, space):
    """Dense L of a 2D space: each axis's 1D matrix kron'd with the identity, on the space's index set.

    Rows and columns run over (i, j, basis) like the coefficients.  The x
    term couples (i, a) to (i', a') with j and the y-degree b as spectators,
    and the y term vice versa.
    """
    k1 = space.degree + 1
    lx, ly = (
        SpatialOperator(axis, SpaceKind("P1D", space.degree)).matrix.toarray().reshape(axis.num_cells, k1, axis.num_cells, k1)
        for axis in mesh.axes
    )
    nx, ny = mesh.num_cells
    ek = np.eye(k1)
    full = np.einsum("iaIA,jJ,bB->ijabIJAB", lx, np.eye(ny), ek) + np.einsum("iI,aA,jbJB->ijabIJAB", np.eye(nx), ek, ly)
    full = full.reshape(nx * ny, k1 * k1, nx * ny, k1 * k1)
    idx = [a * k1 + b for a, b in space.degrees]
    return full[:, idx][:, :, :, idx].reshape(nx * ny * space.dof, nx * ny * space.dof)


@pytest.mark.parametrize("kind", ["Q2D", "P2D"])
@pytest.mark.parametrize("k", range(5))
def test_tensor_apply_matches_kron_on_index_set(kind, k):
    mesh, space = _mesh_2d(), SpaceKind(kind, k)
    c = np.random.default_rng(k).standard_normal((*mesh.num_cells, space.dof))
    expected = (_kron_on_index_set(mesh, space) @ c.ravel()).reshape(c.shape)
    got = SpatialOperator(mesh, space).apply_rhs(ModalField(space, mesh, c)).coeffs
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))


def test_apply_rhs_linearity_and_free_stream():
    mesh = alpha_mesh(10, 0.1, (0.0, TWO_PI))
    space = SpaceKind("P1D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(1)
    a = ModalField(space, mesh, rng.standard_normal((10, 3)))
    b = ModalField(space, mesh, rng.standard_normal((10, 3)))
    lhs = op.apply_rhs(ModalField(space, mesh, 2.0 * a.coeffs - 3.0 * b.coeffs)).coeffs
    rhs = 2.0 * op.apply_rhs(a).coeffs - 3.0 * op.apply_rhs(b).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    ones = np.zeros((10, 3))
    ones[:, 0] = 1.0
    steady = op.apply_rhs(ModalField(space, mesh, ones))
    assert np.max(np.abs(steady.coeffs)) < 1e-13


def test_apply_rhs_approximates_negative_derivative():
    # L(P u) -> -u_x for the advection operator; error contracts by ~2^k
    f = lambda x: np.exp(np.sin(x))
    fprime = lambda x: np.cos(x) * np.exp(np.sin(x))
    space = SpaceKind("P1D", 2)
    errs = []
    for n in (16, 32, 64):
        mesh = uniform_mesh(n, (0.0, TWO_PI))
        w = SpatialOperator(mesh, space).apply_rhs(l2_project(f, mesh, space))
        target = l2_project(lambda x: -fprime(x), mesh, space)
        diff = ModalField(space, mesh, w.coeffs - target.coeffs)
        errs.append(diff.norm_l2())
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_global_skew_symmetry_random_fields():
    mesh = tensor_mesh(alpha_mesh(6, 0.3, (0.0, TWO_PI)), random_mesh(5, 0.2, 3, (0.0, TWO_PI)))
    space = SpaceKind("Q2D", 2)
    op = SpatialOperator(mesh, space)
    rng = np.random.default_rng(123)
    for _ in range(20):
        u = ModalField(space, mesh, rng.standard_normal((6, 5, 9)))
        w = op.apply_rhs(u)
        assert abs(w.inner(u)) <= 1e-12 * u.norm_l2_squared()


def test_operator_validates_mesh_and_field():
    mesh1d = uniform_mesh(4, (0.0, 1.0))
    with pytest.raises(TypeError):
        SpatialOperator(mesh1d, SpaceKind("Q2D", 2))
    op = SpatialOperator(mesh1d, SpaceKind("P1D", 2))
    wrong = ModalField(SpaceKind("P1D", 1), mesh1d, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        op.apply_rhs(wrong)


class TestSuperconvergence:
    """a_j(P*u - u, v) on the middle cell of a three-cell patch, u = x^{k+1}."""

    def test_uniform_patch_identity_k2(self):
        assert superconvergence_residual_1d(2) < 1e-12

    def test_uniform_patch_identity_k4(self):
        assert superconvergence_residual_1d(4) < 1e-11

    def test_nonuniform_patch_breaks_identity(self):
        assert superconvergence_residual_1d(2, widths=(1.0, 2.0, 1.0)) > 1e-6

    @pytest.mark.parametrize("direction", ["x", "y", "both"])
    def test_2d_identity_k2(self, direction):
        assert superconvergence_residual_2d(2, direction=direction) < 1e-11

    @pytest.mark.parametrize("k", [2, 4])
    def test_edge_flux_moments_cancel(self, k):
        assert flux_cancellation_residual_2d(k) < 1e-12


# -- the assembled 1D matrix ---------------------------------------------------

_MESHES_1D = {
    "uniform": lambda: uniform_mesh(9, (0.0, TWO_PI)),
    "alpha": lambda: alpha_mesh(10, 0.1, (0.0, TWO_PI)),
    "random": lambda: random_mesh(11, 0.3, 5, (0.0, TWO_PI)),
}


def _stencil_rhs(op, c):
    """The per-cell stencil form: own, right- and left-neighbour blocks, rows scaled by 1/h."""
    own, right, left = _stencil_1d(op.space.degree)
    out = c @ own.T + np.roll(c, -1, axis=0) @ right.T + np.roll(c, 1, axis=0) @ left.T
    return out / op.mesh.widths[:, None]


@pytest.mark.parametrize("family", sorted(_MESHES_1D))
@pytest.mark.parametrize("k", range(5))
def test_matrix_matches_stencil_rhs(family, k):
    mesh = _MESHES_1D[family]()
    space = SpaceKind("P1D", k)
    op = SpatialOperator(mesh, space)
    c = np.random.default_rng(k).standard_normal((mesh.num_cells, k + 1))
    expected = _stencil_rhs(op, c)
    got = (op.matrix @ c.ravel()).reshape(c.shape)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14 * np.max(np.abs(expected)))
    np.testing.assert_array_equal(op.apply_rhs(ModalField(space, mesh, c)).coeffs, got)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_on_tiny_periodic_meshes(n):
    # with N <= 2 the left and right neighbours coincide and their blocks add
    mesh = uniform_mesh(n, (0.0, 1.0))
    op = SpatialOperator(mesh, SpaceKind("P1D", 2))
    c = np.random.default_rng(n).standard_normal((n, 3))
    np.testing.assert_allclose((op.matrix @ c.ravel()).reshape(c.shape), _stencil_rhs(op, c), rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", ["Q2D", "P2D"])
@pytest.mark.parametrize("k", range(5))
def test_2d_matrix_is_the_kron_sum_on_index_set(kind, k):
    mesh, space = _mesh_2d(), SpaceKind(kind, k)
    np.testing.assert_array_equal(SpatialOperator(mesh, space).matrix.toarray(), _kron_on_index_set(mesh, space))


def _kron_then_select(op):
    """The 2D L assembled the long way: both Kronecker terms over all (k+1)^2 tensor degrees, summed, then sliced."""
    factors = [operators._assemble(axis, SpaceKind("P1D", op.space.degree)) for axis in op.mesh.axes]
    lx, ly = factors
    eye_x, eye_y = (sparse.identity(f.shape[0], format="csr") for f in factors)
    full = sparse.kron(lx, eye_y, format="csr") + sparse.kron(eye_x, ly, format="csr")
    # basis (a, b) of cell (i, j) is row (i(k+1) + a) ny(k+1) + j(k+1) + b of the Kronecker product
    k1, (nx, ny) = op.space.degree + 1, op.mesh.num_cells
    i, j = np.divmod(np.arange(nx * ny), ny)
    a, b = np.array(op.space.degrees).T
    order = ((i[:, None] * k1 + a) * ny * k1 + j[:, None] * k1 + b).ravel()
    out = full[order][:, order]
    out.sort_indices()  # the column slice leaves each row in the Kronecker product's column order
    return out


_AXES = {
    "uniform": lambda n: uniform_mesh(n, (0.0, TWO_PI)),
    "alpha": lambda n: alpha_mesh(n, 0.2, (0.0, TWO_PI)),
    "random": lambda n: random_mesh(n, 0.4, n, (0.0, TWO_PI)),
}


@pytest.mark.parametrize("family", sorted(_AXES))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("k", range(5))
def test_dense_axis_matrix_equals_the_csr_one(family, n, k, monkeypatch):
    # the per-axis eigenbases diagonalise a dense L summed from the same triplets as the CSR
    # assembly; N <= 2 repeats (row, col) pairs, which both must sum in the same order
    axis, dense = _AXES[family](n), []
    monkeypatch.setattr(operators, "_conjugate_half", lambda mat, scale: dense.append(mat) or _conjugate_half(mat, scale))
    SpatialOperator(tensor_mesh(axis, axis), SpaceKind("Q2D", k))._axis_bases
    assert len(dense) == 1  # the two axes are equal, so one is diagonalised
    np.testing.assert_array_equal(dense[0], operators._assemble(axis, SpaceKind("P1D", k)).toarray())


@pytest.mark.parametrize("family", sorted(_AXES))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
@pytest.mark.parametrize("k", range(5))
def test_real_axis_basis_matches_the_complex_eigh(family, n, k):
    # the conjugate half from eigh(S^T S) and its first-order correction, against a complex Hermitian eigh of
    # i S, S = D L D^-1.  Measured worst cases, in eps max|omega|: omega 8.7; the residual on the modes with
    # |omega| <= max/4 7.6 (4.3e3 over all modes, from the dense fast end at k = 4; without the correction
    # the slow residual reaches 174); |X^H X - I| 10.5 eps
    axis, eps = _AXES[family](n), np.finfo(float).eps
    lam, r, d, z = SpatialOperator(tensor_mesh(axis, axis), SpaceKind("Q2D", k))._axis_bases[0]
    s = d[:, None] * operators._assemble(axis, SpaceKind("P1D", k)).toarray() / d
    x = r[:, : len(lam)] + 1j * r[:, len(lam) :]
    np.testing.assert_allclose(x.conj().T @ x, np.eye(len(lam)), rtol=0, atol=32 * eps)
    if np.abs(s).max() < 1e-15:  # N = 1 at k <= 1 and N = 2 at k = 0: the blocks cancel, and L is roundoff
        assert z == len(s)
        return
    omega = np.linalg.eigh(1j * s)[0]
    top = omega[-1]
    assert z == np.count_nonzero(np.abs(omega) <= 1e-9 * top)  # the null block of the complex eigh
    np.testing.assert_allclose(np.sort(-lam.imag)[z:], omega[omega > 1e-9 * top], rtol=0, atol=16 * eps * top)
    residual = np.abs(s @ x - x * lam)
    assert residual.max() <= 1e4 * eps * top
    assert residual[:, np.abs(lam) <= top / 4].max(initial=0.0) <= 16 * eps * top
    if family == "uniform" and n == 40 and k == 0:  # omega = sin(xi) / h is 4-fold: xi, pi - xi and their negatives
        assert np.count_nonzero(np.diff(np.sort(-lam.imag)[z:]) < 1e-9 * top) == 9


@pytest.mark.parametrize(
    "family, nx, ny",
    [
        *((family, 5, 2) for family in sorted(_AXES)),
        *((family, nx, ny) for family in ("uniform", "random") for nx, ny in ((5, 1), (1, 3))),
    ],
)
@pytest.mark.parametrize("kind, k", [("Q2D", 1), ("Q2D", 2), ("Q2D", 4), ("P2D", 1), ("P2D", 2), ("P2D", 3), ("P2D", 4)])
def test_2d_matrix_is_assembled_on_the_index_set_alone(kind, k, family, nx, ny):
    # N = 2: both neighbours of a cell are one cell, and their blocks add; N = 1: the cell
    # is its own neighbour, and all three blocks sum into one entry, in the order of the
    # 1D factor (at k = 4 another order rounds differently)
    op = SpatialOperator(tensor_mesh(_AXES[family](nx), _AXES[family](ny)), SpaceKind(kind, k))
    expected = _kron_then_select(op)
    for part in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(op.matrix, part), getattr(expected, part))


def _assert_exactly_skew(mat, mass):
    """M L + (M L)^T = 0 entrywise for the diagonal mass M, given as the vector `mass`."""
    ml = mat.multiply(mass[:, None]).toarray()
    # each entry is a product of a few rounded factors: allow 16 ulps of its size
    bound = 16 * np.finfo(float).eps * np.maximum(np.abs(ml), np.abs(ml.T))
    assert np.all(np.abs(ml + ml.T) <= bound)


@pytest.mark.parametrize("family", sorted(_MESHES_1D))
@pytest.mark.parametrize("k", range(5))
def test_mass_times_matrix_is_exactly_skew(family, k):
    # d/dt ||u||^2 = u^T (M L + (M L)^T) u vanishes for every u, not only sampled ones
    mesh = _MESHES_1D[family]()
    mass = np.outer(0.5 * mesh.widths, _mass_vector("P1D", k)).ravel()
    _assert_exactly_skew(SpatialOperator(mesh, SpaceKind("P1D", k)).matrix, mass)


@pytest.mark.parametrize("k", range(5))
def test_mass_times_each_2d_factor_is_exactly_skew(k):
    # with M = Mx (x) My, M (Lx (x) I) = (Mx Lx) (x) My and likewise for y, so
    # skew factors make the 2D energy identity exact for every u; for P2D the
    # restriction to the index set commutes with the diagonal M
    mesh = _mesh_2d()
    assert len(mesh.axes) == 2
    for axis in mesh.axes:
        factor = operators._assemble(axis, SpaceKind("P1D", k))
        _assert_exactly_skew(factor, np.outer(0.5 * axis.widths, _mass_vector("P1D", k)).ravel())


@pytest.mark.parametrize("kind", ["Q2D", "P2D"])
@pytest.mark.parametrize("k", range(5))
def test_mass_times_2d_matrix_is_exactly_skew(kind, k):
    # the assembled Kronecker sum, restricted to the space's degrees, in the 2D mass
    mesh = _mesh_2d()
    mass = np.multiply.outer(jacobian(mesh), _mass_vector(kind, k)).ravel()
    _assert_exactly_skew(SpatialOperator(mesh, SpaceKind(kind, k)).matrix, mass)


# -- a basis that diagonalises L -----------------------------------------------


def _uniform_mesh_2d():
    return tensor_mesh(uniform_mesh(6, (0.0, TWO_PI)), uniform_mesh(5, (0.0, TWO_PI)))


def _odd_first_axis_mesh_2d():
    return tensor_mesh(uniform_mesh(5, (0.0, TWO_PI)), uniform_mesh(6, (0.0, TWO_PI)))


def _square_alpha_mesh_2d():
    return tensor_mesh(alpha_mesh(7, 0.2, (0.0, TWO_PI)), alpha_mesh(7, 0.2, (0.0, TWO_PI)))


def _shifted_domains_mesh_2d():
    # dyadic nodes, so both axes have bitwise the same widths on different domains
    return tensor_mesh(alpha_mesh(8, 0.25, (0.0, 8.0)), alpha_mesh(8, 0.25, (-4.0, 4.0)))


@pytest.mark.parametrize("kind, k", [("P1D", k) for k in range(5)] + [("P2D", k) for k in (1, 2, 3)])
def test_every_bloch_symbol_block_is_skew_hermitian(kind, k):
    # the Bloch march raises each block D S(xi) D^-1 that `propagate` builds from `_axis_blocks` as a normal matrix
    # with imaginary eigenvalues: |P| <= 1 below the rk4 limit, and z keeps the energy.  Both hold if the block is
    # skew-Hermitian.  The blocks at xi_0 >= 0 cover every xi: S(-xi) is the conjugate of S(xi)
    axis = uniform_mesh(8, (0.0, TWO_PI))
    mesh = axis if kind == "P1D" else tensor_mesh(uniform_mesh(6, (0.0, TWO_PI)), uniform_mesh(5, (0.0, TWO_PI)))
    op, cells = SpatialOperator(mesh, SpaceKind(kind, k)), tuple(a.num_cells for a in mesh.axes)
    assert op.spectral_route == "bloch"
    dof, pieces = op.space.dof, []
    op.propagate(np.zeros((*cells, dof)), lambda piece, z: pieces.append(piece.copy()) or z)
    blocks = np.concatenate([piece.reshape(-1, dof, dof) for piece in pieces])
    assert len(blocks) == (cells[0] // 2 + 1) * np.prod(cells[1:], dtype=int)  # xi_0 = 0..N_0/2, every other xi
    # relative to the largest entry of all blocks: at xi = 0 the block's own entries are the roundoff of summing
    # the triple (about 1e-15 at k = 1).  Measured: at most 4.1 eps (P1D k = 2)
    bound = 8 * np.finfo(float).eps * np.max(np.abs(blocks))
    assert np.max(np.abs(blocks + blocks.conj().swapaxes(1, 2))) <= bound


@pytest.mark.parametrize(
    "kind, mesh, route",
    [
        ("Q2D", _mesh_2d, "axes"),
        ("Q2D", _square_alpha_mesh_2d, "axes"),
        ("Q2D", _shifted_domains_mesh_2d, "axes"),
        ("Q2D", _uniform_mesh_2d, "axes"),
        ("P2D", _uniform_mesh_2d, "bloch"),
        ("P2D", _odd_first_axis_mesh_2d, "bloch"),
    ],
    ids=["Q2D-alpha-random", "Q2D-alpha-square", "Q2D-shifted-domains", "Q2D-uniform", "P2D-uniform", "P2D-uniform-5x6"],
)
@pytest.mark.parametrize("k", range(5))
def test_propagate_diagonalises_l(kind, mesh, route, k):
    # f(L) = L and f(L) = I, given piece by piece (an eigenvalue on the axes route, a symbol block on the Bloch
    # route), against the dense L
    mesh, space = mesh(), SpaceKind(kind, k)
    op = SpatialOperator(mesh, space)
    assert op.spectral_route == route
    c = np.random.default_rng(k).standard_normal((*mesh.num_cells, space.dof))
    expected = (_kron_on_index_set(mesh, space) @ c.ravel()).reshape(c.shape)
    got = op.propagate(c, lambda piece, z: piece * z if route == "axes" else piece @ z)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))
    np.testing.assert_allclose(op.propagate(c, lambda lam, z: z), c, rtol=0, atol=1e-14 * np.max(np.abs(c)))


@pytest.mark.parametrize(
    "mesh, shared",
    [(_square_alpha_mesh_2d, True), (_shifted_domains_mesh_2d, True), (_mesh_2d, False)],
    ids=["alpha-square", "shifted-domains", "alpha-random"],
)
def test_axes_of_equal_widths_share_one_eigenbasis(mesh, shared, monkeypatch):
    # each distinct axis is diagonalised once; test_propagate_diagonalises_l checks the shared basis
    calls = []
    monkeypatch.setattr(operators, "_conjugate_half", lambda *args: calls.append(1) or _conjugate_half(*args))
    bases = SpatialOperator(mesh(), SpaceKind("Q2D", 2))._axis_bases
    assert (bases[0] is bases[1]) == shared
    assert len(calls) == (1 if shared else 2)


# The Bloch route keeps xi_0 >= 0 and weights the rows that stand for a conjugate pair:
# none at N_0 = 1 and 2, all but xi_0 = 0 at odd N_0, all but xi_0 = 0 and N_0/2 at even N_0.
# The axes route keeps the first axis's null block and weights its omega > 0 half: a null
# block of one mode at even k and odd N_0 (alpha N_0 = 7), of two at odd k or even N_0 (6).
@pytest.mark.parametrize(
    "kind, mesh, k",
    [("Q2D", _mesh_2d, 2), ("P2D", _uniform_mesh_2d, 2), ("P2D", _odd_first_axis_mesh_2d, 2)]
    + [("P1D", lambda n=n: uniform_mesh(n, (0.0, TWO_PI)), 2) for n in (1, 2, 9, 16)]
    + [("Q2D", _mesh_2d, 1), ("Q2D", _mesh_2d, 3), ("Q2D", _uniform_mesh_2d, 2)],
    ids=["axes", "bloch", "bloch-5x6", "bloch-N1", "bloch-N2", "bloch-N9", "bloch-N16", "axes-k1", "axes-k3", "axes-uniform-6x5"],
)
def test_propagate_coordinates_carry_the_energy(kind, mesh, k):
    space = SpaceKind(kind, k)
    u = l2_project(lambda *x: np.exp(np.sin(x[0]) + np.cos(x[-1])), mesh(), space)
    op = SpatialOperator(u.mesh, space)
    seen = []
    op.propagate(u.coeffs, lambda lam, z: seen.append(np.sum(np.abs(z) ** 2)) or z)
    assert sum(seen) == pytest.approx(u.norm_l2_squared(), rel=1e-13)


@pytest.mark.parametrize("k, modes", [(1, (8, 14)), (2, (11, 21))])
def test_axes_route_marches_the_conjugate_half_of_the_first_axis(k, modes):
    # an axis of width w = 7 (k+1) with a null block of z modes (two at k = 1, one at k = 2): gain
    # sees the null block and the omega > 0 half of the first axis, (w + z)/2, against all w of the second
    axis = alpha_mesh(7, 0.2, (0.0, TWO_PI))
    op = SpatialOperator(tensor_mesh(axis, axis), SpaceKind("Q2D", k))
    seen = []
    op.propagate(np.ones((7, 7, (k + 1) ** 2)), lambda lam, z: seen.append((lam.shape, z.shape)) or z)
    assert seen == [(modes, modes)]


def _traced_peak(call):
    """call()'s result, and the peak of traced allocations during it above those live before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_axes_march_stays_within_its_memory():
    # a Q2 alpha N=33 level, eigenbases included: marching both conjugate halves of the first axis in
    # complex arithmetic peaks at 1.26 MB of traced allocations, its conjugate half in real GEMMs at 0.80 MB
    axis = alpha_mesh(33, 0.3, (0.0, TWO_PI))
    u0 = l2_project(lambda x, y: np.sin(x + y), tensor_mesh(axis, axis), SpaceKind("Q2D", 2))
    op = SpatialOperator(u0.mesh, u0.space)
    assert _traced_peak(lambda: integrate(op, u0, IntegrationConfig(t_final=1.0)))[1] < 1.05e6


@pytest.mark.parametrize("k, n, bound", [(2, 320, 2.0e6), (4, 160, 3.55e6)], ids=["p2-n320", "p4-n160"])
def test_1d_p_hl_march_stays_within_its_memory(k, n, bound):
    # alpha levels of ladder1d (P2 N=320) and criterion 3 (P4 N=160) peak at 1.70 and 3.21 MB of traced allocations,
    # with the last step taken on the state, each doubling's halo, np.take buffer and 2 Q buffer reused by its
    # blocks, and a rung's tiles dropped before its doubling; building Q1 and its tiles at h_last (2.54 MB at P2),
    # those buffers per block (3.72 MB at P4) or keeping a set bit's tiles through the doubling (2.36 MB at P2) fails
    u0 = l2_project(lambda x: np.exp(np.sin(x)), alpha_mesh(n, 0.1, (0.0, TWO_PI)), SpaceKind("P1D", k))
    op = SpatialOperator(u0.mesh, u0.space)
    assert _traced_peak(lambda: integrate(op, u0, IntegrationConfig(t_final=1.0)))[1] < bound


def test_projection_and_error_norms_stay_within_their_memory():
    # the P3 config's N=256 level: sampled whole, l2_project peaked at 77 MB of traced allocations and E2 with EA
    # at 127 MB; in blocks of rows at 6.8 MB (5.2 MB of it the coefficients) and 2.6 MB
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "advect2d_uniform_p3.cfg")
    prob, mesh = cfg.problem_def, build_mesh(cfg, 256)
    u, projection = _traced_peak(lambda: l2_project(prob.initial, mesh, cfg.space))
    assert projection < 10e6
    assert _traced_peak(lambda: error_norms(prob.exact, u, 1.0))[1] < 10e6


def test_bloch_blocks_do_not_change_the_result(monkeypatch):
    mesh, space = _uniform_mesh_2d(), SpaceKind("P2D", 3)
    c = np.random.default_rng(0).standard_normal((*mesh.num_cells, space.dof))
    cubic = lambda b, z: z + b @ (z + b @ (z / 2 + b @ z / 6))  # a real polynomial of each block
    whole = SpatialOperator(mesh, space).propagate(c, cubic)
    monkeypatch.setattr(operators, "_BLOCH_ENTRIES", 1)  # one xi row per block
    blocks = []
    rows = SpatialOperator(mesh, space).propagate(c, lambda b, z: blocks.append(b.shape) or cubic(b, z))
    assert blocks == [(1, 5, space.dof, space.dof)] * 4  # xi_0 = 0..3 of N_0 = 6
    np.testing.assert_allclose(rows, whole, rtol=0, atol=1e-15 * np.max(np.abs(whole)))


def test_spectral_route_follows_from_space_and_mesh():
    def route(kind, x, y, k=2):
        return SpatialOperator(tensor_mesh(x, y), SpaceKind(kind, k)).spectral_route

    fine = uniform_mesh(256, (0.0, TWO_PI))  # its widths spread by ~4e-14 relative
    assert np.ptp(fine.widths) > 0
    assert route("P2D", fine, fine) == "bloch"
    nudged = Mesh1D(fine.nodes + np.where(np.arange(257) == 100, 1e-10, 0.0))
    assert route("P2D", nudged, fine) is None
    assert route("P2D", alpha_mesh(8, 0.1, (0.0, TWO_PI)), fine) is None
    assert route("Q2D", alpha_mesh(7, 0.1, (0.0, TWO_PI)), random_mesh(5, 0.3, 1, (0.0, TWO_PI))) == "axes"
    assert SpatialOperator(fine, SpaceKind("P1D", 2)).spectral_route == "bloch"
    # the 1D ladders' alpha and random meshes keep P(hL)
    alpha = SpatialOperator(alpha_mesh(16, 0.1, (0.0, TWO_PI)), SpaceKind("P1D", 2))
    assert alpha.spectral_route is None
    assert SpatialOperator(random_mesh(16, 0.3, 3, (0.0, TWO_PI)), SpaceKind("P1D", 2)).spectral_route is None
    # Q2D takes its per-axis eigenbases at any width: k=8 N=256 is 2,304 coefficients wide, k=2 N=700 2,100
    assert route("Q2D", uniform_mesh(256, (0.0, 1.0)), uniform_mesh(256, (0.0, 1.0)), k=8) == "axes"
    assert route("Q2D", random_mesh(700, 0.3, 1, (0.0, TWO_PI)), alpha_mesh(7, 0.1, (0.0, TWO_PI))) == "axes"
    with pytest.raises(ValueError, match="diagonalising"):
        alpha.propagate(np.zeros((16, 3)), lambda lam, z: z)
